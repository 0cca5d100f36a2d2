"""Tests of the benchmark itself.

Run from the repository root::

    python -m pytest perfbench -q

The short-mode runs start the real program (about a minute in total).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import Future

import pytest

import common
import run as bench
from metrics import END_TO_END, PER_LAYER

ROOT = common.ROOT
COMMAND = [sys.executable, "perfbench/run.py"]


@pytest.fixture(scope="module")
def program():
    common.bootstrap()


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- BENCHMARK.json agrees with what the benchmark prints ---------------------


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- short runs print every metric ------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = PER_LAYER if trace else END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == table
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        COMMAND + ["--workload", "serve-n2", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the correctness gate --------------------------------------------------------------


class PerturbingTenant:
    """Answers like the session, except one logit of every batch."""

    def __init__(self, session) -> None:
        self.session = session
        self.config = session.config

    def infer_batch(self, images):
        out = self.session.infer_batch(images).copy()
        out[0, 0] += 1e-9
        return out


def test_gate_fires_on_a_perturbed_logit(program):
    import serving

    result = serving.run(5, 1.0, False, make_tenant=PerturbingTenant)
    assert any("differ" in f for f in result["failures"])
    assert bench.report(result, False)["correct"] is False


def test_gate_fires_on_a_refused_request(program):
    import serving

    result = serving.run(5, 1.0, False,
                         gateway_overrides={"rate": 50.0, "burst": 1})
    assert result["failed"] > 0
    assert any("refused" in f for f in result["failures"])
    assert bench.report(result, False)["correct"] is False


# -- pieces -------------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    tracer = common.Tracer()
    root = tracer.add("root", 0.0, 10.0)
    tracer.add("a", 1.0, 4.0, root)
    tracer.add("b", 3.0, 6.0, root)  # overlaps a: union is 1..6
    tracer.add("c", 9.0, 12.0, root)  # sticks out: only 9..10 counts
    own = tracer.self_ms_by_name()
    assert own["root"] == [pytest.approx(4000.0)]
    assert own["a"] == [pytest.approx(3000.0)]


def test_open_loop_counts_every_refusal_against_attempted(program):
    from repro.errors import BackpressureError

    import numpy as np
    from traffic import REFUSED, run_open_loop

    def submit(x, i):
        future = Future()
        if i % 2:
            future.set_exception(BackpressureError("full"))
        else:
            future.set_result(x)
        return future

    inputs = [np.full(3, i) for i in range(6)]
    run = run_open_loop(submit, inputs, np.linspace(0.0, 0.01, 6))
    assert run.attempted == 6 and run.failed == 3
    assert run.count(REFUSED) == 3
    assert len(run.latency_ms()) == 3
    assert np.all(run.latency_ms() >= 0)


def test_closed_loop_counts_every_refusal_against_attempted(program):
    from repro.errors import BackpressureError

    import numpy as np
    from traffic import REFUSED, run_closed_loop

    def submit(x, i):
        future = Future()
        if i % 2:
            future.set_exception(BackpressureError("full"))
        else:
            future.set_result(x)
        return future

    inputs = [np.full(3, i) for i in range(6)]
    run = run_closed_loop(submit, inputs, clients=2, seconds=0.01)
    assert run.attempted >= 1
    assert run.failed == run.count(REFUSED) == run.attempted // 2
    assert np.all(run.latency_ms() >= 0)
    answered = [r for r, ok in zip(run.results, run.ok) if ok]
    assert all(np.array_equal(r, inputs[2 * k % 6])
               for k, r in enumerate(answered))


def test_windows_count_answers_between_ticks(program):
    import numpy as np
    from traffic import OK, REFUSED, TrafficRun

    run = TrafficRun(5)
    run.done[:] = [0.2, 0.4, 0.6, 1.5, 1.7]
    run.outcome[:] = [OK, OK, REFUSED, OK, OK]
    run.ticks = [(0.0, 10.0), (1.0, 10.3), (2.0, 10.4)]
    rates, cpu_ms = run.windows()
    assert rates == [2.0, 2.0]  # the refusal answers nothing
    assert cpu_ms == [pytest.approx(150.0), pytest.approx(50.0)]
    assert common.fast_rate(np.arange(11.0)) == pytest.approx(9.0)
    assert common.fast_cost(np.arange(11.0)) == pytest.approx(1.0)
