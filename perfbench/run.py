"""The repository's benchmark: one command, every workload, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-n2 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with no spans and prints the end-to-end metrics;
``--trace 1`` is a separate run that records spans around the calls into
each layer and prints the per-layer metrics (and writes every span to
``.perfbench/``).  Every run checks its outputs; a failed check prints
``"correct": false`` and exits 1.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import common
from metrics import END_TO_END, PER_LAYER

WORKLOADS = ("serve-n2", "skip-n1", "aging-n1")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process (``repro`` must be importable)."""
    import closedloop
    import serving

    if name == "serve-n2":
        return serving.run(seed, seconds, trace)
    return closedloop.run(name, seed, seconds, trace)


def report(result: dict, trace: bool) -> dict:
    """The contract's result object for one run.

    A layer the workload does not run reads 0 (no gateway behind the
    closed loops, no re-tuning on static devices).
    """
    if trace:
        table, values = PER_LAYER, {**dict.fromkeys(PER_LAYER, 0.0),
                                    **result["layer"]}
    else:
        table, values = END_TO_END, result["e2e"]
    missing = sorted(set(table) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": not result["failures"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in table.items()
        },
    }


def _print_human(out: dict, result: dict, trace: bool) -> None:
    for name, m in out["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    if trace:
        print("  span self time (ms):")
        for name, s in common.summarize(result["by_name"]).items():
            print(f"    {name:34s} n={s['count']:6d} "
                  f"p50={s['self_ms_p50']:9.4f} total={s['self_ms_total']:10.2f}")
    for failure in result["failures"]:
        print(f"  GATE FAILED: {failure}")


def _write_trace(path: Path, manifest: dict, result: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "manifest": manifest,
        "self_ms": common.summarize(result["by_name"]),
        "spans": result["tracer"].spans,
    }
    path.write_text(json.dumps(payload))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.bootstrap()
    except (common.BootstrapError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    manifest = common.provenance(args.seed, args.workload, result["config"])
    manifest["loadavg_before"] = load_before
    manifest["loadavg_after"] = os.getloadavg()
    manifest["detail"] = result["detail"]
    out = report(result, bool(args.trace))

    print("provenance: " + json.dumps(manifest, default=str))
    print(f"{args.workload} seed={args.seed} trace={args.trace}:")
    _print_human(out, result, bool(args.trace))
    if args.trace:
        _write_trace(
            common.ROOT / ".perfbench"
            / f"trace-{args.workload}-seed{args.seed}.json",
            manifest, result,
        )
    print(json.dumps(out))
    sys.stdout.flush()
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
