"""Shared pieces of the benchmark: bootstrap, spans, statistics, provenance.

Nothing here imports ``repro`` at module load, so :func:`bootstrap` can pin
the BLAS thread count and point ``sys.path`` at the checkout's ``src/``
before numpy is first imported.
"""

from __future__ import annotations

import gc
import itertools
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Root of the checkout the benchmark runs from (``perfbench/..``).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: One BLAS thread per process: the serving workload runs two shard
#: workers on a two-CPU box, so workers x BLAS threads stays <= nproc.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BootstrapError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def bootstrap() -> None:
    """Pin BLAS to one thread and import ``repro`` from this checkout only."""
    for name in BLAS_ENV:
        os.environ[name] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BootstrapError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BootstrapError(
            f"imported repro from {repro.__file__}, not from {SRC}"
        )


# -- statistics ----------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1]; 0.0 for no samples."""
    import numpy as np

    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


#: Share of a run's windows that run slower than the figure it reports.
#: The shared host slows the whole process for seconds at a time (busy
#: neighbours on the same cores, CPU steal).  That can only lengthen a
#: window, so the fastest windows measure the program and the slow ones
#: the host; a whole-run mean or median follows how much of the run the
#: host was slow for.
FAST_QUANTILE = 0.9


def fast_rate(rates: Sequence[float]) -> float:
    """The rate the fastest tenth of windows reach (:data:`FAST_QUANTILE`)."""
    return quantile(rates, FAST_QUANTILE)


def fast_cost(costs: Sequence[float]) -> float:
    """The cost the cheapest tenth of windows stay under."""
    return quantile(costs, 1.0 - FAST_QUANTILE)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- spans -----------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded around calls into the program.

    A span is ``(id, name, start, end, parent, rid)``; times are
    ``time.perf_counter`` seconds.  ``rid`` ties together the spans of one
    request.  Id allocation and appends are single operations under the
    interpreter lock, so worker threads may record concurrently.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        rid: Optional[int] = None,
        sid: Optional[int] = None,
    ) -> int:
        """Record a finished span; returns its id."""
        sid = next(self._ids) if sid is None else sid
        self.spans.append(
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "rid": rid}
        )
        return sid

    def span(self, name: str, parent: Optional[int] = None,
             rid: Optional[int] = None) -> "_OpenSpan":
        """Context manager timing its block; ``.id`` is usable as a parent."""
        return _OpenSpan(self, name, parent, rid)

    def duration(self, sid: int) -> float:
        """Duration (s) of the closed span ``sid``."""
        for s in reversed(self.spans):
            if s["id"] == sid:
                return s["end"] - s["start"]
        raise KeyError(sid)

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the part of it its children cover."""
        children: Dict[int, List[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            out[s["id"]] = (s["end"] - s["start"]) - _covered(
                s["start"], s["end"], children.get(s["id"], ())
            )
        return out

    def self_ms_by_name(self) -> Dict[str, List[float]]:
        """Span name -> self times in ms, in recording order."""
        own = self.self_times()
        by_name: Dict[str, List[float]] = {}
        for s in self.spans:
            by_name.setdefault(s["name"], []).append(own[s["id"]] * 1e3)
        return by_name


def summarize(by_name: Dict[str, List[float]]) -> Dict[str, dict]:
    """Per span name: count, total and median self time in ms."""
    return {
        name: {
            "count": len(v),
            "self_ms_total": sum(v),
            "self_ms_p50": median(v),
        }
        for name, v in sorted(by_name.items())
    }


class _OpenSpan:
    def __init__(self, tracer: Tracer, name: str, parent, rid) -> None:
        self.tracer, self.name, self.parent, self.rid = tracer, name, parent, rid
        self.id = next(tracer._ids)

    def __enter__(self) -> "_OpenSpan":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.add(self.name, self.start, time.perf_counter(),
                        self.parent, self.rid, sid=self.id)


def _covered(start: float, end: float, spans: Iterable[dict]) -> float:
    """Length of [start, end] covered by the union of ``spans``."""
    intervals = sorted(
        (max(start, s["start"]), min(end, s["end"])) for s in spans
    )
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# -- set-up ------------------------------------------------------------------------


#: Set-ups per run; ``setup_s`` and its parts are the medians.
SETUP_REPEATS = 3


def clear_registries() -> None:
    """Empty the zoo's warm models and the compiled-session registry."""
    from repro import zoo
    from repro.serve.session import clear_sessions

    zoo.clear_warm_models()
    clear_sessions()


def settle() -> None:
    """Collect the set-up's garbage, so every run starts timing from the
    same heap state.  The program's own GC policy is left as it is.
    """
    gc.collect()


def provenance(seed: int, workload: str, config) -> dict:
    """Run provenance through ``repro.obs.run_manifest`` plus machine state."""
    from repro import obs

    return obs.run_manifest(
        seed=seed,
        config=config,
        workload=workload,
        engine_config=config,
        cpu_count=os.cpu_count(),
        blas_threads={name: os.environ.get(name) for name in BLAS_ENV},
    )
