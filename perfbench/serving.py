"""serve-n2: real network2 inference behind ``AsyncGateway``.

Two shards with one batcher worker each (= two CPUs), tile 16,
``max_batch_size`` 64 and ``max_delay_ms`` 2, over one warm network2
session on the default engine and a clean device.

``images_per_s`` is the rate :data:`CLIENTS` closed-loop callers get
through the gateway: each sends its next request once the previous one
is answered, so admission, routing, coalescing and hand-off set the
rate, not the load generator.  It and ``cpu_ms_per_image`` are read in
half-second windows of the loop, and the run reports what the fastest
tenth of windows reach (:data:`common.FAST_QUANTILE`).  The traced run
also reads latency in an open loop of seeded Poisson arrivals at
:data:`NOMINAL_RPS`, and
searches the highest offered rate that meets ``p99 <= SLO_P99_MS`` with
no failed request and no growing backlog.  Those two follow the shared
host's CPU steal more than the program, so they are reported with the
per-layer metrics, not gated end to end.

The traced run hands the gateway a tenant that wraps the session's
``infer_batch`` and maps every row of a batch back to the request it
answers, so each request's spans (generator lag, submit, wait for a
batch, the batch, the return hop) share the request's id.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

import numpy as np

import closedloop
from common import (
    SETUP_REPEATS,
    Tracer,
    clear_registries,
    fast_cost,
    fast_rate,
    median,
    peak_rss_mb,
    quantile,
    settle,
)
from traffic import poisson_offsets, run_closed_loop, run_open_loop

NETWORK = "network2"
TENANT = "network2"
#: Closed-loop callers behind ``images_per_s``: one full batch in
#: flight, a quarter of the gateway's in-flight window.
CLIENTS = 64
#: Offered rate at which the traced run reads latency (requests/s).
NOMINAL_RPS = 400.0
#: Latency objective of the rate search: p99 of a trial, in ms.
SLO_P99_MS = 100.0
#: Length of one rate-search trial (s) and the step between rates
#: before the search has bracketed the limit.
TRIAL_S = 0.6
SEARCH_STEP = 1.5
#: Images per ``caller.call`` of the traced layer replay.
REPLAY_IMAGES = 64


def session_config():
    from repro.serve.session import SessionConfig

    return SessionConfig(network=NETWORK)


def gateway_config(**overrides):
    from repro.serve.batcher import BatcherConfig
    from repro.serve.gateway import GatewayConfig

    fields = dict(
        shards=2,
        batcher=BatcherConfig(max_batch_size=64, max_delay_ms=2.0, workers=1),
    )
    fields.update(overrides)
    return GatewayConfig(**fields)


class TracedTenant:
    """A gateway tenant wrapping ``session.infer_batch``.

    While ``tracer`` is set, every batch is recorded with the ids of the
    requests it answered: a request is announced with :meth:`expect`
    (keyed by its image bytes) before it is submitted, and each row of a
    batch claims the oldest announced request with the same image.
    """

    def __init__(self, session) -> None:
        self.session = session
        self.config = session.config
        self.tracer: Optional[Tracer] = None
        self.batches: List[tuple] = []
        self._pending: Dict[bytes, deque] = {}
        self._lock = threading.Lock()

    def expect(self, key: bytes, rid: int) -> None:
        with self._lock:
            self._pending.setdefault(key, deque()).append(rid)

    def infer_batch(self, images: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        out = self.session.infer_batch(images)
        end = time.perf_counter()
        if self.tracer is not None:
            with self._lock:
                rids = [self._pending[row.tobytes()].popleft() for row in images]
            self.batches.append((start, end, len(images), rids))
        return out


# -- set-up ----------------------------------------------------------------------


def setup(first: np.ndarray, tracer: Tracer, make_tenant: Callable,
          overrides: dict) -> tuple:
    """Empty registries -> load -> compile -> gateway start -> first logits."""
    from repro import zoo
    from repro.serve.gateway import AsyncGateway
    from repro.serve.session import compile_session

    clear_registries()
    with tracer.span("setup") as root:
        with tracer.span("zoo.load", parent=root.id) as load:
            zoo.warm_model(NETWORK)
        with tracer.span("core.compile", parent=root.id) as comp:
            session = compile_session(session_config())
        tenant = make_tenant(session)
        with tracer.span("serve.gateway.start", parent=root.id) as start:
            gateway = AsyncGateway(
                {TENANT: lambda: tenant}, config=gateway_config(**overrides)
            ).start()
        try:
            with tracer.span("first_logits", parent=root.id):
                gateway.infer(first, tenant=TENANT)
        except BaseException:
            gateway.stop(drain=False)
            raise
    parts = {
        "setup_s": tracer.duration(root.id),
        "zoo.load_s": tracer.duration(load.id),
        "core.compile_s": tracer.duration(comp.id),
        "serve.gateway.start_s": tracer.duration(start.id),
    }
    return session, tenant, gateway, parts


# -- traffic -------------------------------------------------------------------------


def _submitter(gateway, tenant, keys, idx):
    """``submit(x, i)`` for request ``i``, which sends ``images[idx[i]]``."""
    traced = getattr(tenant, "tracer", None) is not None

    def submit(x, i):
        if traced:
            tenant.expect(keys[idx[i % len(idx)]], i)
        return gateway.submit(x, tenant=TENANT)

    return submit


def send(gateway, tenant, images, keys, idx, offsets):
    """One open-loop schedule of ``images[idx]`` through the gateway."""
    return run_open_loop(_submitter(gateway, tenant, keys, idx),
                         [images[j] for j in idx], offsets)


def saturate(gateway, tenant, images, keys, order, seconds: float):
    """:data:`CLIENTS` closed-loop callers for ``seconds``, cycling ``order``.

    Returns the run and the image index of every request.
    """
    run = run_closed_loop(_submitter(gateway, tenant, keys, order),
                          [images[j] for j in order], CLIENTS, seconds)
    return run, order[np.arange(run.attempted) % len(order)]


def answered_per_s(run) -> float:
    """Answers per second from the first send to the last answer."""
    return int(run.ok.sum()) / (np.nanmax(run.done) - run.sent.min())


def trial_passes(run) -> bool:
    """SLO met: nothing failed, p99 within the SLO, backlog cleared."""
    if run.failed:
        return False
    return (
        quantile(run.latency_ms(), 0.99) <= SLO_P99_MS
        and run.drain_s() * 1e3 <= SLO_P99_MS
    )


def search_max_rate(gateway, tenant, images, keys, order, rng,
                    budget_s: float) -> tuple:
    """Highest offered rate whose trial met the SLO, by step-then-bisect.

    Starts at the nominal rate and steps by :data:`SEARCH_STEP` until
    one rate passes and one fails, then bisects while the time budget
    lasts.  A failed trial is repeated once before the rate counts as
    failed, so one stall of the shared machine does not end the search.
    Returns ``(rate, trials)``; ``rate`` is the lowest rate tried when no
    trial passed.
    """
    lo = hi = None
    rate = NOMINAL_RPS
    trials = []
    deadline = time.perf_counter() + budget_s

    def trial(rate: float) -> bool:
        n = max(1, int(rate * TRIAL_S))
        idx = order[np.arange(n) % len(order)]
        run = send(gateway, tenant, images, keys, idx,
                   poisson_offsets(rng, rate, n))
        ok = trial_passes(run)
        trials.append({
            "rate": rate,
            "passed": ok,
            "p99_ms": quantile(run.latency_ms(), 0.99),
            "failed": run.failed,
        })
        return ok

    while True:
        ok = trial(rate) or (time.perf_counter() < deadline and trial(rate))
        if ok:
            lo = rate
        else:
            hi = rate
        if time.perf_counter() >= deadline:
            break
        if lo is None:
            rate = rate / SEARCH_STEP
        elif hi is None:
            rate = rate * SEARCH_STEP
        else:
            rate = (lo + hi) / 2
    return (lo if lo is not None else min(t["rate"] for t in trials)), trials


# -- the run --------------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool,
        make_tenant: Optional[Callable] = None,
        gateway_overrides: Optional[dict] = None) -> dict:
    """One serve-n2 run; returns correctness, counts and metrics.

    The untraced run spends its seconds in the closed loop.  The traced
    run splits them in four: the closed loop untraced, the nominal open
    loop, the rate search, and the closed loop with spans.

    ``make_tenant(session)`` builds the gateway's tenant (default: the
    session itself, or the :class:`TracedTenant` wrapper in a traced
    run); ``gateway_overrides`` replace
    :class:`~repro.serve.gateway.GatewayConfig` fields.
    """
    from repro import obs, zoo

    if make_tenant is None:
        make_tenant = TracedTenant if trace else (lambda session: session)
    overrides = gateway_overrides or {}
    data = zoo.get_dataset().test
    images, labels = data.images, data.labels
    keys = [row.tobytes() for row in images]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(images))
    phase_s = seconds / 4 if trace else seconds

    tracer = Tracer()
    gateway = None
    gated = []  # (run, image index of each request): the gate checks these
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            if gateway is not None:
                gateway.stop()
            session, tenant, gateway, parts = setup(
                images[order[0]], tracer, make_tenant, overrides
            )
            setups.append(parts)
        parts = {k: median([p[k] for p in setups]) for k in setups[0]}
        settle()

        closed, closed_idx = saturate(
            gateway, tenant, images, keys, order, phase_s)
        gated.append((closed, closed_idx))
        rss = peak_rss_mb()
        if trace:
            idx = order[np.arange(max(1, round(phase_s * NOMINAL_RPS)))
                        % len(order)]
            nominal = send(gateway, tenant, images, keys, idx,
                           poisson_offsets(rng, NOMINAL_RPS, len(idx)))
            gated.append((nominal, idx))
            max_rate, trials = search_max_rate(
                gateway, tenant, images, keys, order, rng, phase_s)
            tenant.tracer = tracer
            traced, traced_idx = saturate(
                gateway, tenant, images, keys, order, phase_s)
            tenant.tracer = None
            gated.append((traced, traced_idx))
            counters = gateway.stats()["counters"]
            batcher_stats = [
                stats
                for shard in gateway.health()["shards"].values()
                for stats in shard["batchers"].values()
            ]
    finally:
        if gateway is not None:
            gateway.stop()

    # Gate: answers equal inline tile-executed inference, none failed.
    inline = session.infer_batch(images)
    failures: List[str] = []
    for r, idx in gated:
        if r.failed:
            failures.append(
                f"{r.failed} of {r.attempted} requests were refused or failed"
            )
        if r.ok.any() and not np.array_equal(_answers(r), inline[idx[r.ok]]):
            failures.append("gateway answers differ from inline infer_batch")

    with obs.recording() as rec:
        session.infer_batch(images[order])
    power = closedloop.power_metrics(rec, len(order))

    answered = closed.ok
    window_rates, window_cpu_ms = closed.windows()
    e2e = {
        "setup_s": parts["setup_s"],
        "images_per_s": fast_rate(window_rates),
        "cpu_ms_per_image": fast_cost(window_cpu_ms),
        "error_rate": float(np.mean(np.argmax(_answers(closed), axis=1)
                                    != labels[closed_idx[answered]]))
        if answered.any() else 1.0,
        "energy_pj_per_image": power["energy_pj_per_image"],
        "peak_rss_mb": rss,
    }
    result = {
        "failures": failures,
        "attempted": sum(r.attempted for r, _ in gated),
        "failed": sum(r.failed for r, _ in gated),
        "e2e": e2e,
        "detail": {"closed_loop_requests": closed.attempted,
                   "run_images_per_s": answered_per_s(closed),
                   "window_images_per_s": window_rates},
        "config": {"session": session_config(),
                   "gateway": gateway_config(**overrides)},
    }
    if not trace:
        return result

    result["detail"]["search_trials"] = trials
    _request_spans(tracer, traced, tenant.batches)
    # Layer replay of network2 on the inline session.
    for i in range(0, len(order), REPLAY_IMAGES):
        with tracer.span("caller.call", rid=-1 - i) as root:
            closedloop.replay_tiles(
                session, images[order[i:i + REPLAY_IMAGES]],
                tracer, root.id, -1 - i, check=True,
            )
    by_name = tracer.self_ms_by_name()
    batch_ms = [(end - start) * 1e3 for start, end, _, _ in tenant.batches]
    tile = session.config.tile
    fills = [n / (-(-n // tile) * tile) for _, _, n, _ in tenant.batches]
    requests = sum(s["requests"] for s in batcher_stats)
    batches = sum(s["batches"] for s in batcher_stats)
    result["layer"] = {
        "zoo.load_s": parts["zoo.load_s"],
        "core.compile_s": parts["core.compile_s"],
        "serve.gateway.start_s": parts["serve.gateway.start_s"],
        **closedloop.layer_metrics(by_name, tile),
        **{k: v for k, v in power.items() if k != "energy_pj_per_image"},
        "serve.session.infer_batch_ms.p50": quantile(batch_ms, 0.5),
        "serve.session.infer_batch_ms.p99": quantile(batch_ms, 0.99),
        "serve.session.tile_fill": float(np.mean(fills)),
        "serve.batcher.wait_ms.p50": quantile(
            by_name.get("serve.batcher.wait", []), 0.5),
        "serve.batcher.wait_ms.p99": quantile(
            by_name.get("serve.batcher.wait", []), 0.99),
        "serve.batcher.batch_size.mean": requests / batches if batches else 0.0,
        "serve.batcher.queue_depth.max": float(max(
            (s["max_observed_queue_depth"] for s in batcher_stats),
            default=0)),
        "serve.gateway.latency_ms.p50": quantile(nominal.latency_ms(), 0.5),
        "serve.gateway.latency_ms.p99": quantile(nominal.latency_ms(), 0.99),
        "serve.gateway.max_rate_rps": max_rate,
        "serve.gateway.submit_ms.p50": quantile(traced.submit_ms(), 0.5),
        "serve.gateway.submit_ms.p99": quantile(traced.submit_ms(), 0.99),
        "serve.gateway.return_ms.p50": quantile(
            by_name.get("serve.gateway.return", []), 0.5),
        "serve.gateway.rejected": float(sum(
            counters.get(k, 0) for k in
            ("rejected_rate", "rejected_inflight", "shard_backpressure"))),
        "loadgen.lag_ms.p99": quantile(nominal.lag_ms(), 0.99),
        "trace.overhead_frac": answered_per_s(closed)
        / answered_per_s(traced) - 1.0,
    }
    result["tracer"] = tracer
    result["by_name"] = by_name
    return result


def _answers(run) -> np.ndarray:
    """Logits of the answered requests, in request order."""
    return np.array([x for x, ok in zip(run.results, run.ok) if ok])


def _request_spans(tracer: Tracer, run, batches: List[tuple]) -> None:
    """One span tree per traced request, sharing the request's id."""
    batch_of = {}
    for start, end, _, rids in batches:
        for rid in rids:
            batch_of[rid] = (start, end)
    for i, outcome in enumerate(run.outcome):
        if outcome != "ok" or i not in batch_of:
            continue
        start, end = batch_of[i]
        due, sent, submitted, done = (
            run.due[i], run.sent[i], run.submitted[i], run.done[i])
        root = tracer.add("request", due, done, rid=i)
        tracer.add("loadgen.lag", due, sent, root, i)
        tracer.add("serve.gateway.submit", sent, submitted, root, i)
        tracer.add("serve.batcher.wait", submitted, start, root, i)
        tracer.add("serve.session.infer_batch", start, end, root, i)
        tracer.add("serve.gateway.return", end, done, root, i)
