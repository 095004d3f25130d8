"""Per-layer measurements for the traced run.

Each workload's traced run reports every metric in :data:`PER_LAYER`.
A layer the workload passes through is measured on the workload's own
traced pass. A layer it does not pass through is run by a probe here,
on the workload's own inputs, and all of that layer's metrics come from
the probe. So each metric has one meaning on every workload: what that
layer does and costs on this input. The feed, framing and checkpoint
metrics always come from probes: they time single calls that the
workload's pass makes inside worker or daemon processes.
"""

from __future__ import annotations

import json
import os
import time

from harness import Tracer, median, percentile

#: ``(name, unit)`` of every per-layer metric, in report order. The
#: comment above each group names the end-to-end metric and workload a
#: change to that layer should move.
PER_LAYER = (
    # Kernel: learn_s on e2-sweep; learn_s on session-stream through the
    # fixed per-message cost of small pools.
    ("core.process_s", "s"),
    ("core.stats_s", "s"),
    ("core.refresh_s", "s"),
    ("core.post_s", "s"),
    ("core.candidates_s", "s"),
    ("core.feed_ms_p50", "ms"),
    ("core.feed_ms_p99", "ms"),
    ("core.messages", "count"),
    ("core.candidates_total", "count"),
    ("core.children", "count"),
    ("core.merges", "count"),
    ("core.reassignments", "count"),
    ("core.peak_pool", "count"),
    ("core.merge_ratio", "ratio"),
    # Store writer and mmap reader: learn_s on store-shard; none on e2-sweep.
    ("trace.store_bytes", "bytes"),
    ("trace.ingest_s", "s"),
    ("trace.writer_s", "s"),
    ("trace.store_open_s", "s"),
    ("trace.materialize_s", "s"),
    # Pipeline stages and the shard runtime: learn_s on store-shard.
    ("pipeline.ingest_s", "s"),
    ("pipeline.validate_s", "s"),
    ("pipeline.learn_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.busy_s", "s"),
    ("shard.efficiency", "ratio"),
    ("shard.failures", "count"),
    ("shard.retries", "count"),
    ("shard.pool_rebuilds", "count"),
    # Dispatch, queueing and feed handoff: learn_s on session-stream.
    ("service.rtt_ms_p50", "ms"),
    ("service.append_ms_p50", "ms"),
    ("service.append_ms_p99", "ms"),
    ("service.query_ms_p50", "ms"),
    ("service.open_ms_p50", "ms"),
    ("service.feed_s", "s"),
    ("service.busy_share", "ratio"),
    ("service.appends", "count"),
    ("service.duplicates", "count"),
    ("service.feed_errors", "count"),
    ("service.queue_peak", "count"),
    ("service.reconnects", "count"),
    # Eviction and resume: learn_s on session-churn; zero on session-stream.
    ("service.evictions", "count"),
    ("service.resumes", "count"),
    # Wire codec: learn_s on both session workloads; none on e2-sweep.
    ("framing.append_frame_bytes", "bytes"),
    ("framing.encode_us", "us"),
    ("framing.decode_us", "us"),
    # Checkpoint codec: learn_s on session-churn; none on session-stream.
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    # Traced pass wall time over the untraced pass of the same work.
    ("tracing.overhead", "ratio"),
)
UNITS = dict(PER_LAYER)

#: Counters that must read the same on every run of one code and seed
#: (and with tracing on or off). The benchmark checks them and names
#: any that differ. Evictions and resumes are left out: with two
#: connections the daemon's LRU victim depends on how their ops
#: interleave, and one round in a few dozen evicts one session more.
EXACT_COUNTS = (
    "core.messages",
    "core.candidates_total",
    "core.children",
    "core.merges",
    "core.reassignments",
    "core.peak_pool",
    "service.appends",
    "service.duplicates",
    "service.feed_errors",
    "shard.failures",
    "shard.retries",
    "shard.pool_rebuilds",
    "trace.store_bytes",
    "framing.append_frame_bytes",
)


def exact_counts(metrics: dict) -> dict:
    return {key: metrics[key] for key in EXACT_COUNTS if key in metrics}


def check_exact(ledger, first: dict, second: dict) -> None:
    """Exact counters must agree between two passes over the same input."""
    first, second = exact_counts(first), exact_counts(second)
    differing = sorted(key for key in first if first[key] != second.get(key))
    ledger.check(
        not differing,
        "exact counters differ between passes: " + ", ".join(
            f"{key} {first[key]} != {second.get(key)}" for key in differing
        ),
    )


PHASES = (
    ("core.process_s", "process_seconds"),
    ("core.stats_s", "stats_seconds"),
    ("core.refresh_s", "refresh_seconds"),
    ("core.post_s", "post_seconds"),
)


def core_metrics(hot_loop: dict, merges: int, peak: int) -> dict:
    """Kernel phase seconds and counts from a ``HotLoopCounters.as_dict``."""
    children = int(hot_loop["batch_children"])
    metrics = {name: float(hot_loop[field]) for name, field in PHASES}
    metrics.update({
        "core.messages": int(hot_loop["messages"]),
        "core.candidates_total": int(hot_loop["candidates_total"]),
        "core.children": children,
        "core.merges": int(merges),
        "core.reassignments": int(hot_loop["reassignments"]),
        "core.peak_pool": int(peak),
        "core.merge_ratio": merges / children if children else 0.0,
    })
    return metrics


def shard_counts(hot_loop: dict) -> dict:
    return {
        "shard.failures": int(hot_loop["shard_failures"]),
        "shard.retries": int(hot_loop["shard_retries"]),
        "shard.pool_rebuilds": int(hot_loop["pool_rebuilds"]),
    }


def result_counts(result) -> dict:
    """Core metrics plus shard-runtime counts of one ``LearningResult``."""
    hot_loop = result.hot_loop.as_dict()
    metrics = core_metrics(hot_loop, result.merge_count, result.peak_hypotheses)
    metrics.update(shard_counts(hot_loop))
    return metrics


def hot_loop_delta(before: dict, after: dict) -> dict:
    """Counter growth between two daemon ``stats`` snapshots."""
    return {
        key: after[key] - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, (int, float))
    }


def busy_seconds(hot_loop: dict) -> float:
    return sum(float(hot_loop[field]) for _, field in PHASES)


# -- probes on the workload's own inputs -------------------------------------


def feed_probe(tasks, periods, bound: int) -> tuple[dict, int]:
    """Per-period ``feed`` latency and time in ``candidate_pairs``.

    Returns the metrics and the number of feeds timed.

    ``candidate_pairs`` is spanned where the batch kernel module looks it
    up, so the span sees exactly the kernel's calls.
    """
    import repro.core.batch as kernel_module
    from repro.core.candidates import clear_candidate_cache
    from repro.core.learner import make_learner

    clear_candidate_cache()
    tracer = Tracer()
    tracer.wrap(kernel_module, "candidate_pairs", "core.candidate_pairs")
    learner = make_learner(tasks, bound=bound)
    samples = []
    try:
        for period in periods:
            started = time.perf_counter()
            learner.feed(period)
            samples.append(time.perf_counter() - started)
    finally:
        tracer.unwrap_all()
    return {
        "core.candidates_s": tracer.total("core.candidate_pairs"),
        "core.feed_ms_p50": 1e3 * percentile(samples, 50),
        "core.feed_ms_p99": 1e3 * percentile(samples, 99),
    }, len(samples)


def framing_probe(periods) -> dict:
    """Encode and decode the workload's own one-period append frames."""
    from repro.distributed.framing import decode_frame, encode_frame
    from repro.service import ops

    payloads = [ops.append_op("probe", seq, [period])
                for seq, period in enumerate(periods, start=1)]
    frames = [encode_frame(payload) for payload in payloads]
    encode, decode = [], []
    for _ in range(5):
        started = time.perf_counter()
        for payload in payloads:
            encode_frame(payload)
        encode.append(time.perf_counter() - started)
        started = time.perf_counter()
        for frame in frames:
            decode_frame(frame)
        decode.append(time.perf_counter() - started)
    return {
        "framing.append_frame_bytes": sum(len(frame) for frame in frames),
        "framing.encode_us": 1e6 * median(encode) / len(payloads),
        "framing.decode_us": 1e6 * median(decode) / len(frames),
    }


def checkpoint_probe(tasks, periods, bound: int) -> dict:
    """Save and load a checkpoint of a learner shaped like the workload's."""
    from repro.core.batch import resolve_kernel
    from repro.core.checkpoint import checkpoint_from_dict, checkpoint_to_dict
    from repro.core.learner import make_learner

    learner = make_learner(tasks, bound=bound)
    learner.feed_trace(periods)
    kernel = resolve_kernel("auto")
    save, load = [], []
    text = ""
    for _ in range(7):
        started = time.perf_counter()
        text = json.dumps(checkpoint_to_dict(learner))
        save.append(time.perf_counter() - started)
        started = time.perf_counter()
        checkpoint_from_dict(json.loads(text), kernel=kernel)
        load.append(time.perf_counter() - started)
    return {
        "checkpoint.bytes": len(text.encode("utf-8")),
        "checkpoint.save_ms": 1e3 * median(save),
        "checkpoint.load_ms": 1e3 * median(load),
    }


# -- the store path: text log -> .rts -> sharded pipeline learn --------------


def store_learn(log_path, rts_path, bound: int, workers: int,
                tracer: Tracer | None = None):
    """Ingest a text log into a store, then learn from the store.

    Returns ``(ingest seconds, learn seconds, PipelineRun)``. With a
    *tracer*, the store writer, the ingest, the pipeline and the shard
    merge are spanned.
    """
    import repro.core.sharded as sharded
    from repro.pipeline import PipelineConfig, run_pipeline
    from repro.pipeline.ingest import ingest_to_store
    from repro.trace.store import TraceStoreWriter

    if tracer is not None:
        tracer.wrap(TraceStoreWriter, "add_period", "trace.writer")
        tracer.wrap(TraceStoreWriter, "finalize", "trace.writer")
        tracer.wrap(sharded, "merge_outcomes", "shard.merge_outcomes")
    try:
        if os.path.exists(rts_path):
            os.remove(rts_path)
        started = time.perf_counter()
        if tracer is not None:
            with tracer.span("trace.ingest"):
                ingest_to_store(str(log_path), str(rts_path))
        else:
            ingest_to_store(str(log_path), str(rts_path))
        ingested = time.perf_counter()
        run = run_pipeline(PipelineConfig(
            source=str(rts_path), bound=bound, workers=workers, validate=True,
        ))
        learned = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    return ingested - started, learned - ingested, run


def store_metrics(tracer: Tracer, rts_path, run, workers: int,
                  learn_seconds: float) -> dict:
    """trace, pipeline and shard metrics of one traced :func:`store_learn`."""
    from repro.trace.store import TraceStore

    started = time.perf_counter()
    store = TraceStore(str(rts_path))
    opened = time.perf_counter()
    view = store.periods()
    for index in range(len(view)):
        view[index]
    materialized = time.perf_counter()
    size = store.info()["bytes"]
    del view
    store.close()

    hot_loop = run.result.hot_loop.as_dict()
    busy = busy_seconds(hot_loop)
    metrics = {
        "trace.store_bytes": int(size),
        "trace.ingest_s": tracer.total("trace.ingest"),
        "trace.writer_s": tracer.total("trace.writer"),
        "trace.store_open_s": opened - started,
        "trace.materialize_s": materialized - opened,
        "pipeline.ingest_s": run.stage_seconds("ingest"),
        "pipeline.validate_s": run.stage_seconds("validate"),
        "pipeline.learn_s": run.stage_seconds("learn"),
        "shard.merge_s": tracer.total("shard.merge_outcomes"),
        "shard.busy_s": busy,
        "shard.efficiency": busy / (workers * learn_seconds),
    }
    metrics.update(shard_counts(hot_loop))
    return metrics


def store_probe(tasks, periods, bound: int, work) -> dict:
    """The store path's metrics on the workload's own periods."""
    from repro.trace.textio import save_trace
    from repro.trace.trace import Trace

    log_path, rts_path = work / "probe.log", work / "probe.rts"
    save_trace(Trace(tasks, list(periods)), str(log_path))
    tracer = Tracer()
    _, learn_seconds, run = store_learn(log_path, rts_path, bound, 2, tracer)
    return store_metrics(tracer, rts_path, run, 2, learn_seconds)


def probe_all(tasks, periods, bound: int, work, ledger, say, *,
              service: bool, store: bool) -> dict:
    """Probes for the layers a workload does not pass through itself."""
    metrics = {}
    feed, samples = feed_probe(tasks, periods, bound)
    say(f"feed probe: {samples} per-period feeds at bound {bound}")
    metrics.update(feed)
    metrics.update(framing_probe(periods))
    metrics.update(checkpoint_probe(tasks, periods, bound))
    if store:
        metrics.update(store_probe(tasks, periods, bound, work))
    if service:
        import service_workloads

        metrics.update(service_workloads.service_probe(
            tasks, periods, bound, work, ledger, say,
        ))
    return metrics
