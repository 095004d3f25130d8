"""In-process learning workloads: ``e2-sweep`` and ``store-shard``."""

from __future__ import annotations

import os
import time

import inputs
import layers
from harness import (
    Clock,
    Tracer,
    children_peak_mb,
    median,
    timed,
    vm_hwm_mb,
)

#: Bound and shard count of the store-shard learn.
STORE_BOUND = 4
STORE_WORKERS = 2
#: Bound the layer probes use on the GM case study.
E2_PROBE_BOUND = 16


class E2Sweep:
    """The paper's Section 3.4 experiment: GM learned at every paper bound."""

    name = "e2-sweep"

    def setup(self, seed: int, size: inputs.Size, work) -> None:
        from repro.core.learner import learn_dependencies

        self.bounds = size.bounds
        self.trace = inputs.gm_trace(seed, inputs.GM_PERIODS)
        self.work = work
        # Warm-up: fills the candidate memo for this trace's periods. Its
        # bound-1 model is the target every bound's LUB must equal.
        self.first = learn_dependencies(self.trace, bound=1)

    def close(self) -> None:
        pass

    def _learn(self, bound: int):
        from repro.core.learner import learn_dependencies

        return learn_dependencies(self.trace, bound=bound)

    def _gates(self, ledger) -> None:
        """Bound 1 equals the reference oracle; it is the Lemma's target."""
        from repro.core.reference import learn_bounded_reference

        oracle = learn_bounded_reference(self.trace, 1)
        first = self.first
        ledger.check(
            first.converged and oracle.converged
            and first.unique == oracle.unique,
            "e2-sweep: bound-1 model differs from the reference oracle",
        )
        self.expected = first.lub()

    def _sweep(self, ledger, timer=timed):
        """One learn per bound, timed by *timer*; checks the Lemma on each."""
        seconds, results = {}, {}
        for bound in self.bounds:
            *elapsed, result = timer(lambda b=bound: self._learn(b))
            seconds[bound], results[bound] = elapsed, result
            ledger.check(
                result.lub() == self.expected,
                f"e2-sweep: Lemma violated at bound {bound}",
            )
        return seconds, results

    def measure(self, seconds: float, ledger, say) -> dict:
        self._gates(ledger)
        clock = Clock()
        scaled = {bound: [] for bound in self.bounds}
        raw = {bound: [] for bound in self.bounds}
        started = time.perf_counter()
        sweeps = 0
        while not sweeps or time.perf_counter() - started < seconds:
            per_bound, _ = self._sweep(ledger, clock.measure)
            for bound, (reference, wall) in per_bound.items():
                scaled[bound].append(reference)
                raw[bound].append(wall)
            sweeps += 1
        say(f"sweeps: {sweeps}")
        for bound in self.bounds:
            say(f"  bound {bound:>3}: median learn {median(scaled[bound]):.4f} "
                f"reference s ({median(raw[bound]):.4f} s raw)")
        return {
            "learn_s": sum(median(values) for values in scaled.values()),
            "peak_rss_mb": vm_hwm_mb(),
        }

    def traced(self, ledger, say) -> dict:
        self._gates(ledger)
        clock = Clock()
        plain_wall, _, (_, plain) = clock.measure(lambda: self._sweep(ledger))
        tracer = Tracer()

        def spanned(call):
            with tracer.span("core.learn"):
                return timed(call)

        traced_wall, _, (per_bound, results) = clock.measure(
            lambda: self._sweep(ledger, spanned)
        )
        for bound, (elapsed,) in per_bound.items():
            say(f"  bound {bound:>3}: learn {elapsed:.4f} s, "
                f"{results[bound].merge_count} merges")
        tracer.dump(self.name)
        metrics = _sweep_core(results)
        layers.check_exact(ledger, _sweep_core(plain), metrics)
        metrics["tracing.overhead"] = traced_wall / plain_wall
        metrics.update(layers.probe_all(
            self.trace.tasks, self.trace.periods, E2_PROBE_BOUND,
            self.work, ledger, say, service=True, store=True,
        ))
        return metrics


def _sweep_core(results: dict) -> dict:
    """Core metrics summed over one sweep's results (peak: the largest)."""
    from repro.core.instrumentation import HotLoopCounters

    total = HotLoopCounters()
    for result in results.values():
        total.merge(result.hot_loop)
    return layers.core_metrics(
        total.as_dict(),
        merges=sum(r.merge_count for r in results.values()),
        peak=max(r.peak_hypotheses for r in results.values()),
    )


class StoreShard:
    """Text log -> ``.rts`` store -> sharded pipeline learn of GM."""

    name = "store-shard"

    def setup(self, seed: int, size: inputs.Size, work) -> None:
        from repro.trace.textio import save_trace

        self.work = work
        self.probe_periods = size.probe_periods
        self.trace = inputs.gm_trace(seed, size.store_periods)
        self.log = work / "gm.log"
        self.rts = work / "gm.rts"
        save_trace(self.trace, str(self.log))

    def close(self) -> None:
        pass

    def _gates(self, ledger) -> None:
        """The model learned in memory at the same shard count is the target."""
        from repro.analysis.report import dumps_model
        from repro.core.learner import learn_dependencies

        self.expected = dumps_model(learn_dependencies(
            self.trace, bound=STORE_BOUND, workers=STORE_WORKERS,
        ).lub())
        ledger.ok()

    def _unit(self, ledger, tracer: Tracer | None = None):
        """Ingest then learn; returns ``(ingest s, learn s, PipelineRun)``."""
        from repro.analysis.report import dumps_model

        ingest, learn, run = layers.store_learn(
            self.log, self.rts, STORE_BOUND, STORE_WORKERS, tracer,
        )
        result = run.result
        ledger.check(
            dumps_model(run.model) == self.expected
            and result.periods == len(self.trace.periods)
            and result.messages == self.trace.message_count(),
            "store-shard: the learn from the .rts lost periods or messages, "
            "or its model differs from the in-memory learn",
        )
        return ingest, learn, run

    def measure(self, seconds: float, ledger, say) -> dict:
        self._gates(ledger)
        clock = Clock()
        ingests, learns, scaled, raw = [], [], [], []
        started = time.perf_counter()
        while not scaled or time.perf_counter() - started < seconds:
            reference, wall, (ingest, learn, _) = clock.measure(
                lambda: self._unit(ledger)
            )
            ingests.append(ingest)
            learns.append(learn)
            scaled.append(reference)
            raw.append(wall)
        say(f"units: {len(scaled)}; raw medians: ingest {median(ingests):.4f} s, "
            f"learn {median(learns):.4f} s, unit {median(raw):.4f} s")
        return {
            "learn_s": median(scaled),
            "peak_rss_mb": vm_hwm_mb() + children_peak_mb(),
        }

    def traced(self, ledger, say) -> dict:
        self._gates(ledger)
        clock = Clock()
        plain_wall, _, (_, _, plain) = clock.measure(lambda: self._unit(ledger))
        plain_counts = layers.result_counts(plain.result)
        plain_counts["trace.store_bytes"] = os.path.getsize(self.rts)
        tracer = Tracer()
        traced_wall, _, (_, learn, run) = clock.measure(
            lambda: self._unit(ledger, tracer)
        )
        tracer.dump(self.name)
        metrics = layers.store_metrics(
            tracer, self.rts, run, STORE_WORKERS, learn,
        )
        metrics.update(layers.result_counts(run.result))
        layers.check_exact(ledger, plain_counts, metrics)
        metrics["tracing.overhead"] = traced_wall / plain_wall
        head = self.trace.periods[: self.probe_periods]
        metrics.update(layers.probe_all(
            self.trace.tasks, head, STORE_BOUND, self.work, ledger, say,
            service=True, store=False,
        ))
        return metrics
