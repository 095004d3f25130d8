"""Session-daemon workloads: ``session-stream`` and ``session-churn``.

The daemon (``repro serve``) runs in its own process; its output is
drained by a thread so log lines can never fill the pipe and stall it.
Load comes from this process: two client connections, one thread each,
in a closed loop (each caller waits for its ack before the next op, as
real callers do). Probes such as the ``stats`` round trip ride those
same connections. Every op has a timeout, and a watchdog kills the
daemon if a round outlives its deadline, so no run can hang.
"""

from __future__ import annotations

import collections
import os
import queue
import subprocess
import sys
import threading
import time

import inputs
import layers
from harness import (
    SRC,
    Clock,
    Tracer,
    median,
    percentile,
    vm_hwm_mb,
)

#: Hypothesis bound of every session.
SESSION_BOUND = 8
#: A query follows every this many appends in session-stream.
QUERY_EVERY = 10
#: A ``stats`` round trip follows every this many appends in traced rounds.
RTT_EVERY = 25
#: Append latencies the traced run collects, so p99 has 10 beyond it.
P99_SAMPLES = 1000
#: Client connections (the host has 2 CPUs).
CONNECTIONS = 2
#: Seconds one op may take before it counts as failed.
OP_TIMEOUT = 10.0
#: Seconds one round may take before the watchdog kills the daemon.
ROUND_TIMEOUT = 90.0
#: Seconds to wait for a daemon to listen, or to exit after shutdown.
DAEMON_TIMEOUT = 30.0


class Daemon:
    """A ``repro serve`` process on an ephemeral loopback port."""

    def __init__(self, work, max_live: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env.pop("REPRO_CHAOS", None)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "tcp://127.0.0.1:0",
                "--max-live", str(max_live),
                "--spool-dir", str(work / "spool"),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.lines: collections.deque[str] = collections.deque(maxlen=20)
        self._address: queue.Queue[str] = queue.Queue()
        self._drain = threading.Thread(
            target=self._read, name="daemon-drain", daemon=True
        )
        self._drain.start()
        try:
            self.address = self._address.get(timeout=DAEMON_TIMEOUT)
        except queue.Empty:
            self.kill()
            raise RuntimeError(
                "daemon did not start listening: " + " | ".join(self.lines)
            ) from None

    def _read(self) -> None:
        marker = "serving on "
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            self.lines.append(line)
            if marker in line:
                self._address.put(line.split(marker, 1)[1].strip())

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=DAEMON_TIMEOUT)
        self._drain.join(timeout=DAEMON_TIMEOUT)

    def stop(self, client=None) -> None:
        """Shut down through the ``shutdown`` op; kill if that fails."""
        from repro.service import ServiceClient

        try:
            if client is None:
                client = ServiceClient(self.address, timeout=OP_TIMEOUT)
                client.connect()
            client.shutdown_daemon()
            self.proc.wait(timeout=DAEMON_TIMEOUT)
        except (OSError, EOFError, subprocess.TimeoutExpired):
            pass
        finally:
            if client is not None:
                client.close()
            self.kill()


def _reference_model(tasks, periods, bound: int = SESSION_BOUND) -> str:
    """A session's expected model: the batch learner fed the same periods."""
    from repro.analysis.report import dumps_model
    from repro.core.learner import make_learner

    learner = make_learner(tasks, bound=bound)
    for period in periods:
        learner.feed(period)
    return dumps_model(learner.result().lub())


class Round:
    """Latencies, wall time and learner facts of one round of traffic."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.appends: list[float] = []
        self.queries: list[float] = []
        self.opens: list[float] = []
        self.rtts: list[float] = []
        self.merges = 0
        self.peak = 0
        self.periods = 0

    def add(self, other: "Round") -> None:
        """Pool *other*'s samples and counts into this round (not its wall)."""
        self.appends += other.appends
        self.queries += other.queries
        self.opens += other.opens
        self.rtts += other.rtts
        self.merges += other.merges
        self.peak = max(self.peak, other.peak)
        self.periods += other.periods


class _Connection:
    """One client connection's share of a round, run on its own thread."""

    def __init__(self, client, sessions, mode, ledger, tracer, profile) -> None:
        self.client = client
        self.sessions = sessions  # [(session id, tasks, periods, expected)]
        self.mode = mode
        self.ledger = ledger
        self.tracer = tracer
        self.profile = profile
        self.facts = Round()
        self.appended = 0

    def _op(self, kind: str, call, samples: list[float] | None):
        started = time.perf_counter()
        if self.tracer is None:
            result = call()
        else:
            with self.tracer.span(f"service.{kind}"):
                result = call()
        elapsed = time.perf_counter() - started
        if samples is not None:
            samples.append(elapsed)
        if elapsed > OP_TIMEOUT:
            self.ledger.fail(f"{kind} took {elapsed:.1f} s (timeout {OP_TIMEOUT} s)")
        else:
            self.ledger.ok()
        return result

    def _append(self, period) -> None:
        facts = self.facts
        self._op("append", lambda: self.client.append_periods([period]),
                 facts.appends)
        facts.periods += 1
        self.appended += 1
        if self.profile and self.appended % RTT_EVERY == 0:
            self._rtt()

    def _rtt(self) -> None:
        """A ``stats`` op: framing and dispatch with no learning."""
        self._op("stats", self.client.daemon_stats, self.facts.rtts)

    def _finish(self, session_id, tasks, periods, expected) -> None:
        client, facts = self.client, self.facts
        if self.mode == "churn":
            self._op("open", lambda: client.open_session(
                session_id, tasks, bound=SESSION_BOUND), facts.opens)
            self._op("query", client.query_model, facts.queries)
        if self.profile:
            learn = self._op("profile", client.profile, None)["learn"]
            facts.merges += int(learn["merge_count"])
            facts.peak = max(facts.peak, int(learn["peak_hypotheses"]))
        closed = self._op("close", client.close_session, None)
        self.ledger.check(
            closed["model_json"] == expected
            and closed["periods"] == len(periods),
            f"session {session_id}: {closed['periods']} of {len(periods)} "
            "periods absorbed, or the model differs from the batch learner "
            "fed the same periods",
        )

    def run(self) -> None:
        try:
            if self.mode == "stream":
                self._stream()
            else:
                self._churn()
            if self.profile:
                self._rtt()
        except Exception as error:  # noqa: BLE001 - counted, run continues
            self.ledger.fail(f"{type(error).__name__}: {error}")

    def _stream(self) -> None:
        client, facts = self.client, self.facts
        for session_id, tasks, periods, expected in self.sessions:
            self._op("open", lambda: client.open_session(
                session_id, tasks, bound=SESSION_BOUND), facts.opens)
            for count, period in enumerate(periods, start=1):
                self._append(period)
                if count % QUERY_EVERY == 0:
                    self._op("query", client.query_model, facts.queries)
            self._finish(session_id, tasks, periods, expected)

    def _churn(self) -> None:
        client, facts = self.client, self.facts
        length = max(len(periods) for _, _, periods, _ in self.sessions)
        for step in range(length):
            for session_id, tasks, periods, _ in self.sessions:
                if step >= len(periods):
                    continue
                self._op("open", lambda: client.open_session(
                    session_id, tasks, bound=SESSION_BOUND), facts.opens)
                self._append(periods[step])
        for session_id, tasks, periods, expected in self.sessions:
            self._finish(session_id, tasks, periods, expected)


def run_round(daemon, clients, groups, mode, ledger, tracer=None,
              profile=False) -> Round:
    """Drive one round: connection *k* streams the sessions in ``groups[k]``."""
    connections = [
        _Connection(client, group, mode, ledger, tracer, profile)
        for client, group in zip(clients, groups)
    ]
    threads = [
        threading.Thread(target=conn.run, name=f"client-{index}")
        for index, conn in enumerate(connections)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    deadline = started + ROUND_TIMEOUT
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.perf_counter()))
    if any(thread.is_alive() for thread in threads):
        ledger.fail(f"round outlived {ROUND_TIMEOUT} s; daemon killed")
        daemon.kill()
        for thread in threads:
            thread.join(timeout=2 * OP_TIMEOUT + DAEMON_TIMEOUT)
    facts = Round()
    facts.wall = time.perf_counter() - started
    for conn in connections:
        facts.add(conn.facts)
    return facts


def service_metrics(facts: Round, before: dict, after: dict,
                    reconnects: int) -> dict:
    """Service and core metrics of one traced round."""
    delta = layers.hot_loop_delta(before["hot_loop"], after["hot_loop"])
    feed = layers.busy_seconds(delta)
    metrics = {
        "service.rtt_ms_p50": 1e3 * median(facts.rtts),
        "service.append_ms_p50": 1e3 * percentile(facts.appends, 50),
        "service.append_ms_p99": 1e3 * percentile(facts.appends, 99),
        "service.query_ms_p50": 1e3 * median(facts.queries),
        "service.open_ms_p50": 1e3 * median(facts.opens),
        "service.feed_s": feed,
        "service.busy_share": feed / facts.wall,
        "service.appends": int(delta["session_appends"]),
        "service.duplicates": int(delta["session_duplicates"]),
        "service.feed_errors": int(delta["session_feed_errors"]),
        "service.queue_peak": int(after["hot_loop"]["session_queue_peak"]),
        "service.reconnects": reconnects,
        "service.evictions": int(delta["sessions_evicted"]),
        "service.resumes": int(delta["sessions_resumed"]),
    }
    metrics.update(layers.core_metrics(delta, facts.merges, facts.peak))
    return metrics


class _SessionWorkload:
    """Shared set-up and measurement of the two session workloads."""

    mode = "stream"
    max_live = 64

    def setup(self, seed: int, size: inputs.Size, work) -> None:
        from repro.service import ServiceClient

        self.work = work
        count = CONNECTIONS * size.sessions_per_connection
        self.traces = inputs.session_traces(seed, count, size.session_periods)
        self.daemon = Daemon(work, self.max_live)
        self.clients = []
        for index in range(CONNECTIONS):
            client = ServiceClient(
                self.daemon.address, name=f"bench-{index}", timeout=OP_TIMEOUT
            )
            client.connect()
            self.clients.append(client)
        # Warm-up: the daemon's first session imports the learner stack.
        for index, client in enumerate(self.clients):
            trace = self.traces[index]
            client.open_session(f"warm-{index}", trace.tasks, bound=SESSION_BOUND)
            client.append_periods(trace.periods[:1])
            client.close_session()
        self.rounds = 0

    def close(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is not None:
            clients = self.clients
            for client in clients[1:]:
                client.close()
            daemon.stop(clients[0] if clients else None)
            self.daemon = None

    def _groups(self):
        """Sessions of the next round, one list per connection."""
        self.rounds += 1
        sessions = [
            (f"r{self.rounds}-s{index}", trace.tasks, trace.periods,
             self.expected[index])
            for index, trace in enumerate(self.traces)
        ]
        return [sessions[k::CONNECTIONS] for k in range(CONNECTIONS)]

    def _gates(self) -> None:
        self.expected = [
            _reference_model(trace.tasks, trace.periods) for trace in self.traces
        ]

    def measure(self, seconds: float, ledger, say) -> dict:
        self._gates()
        clock = Clock()
        scaled, raw, appends, queries, opens = [], [], [], [], []
        periods = 0
        started = time.perf_counter()
        while not scaled or time.perf_counter() - started < seconds:
            failed = ledger.failed
            reference, wall, facts = clock.measure(lambda: run_round(
                self.daemon, self.clients, self._groups(), self.mode, ledger,
            ))
            scaled.append(reference)
            raw.append(wall)
            appends += facts.appends
            queries += facts.queries
            opens += facts.opens
            periods = facts.periods
            if ledger.failed > failed and self.daemon.proc.poll() is not None:
                break
        say(f"rounds: {len(scaled)} x {periods} periods; raw median round "
            f"{median(raw):.4f} s, {periods / median(raw):.1f} periods/s")
        say(f"append ms p50 {1e3 * percentile(appends, 50):.3f} "
            f"p99 {1e3 * percentile(appends, 99):.3f} ({len(appends)} samples); "
            f"query ms p50 {1e3 * median(queries):.3f} ({len(queries)}); "
            f"open ms p50 {1e3 * median(opens):.3f} ({len(opens)})")
        return {
            "learn_s": median(scaled),
            "peak_rss_mb": self.daemon.peak_rss_mb(),
        }

    def traced(self, ledger, say) -> dict:
        """An untraced round, then traced rounds until p99 has its samples.

        Counts come from the first traced round and must equal the
        untraced round's; latencies and busy time pool every traced round.
        """
        self._gates()
        client = self.clients[0]
        clock = Clock()
        start = client.daemon_stats()
        plain_wall, _, plain = clock.measure(lambda: run_round(
            self.daemon, self.clients, self._groups(), self.mode, ledger,
            profile=True,
        ))
        before = client.daemon_stats()
        reconnects = sum(c.reconnects for c in self.clients)
        tracer = Tracer()
        first_wall, _, first = clock.measure(lambda: run_round(
            self.daemon, self.clients, self._groups(), self.mode, ledger,
            tracer, profile=True,
        ))
        middle = client.daemon_stats()
        facts = Round()
        facts.add(first)
        facts.wall = first.wall
        while len(facts.appends) < P99_SAMPLES and facts.wall < ROUND_TIMEOUT:
            more = run_round(self.daemon, self.clients, self._groups(),
                             self.mode, ledger, tracer, profile=True)
            facts.add(more)
            facts.wall += more.wall
        after = client.daemon_stats()
        tracer.dump(self.name)
        reconnects = sum(c.reconnects for c in self.clients) - reconnects
        say(f"traced rounds: {len(facts.appends)} appends, "
            f"{len(facts.queries)} queries, {len(facts.opens)} opens, "
            f"{len(facts.rtts)} stats round trips")
        metrics = service_metrics(facts, before, after, reconnects)
        counts = service_metrics(first, before, middle, reconnects)
        plain_counts = service_metrics(plain, start, before, 0)
        layers.check_exact(ledger, plain_counts, counts)
        metrics.update(layers.exact_counts(counts))
        metrics["tracing.overhead"] = first_wall / plain_wall
        trace = self.traces[0]
        metrics.update(layers.probe_all(
            trace.tasks, trace.periods, SESSION_BOUND, self.work, ledger, say,
            service=False, store=True,
        ))
        return metrics


class SessionStream(_SessionWorkload):
    """Sessions streamed one after another per connection; nothing evicted."""

    name = "session-stream"
    mode = "stream"
    max_live = 64


class SessionChurn(_SessionWorkload):
    """Round-robin appends against ``--max-live 4``: every open resumes."""

    name = "session-churn"
    mode = "churn"
    max_live = 4


def service_probe(tasks, periods, bound, work, ledger, say) -> dict:
    """The service layer's metrics on a non-session workload's periods.

    One daemon, one connection, one session streaming the periods one
    per append, with the session-stream query cadence; then the session
    is evicted and re-opened once, so the open and resume paths run too.
    """
    from repro.service import ServiceClient

    daemon = Daemon(work, max_live=64)
    client = None
    try:
        client = ServiceClient(daemon.address, name="probe", timeout=OP_TIMEOUT)
        client.connect()
        expected = _reference_model(tasks, periods, bound)
        before = client.daemon_stats()
        conn = _Connection(client, [], "stream", ledger, Tracer(), True)
        started = time.perf_counter()
        conn._op("open", lambda: client.open_session(
            "probe", tasks, bound=bound), conn.facts.opens)
        for count, period in enumerate(periods, start=1):
            conn._append(period)
            if count % QUERY_EVERY == 0:
                conn._op("query", client.query_model, conn.facts.queries)
        conn._op("evict", client.evict_session, None)
        conn._op("open", lambda: client.open_session(
            "probe", tasks, bound=bound), conn.facts.opens)
        conn._op("query", client.query_model, conn.facts.queries)
        learn = conn._op("profile", client.profile, None)["learn"]
        conn.facts.merges = int(learn["merge_count"])
        conn.facts.peak = int(learn["peak_hypotheses"])
        closed = conn._op("close", client.close_session, None)
        conn.facts.wall = time.perf_counter() - started
        ledger.check(
            closed["model_json"] == expected
            and closed["periods"] == len(periods),
            "service probe: periods lost, or the streamed model differs "
            "from the batch learner fed the same periods",
        )
        conn._rtt()
        after = client.daemon_stats()
        say(f"service probe: {len(periods)} appends at bound {bound}")
        metrics = service_metrics(conn.facts, before, after, client.reconnects)
    finally:
        daemon.stop(client)
    return {k: v for k, v in metrics.items() if k.startswith("service.")}

