"""Thread/task-safety of the shared resilience primitives.

The ingest service interleaves many tenant tasks (and the stats server,
and tests' helper threads) over :class:`DeadLetterQueue` and
:class:`ShedPolicy`.  Conservation accounting is only meaningful if these counters stay exact under that
interleaving — so these tests hammer them from real threads (a strictly
stronger schedule than asyncio task interleaving) and assert the counts
partition perfectly.
"""

import threading

from repro.core.rules import get_ruleset
from repro.core.tagging import Tagger
from repro.logmodel.record import LogRecord
from repro.resilience.backpressure import KEEP, SHED, SPILL, PressureLevel
from repro.resilience.deadletter import DeadLetterQueue
from repro.resilience.shedding import ShedPolicy

THREADS = 8
PER_THREAD = 2000


def run_threads(target):
    threads = [
        threading.Thread(target=target, args=(i,)) for i in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def make_record(i):
    return LogRecord(
        timestamp=float(i), source=f"n{i % 7}", facility="kernel",
        body=f"message {i}", system="liberty",
    )


class TestDeadLetterQueueConcurrency:
    def test_counters_exact_under_concurrent_puts_with_eviction(self):
        """Eviction churn from many threads: quarantined, by_reason, and
        evicted_counts stay an exact partition."""
        queue = DeadLetterQueue(capacity=64)
        reasons = ("alpha", "beta", "gamma")

        def worker(tid):
            for i in range(PER_THREAD):
                queue.put(make_record(i), reasons[(tid + i) % 3])

        run_threads(worker)
        total = THREADS * PER_THREAD
        assert queue.quarantined == total
        assert sum(queue.by_reason.values()) == total
        assert queue.evicted == total - queue.capacity
        assert sum(queue.evicted_counts.values()) == queue.evicted
        assert len(queue) == queue.capacity
        # Retained letters + evicted letters == everything quarantined.
        retained_by_reason = {}
        for letter in queue:
            retained_by_reason[letter.reason] = (
                retained_by_reason.get(letter.reason, 0) + 1
            )
        for reason in reasons:
            assert (
                retained_by_reason.get(reason, 0)
                + queue.evicted_counts.get(reason, 0)
                == queue.by_reason[reason]
            )

    def test_snapshots_are_internally_consistent_mid_hammer(self):
        """A snapshot taken while writers run must be *some* consistent
        state, never a torn one (letters/quarantined/evicted agreeing)."""
        queue = DeadLetterQueue(capacity=32)
        stop = threading.Event()
        torn = []

        def writer(tid):
            for i in range(PER_THREAD):
                queue.put(make_record(i), f"r{tid % 2}")
            stop.set()

        def observer():
            while not stop.is_set():
                snap = queue.snapshot()
                if (
                    snap.quarantined - snap.evicted != len(snap.letters)
                    or sum(dict(snap.by_reason).values()) != snap.quarantined
                    or sum(dict(snap.evicted_counts).values()) != snap.evicted
                ):
                    torn.append(snap)

        watcher = threading.Thread(target=observer)
        watcher.start()
        run_threads(writer)
        watcher.join()
        assert not torn

    def test_restore_during_puts_leaves_consistent_state(self):
        queue = DeadLetterQueue(capacity=16)
        base = queue.snapshot()

        def writer(tid):
            for i in range(200):
                queue.put(make_record(i), "x")

        def restorer(tid):
            for _ in range(50):
                queue.restore(base)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        threads += [threading.Thread(target=restorer, args=(i,))
                    for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = queue.snapshot()
        assert snap.quarantined - snap.evicted == len(snap.letters)
        assert sum(dict(snap.by_reason).values()) == snap.quarantined


class TestShedPolicyConcurrency:
    def test_decide_is_safe_and_total_under_concurrent_tenants(self):
        """Many threads sharing one policy: every decision is a valid
        verb and nothing raises; duplicate state stays a sane dict."""
        tagger = Tagger(get_ruleset("liberty"))
        policy = ShedPolicy("priority", dedup_window=5.0)
        decisions = [[] for _ in range(THREADS)]

        def worker(tid):
            for i in range(PER_THREAD):
                record = make_record(tid * PER_THREAD + i)
                level = PressureLevel(i % 3)
                decisions[tid].append(
                    policy.decide(record, level, tagger.tag(record))[0]
                )

        run_threads(worker)
        flat = [d for sub in decisions for d in sub]
        assert len(flat) == THREADS * PER_THREAD
        assert set(flat) <= {KEEP, SHED, SPILL}
        state = policy.state_dict()
        assert all(isinstance(v, float) for v in state.values())

    def test_state_dict_round_trip_during_decides(self):
        tagger = Tagger(get_ruleset("liberty"))
        policy = ShedPolicy("priority", dedup_window=5.0)
        stop = threading.Event()
        errors = []

        def decider(tid):
            for i in range(PER_THREAD):
                record = make_record(i)
                policy.decide(record, PressureLevel.CRITICAL, tagger.tag(record))
            stop.set()

        def checkpointer():
            while not stop.is_set():
                try:
                    policy.load_state_dict(policy.state_dict())
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)

        watcher = threading.Thread(target=checkpointer)
        watcher.start()
        run_threads(decider)
        watcher.join()
        assert not errors
