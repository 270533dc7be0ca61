"""The batch kernel, and the bounded pump, against the per-record
reference.

:meth:`AlertPath.process_batch` is the only batch shape the drivers
have, so one differential carries the whole contract: for *any*
partition of a stream — size-1 batches, cuts that land on checkpoint
barriers, one batch for everything — and for either source of the tag
outcome (matched in process, or handed in as a worker pool would hand
it), the kernel must leave the path exactly where the
``admit``/``process`` loop leaves it: same result, same ``consumed``,
and the same dead letters *in the same order*.

The bounded driver feeds that kernel a verdict it computed at arrival
and carried through its queue, so the same differential — faults
included, both tag seams — holds it to the reference too, and a counting
tagger pins that the verdict is the only match a record ever gets.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.rules import get_ruleset
from repro.core.tagging import Tagger
from repro.engine.drivers import SERIAL_BATCH_SIZE, BoundedDriver
from repro.engine.path import AlertPath
from repro.parallel.config import ParallelConfig
from repro.resilience.backpressure import BackpressureConfig
from repro.resilience.deadletter import (
    DeadLetterQueue,
    REASON_INVALID_RECORD,
    REASON_OUT_OF_ORDER,
    REASON_TAGGER_ERROR,
)

from .conftest import (
    ALL_SYSTEMS,
    letter_trace,
    reference_path,
    result_signature,
)

POISON = "__POISON_BODY__"


class PoisonTagger(Tagger):
    """A tagger a marked body crashes, per record and per batch alike —
    structurally valid records cannot crash the real rules engine, so
    this stands in for the regex engine failing on one."""

    def match_text(self, text):
        if POISON in text:
            raise RuntimeError("poison body")
        return super().match_text(text)

    def match_texts(self, texts):
        if any(POISON in text for text in texts):
            raise RuntimeError("poison body")
        return super().match_texts(texts)


def inject(records, faults):
    """``records`` with one faulty record inserted per ``(position,
    kind)``: an invalid record (non-finite clock), a poison body, or a
    tagged alert whose clock runs far backwards."""
    tagger = Tagger(get_ruleset(records[0].system))
    tagged = next(r for r in records if tagger.tag(r) is not None)
    stream = list(records)
    for position, kind in faults:
        at = position % (len(stream) + 1)
        if kind == REASON_INVALID_RECORD:
            bad = stream[at - 1]._replace(timestamp=float("nan"))
        elif kind == REASON_TAGGER_ERROR:
            bad = stream[at - 1]._replace(body=f"{POISON} {position}")
        else:
            bad = tagged._replace(timestamp=tagged.timestamp - 1e6)
        stream.insert(at, bad)
    return stream


def path_options(system, quarantine, tagger=PoisonTagger):
    return {
        "dead_letters": DeadLetterQueue() if quarantine else None,
        "tagger": tagger(get_ruleset(system)),
    }


def reference(system, stream, quarantine):
    return reference_path(system, stream, **path_options(system, quarantine))


def batched(system, stream, sizes, quarantine, shipped_outcome):
    """The stream through the kernel, cut by ``sizes`` (the last size
    repeats).  With ``shipped_outcome`` every batch's tag outcome is
    computed up front over the records a driver would ship — the valid
    subsequence, or everything in strict mode."""
    path = AlertPath(system, **path_options(system, quarantine))
    sizes = list(sizes)
    start = 0
    while start < len(stream):
        size = sizes.pop(0) if len(sizes) > 1 else sizes[0]
        batch = stream[start:start + size]
        start += size
        outcome = None
        if shipped_outcome:
            outcome = path.tagger.tag_batch(
                [r for r in batch if path.valid(r)] if quarantine else batch
            )
        path.process_batch(batch, outcome)
    return path


def observable(path):
    return (
        result_signature(path.result()),
        path.consumed,
        letter_trace(path.dead_letters),
    )


#: Batch sizes: the degenerate 1, the cadences the checkpoint tests cut
#: on, anything in between, and one batch for the whole corpus.
batch_sizes = st.lists(
    st.one_of(
        st.sampled_from([1, 7, SERIAL_BATCH_SIZE + 1]), st.integers(1, 130)
    ),
    min_size=1, max_size=40,
)
fault_lists = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.sampled_from(
            [REASON_INVALID_RECORD, REASON_TAGGER_ERROR, REASON_OUT_OF_ORDER]
        ),
    ),
    max_size=6,
)


@pytest.mark.parametrize("shipped_outcome", [False, True],
                         ids=["in-process", "shipped-outcome"])
@pytest.mark.parametrize("system", ALL_SYSTEMS)
class TestKernelEqualsReference:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sizes=batch_sizes)
    def test_strict(self, golden_records, system, shipped_outcome, sizes):
        stream = golden_records[system]
        got = batched(system, stream, sizes, False, shipped_outcome)
        assert observable(got) == observable(reference(system, stream, False))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sizes=batch_sizes, faults=fault_lists)
    def test_quarantine(
        self, golden_records, system, shipped_outcome, sizes, faults
    ):
        stream = inject(golden_records[system], faults)
        got = batched(system, stream, sizes, True, shipped_outcome)
        want = reference(system, stream, True)
        assert observable(got) == observable(want)
        assert want.dead_letters.quarantined >= sum(
            1 for _, kind in faults if kind != REASON_OUT_OF_ORDER
        )

    def test_strict_raises_at_the_poison_record(
        self, golden_records, system, shipped_outcome
    ):
        """A strict run raises where the reference loop would, with
        exactly the prefix consumed — whatever batch the record is in
        (a worker's error comes back as ``TaggerErrorReplay``, itself a
        ``RuntimeError`` carrying the original ``repr``)."""
        stream = inject(golden_records[system], [(123, REASON_TAGGER_ERROR)])
        with pytest.raises(RuntimeError, match="poison body"):
            reference(system, stream, False)
        path = AlertPath(system, **path_options(system, False))
        outcome = path.tagger.tag_batch(stream) if shipped_outcome else None
        with pytest.raises(RuntimeError, match="poison body"):
            path.process_batch(stream, outcome)
        assert path.consumed == 124
        assert path.stats_collector.stats.messages == 124


def test_empty_batch_is_a_no_op():
    path = AlertPath("liberty")
    assert path.process_batch([]) == []
    assert path.consumed == 0
    assert path.result().raw_alert_count == 0


#: One fault of each kind per tick at most, an invalid record never
#: behind a tagger error or a backwards alert of its own tick: admission
#: letters are written at arrival and the kernel's at the drain, so
#: across those two the bounded pump keeps stream order tick by tick.
BOUNDED_FAULTS = [
    (20, REASON_INVALID_RECORD), (40, REASON_TAGGER_ERROR),
    (50, REASON_OUT_OF_ORDER), (130, REASON_TAGGER_ERROR),
    (131, REASON_TAGGER_ERROR), (200, REASON_OUT_OF_ORDER),
    (270, REASON_INVALID_RECORD), (330, REASON_TAGGER_ERROR),
    (400, REASON_TAGGER_ERROR),
]
SEAMS = {"in-process": None, "pool": ParallelConfig(workers=2, batch_size=16)}


class CountingTagger(Tagger):
    """Counts every text the rules engine is asked about in this process."""

    texts_matched = 0

    def match_text(self, text):
        self.texts_matched += 1
        return super().match_text(text)

    def match_texts(self, texts):
        self.texts_matched += len(texts)
        return super().match_texts(texts)


@pytest.mark.parametrize("seam", SEAMS)
@pytest.mark.parametrize("system", ALL_SYSTEMS)
class TestBoundedEqualsReference:
    def test_faulted_stream(self, golden_records, system, seam):
        """Roomy buffers shed nothing, so the pump must land exactly on
        the reference — quarantined records, their order and ``consumed``
        included.  The pool's workers run the registered ruleset, which
        no valid record can crash, so there the poison bodies are plain
        chatter on both sides."""
        tagger = PoisonTagger if seam == "in-process" else Tagger
        stream = inject(golden_records[system], BOUNDED_FAULTS)
        got = AlertPath(system, **path_options(system, True, tagger))
        BoundedDriver(BackpressureConfig(), SEAMS[seam]).run(iter(stream), got)
        want = reference_path(
            system, stream, **path_options(system, True, tagger)
        )
        assert observable(got) == observable(want)
        errors = want.dead_letters.by_reason.get(REASON_TAGGER_ERROR, 0)
        assert errors == (5 if seam == "in-process" else 0)

    def test_one_match_per_record(self, golden_records, system, seam):
        """The verdict taken at arrival is the only match: every admitted
        record's text reaches this process's rules engine once, or — with
        the workers doing the matching — never."""
        records = golden_records[system]
        for config in (BackpressureConfig(), BackpressureConfig.burst()):
            path = AlertPath(system, **path_options(system, True, CountingTagger))
            BoundedDriver(config, SEAMS[seam]).run(iter(records), path)
            assert path.consumed == len(records)
            assert path.tagger.texts_matched == (
                len(records) if seam == "in-process" else 0
            )
