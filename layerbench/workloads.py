"""Inputs, set-up, timed loops and answer checks of the library workloads.

Every input comes from ``--seed``: the model is always the same one (the
default Bloom configuration trained on the 10 % split of the fixed
ten-language corpus the repository's benchmarks use), and the seed picks the
held-out documents, their order, the slice offsets and the mixed documents.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.corpus.generator import MixedDocumentGenerator, SyntheticCorpusBuilder
from repro.corpus.languages import PAPER_LANGUAGES

#: the fixed corpus (the parameters of ``benchmarks/bench_common.py``)
CORPUS = dict(
    seed=42,
    docs_per_language=120,
    words_per_document=250,
    related_blend=0.23,
    boilerplate_fraction=0.10,
    boilerplate_extra_blend=0.12,
)
TRAIN_FRACTION = 0.10
SPLIT_SEED = 7
#: the default Bloom model: 16 Kbit x 4 vectors, t = 5000 4-grams, seed 0
MODEL = dict(m_bits=16 * 1024, k=4, t=5000, seed=0)

#: the short-document mix: 1500 slices of 240 characters
SHORT_CHARS = 240
SHORT_MIX = 1500
#: documents per ``classify_batch`` call
BATCH_DOCS = 64
MIXED_DOCS = 200
#: results per run compared against the single-document ``classify`` path
SAMPLE_CHECKS = 256
#: throughput is the median over blocks of this much busy time
BLOCK_SECONDS = 0.5
WARMUP_SECONDS = 0.3
#: time of one reference-kernel call that library times are scaled to; close
#: to the kernel's time on an idle 2-core x86 VM, so scaled times read like
#: real ones there
REFERENCE_MS = 0.5
#: seconds between reference-kernel calls in a timed run
REFERENCE_EVERY_S = 0.02
#: reference timings (nearest in time) whose median scales an operation
REFERENCE_WINDOW = 3


@dataclass
class Operation:
    """One call's input: its argument, UTF-8 size and gold labels."""

    argument: object
    n_bytes: int
    gold: object


@dataclass
class Tally:
    """What a run did: per-operation latencies and bytes, answers checked."""

    latencies_ns: list[int] = field(default_factory=list)
    started_ns: list[int] = field(default_factory=list)
    op_bytes: list[int] = field(default_factory=list)
    #: ``(time, reference-kernel ns)`` pairs taken during the run
    reference: list[tuple[int, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    scored: int = 0
    correct: float = 0.0
    mismatches: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.mismatches) < 5:
            self.mismatches.append(message)


class ReferenceKernel:
    """A fixed NumPy kernel shaped like the classify hot path.

    On a shared virtual machine the whole guest switches between speed
    regimes about 1.6x apart that last tens of seconds, so raw 20-second runs
    of unchanged code spread by ~25%.  This kernel (gathers from a
    ``(10, 16384)`` bit table, an AND over four rows, a cumulative sum, a
    multiply-shift) slows in step with ``classify_batch``: the ratio of the
    two times stays within a few percent.  It calls no ``repro`` code, so a
    change to the program cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 2, (4, 10, 16384)).astype(bool)
        self.index = rng.integers(0, 16384, (4, 4096))
        self.keys = rng.integers(0, 1 << 20, 4096).astype(np.uint64)

    def time_ns(self) -> int:
        start = time.perf_counter_ns()
        hits = self.table[0][:, self.index[0]]
        for row in range(1, 4):
            hits &= self.table[row][:, self.index[row]]
        np.cumsum(hits, axis=1)
        (self.keys * np.uint64(2654435761)) >> np.uint64(7)
        return time.perf_counter_ns() - start

    def scale(self) -> float:
        """Factor from this moment's speed to the reference speed."""
        return REFERENCE_MS * 1e6 / median(self.time_ns() for _ in range(REFERENCE_WINDOW))


def build_corpus():
    """The fixed corpus split into (train, held-out)."""
    corpus = SyntheticCorpusBuilder(**CORPUS).build()
    return corpus.split(train_fraction=TRAIN_FRACTION, seed=SPLIT_SEED)


def short_slices(test, seed: int, count: int, salt: int = 0) -> list[tuple[str, str]]:
    """``count`` seeded 240-character ``(text, gold)`` slices of held-out documents."""
    rng = np.random.default_rng([seed, salt])
    documents = test.documents
    order = rng.permutation(len(documents))
    slices = []
    for i in range(count):
        doc = documents[order[i % len(documents)]]
        offset = int(rng.integers(0, max(1, len(doc.text) - SHORT_CHARS)))
        slices.append((doc.text[offset : offset + SHORT_CHARS], doc.language))
    return slices


def library_operations(workload: str, test, seed: int) -> list[Operation]:
    """The cycled list of calls a library workload makes."""
    if workload == "segment_mixed":
        generator = MixedDocumentGenerator(PAPER_LANGUAGES, seed=seed)
        return [
            Operation(doc.text, len(doc.text.encode("utf-8")), doc.segments)
            for doc in generator.generate_many(MIXED_DOCS)
        ]
    if workload == "batch_short":
        docs = short_slices(test, seed, SHORT_MIX)
    else:
        rng = np.random.default_rng(seed)
        docs = [(test.documents[i].text, test.documents[i].language)
                for i in rng.permutation(len(test.documents))]
    docs = docs[: len(docs) - len(docs) % BATCH_DOCS]
    return [
        Operation(
            [text for text, _ in docs[i : i + BATCH_DOCS]],
            sum(len(text.encode("utf-8")) for text, _ in docs[i : i + BATCH_DOCS]),
            [gold for _, gold in docs[i : i + BATCH_DOCS]],
        )
        for i in range(0, len(docs), BATCH_DOCS)
    ]


def call_for(workload: str, identifier: LanguageIdentifier):
    """The library entry point a workload times."""
    return identifier.segment if workload == "segment_mixed" else identifier.classify_batch


def set_up(train_texts, workdir: Path, first_call, repeats: int, reference=None):
    """Train, save as a flat artifact, load, answer one call; ``repeats`` times.

    Returns the loaded identifier, its artifact path and every set-up time,
    each scaled by ``reference`` (a :class:`ReferenceKernel`) when given.
    """
    times = []
    for _ in range(repeats):
        scale = reference.scale() if reference is not None else 1.0
        start = time.perf_counter()
        identifier = LanguageIdentifier(ClassifierConfig(**MODEL)).train(train_texts)
        path = identifier.save(workdir / "model.bin", format="flat")
        loaded = LanguageIdentifier.load(path)
        first_call(loaded)
        times.append((time.perf_counter() - start) * scale)
    return loaded, path, times


class LibraryRun:
    """Closed-loop, single-thread calls of one library workload, answers checked."""

    def __init__(self, workload: str, identifier: LanguageIdentifier, operations, seed: int):
        self.workload = workload
        self.identifier = identifier
        self.operations = operations
        self.next = 0
        self.rng = np.random.default_rng([seed, 1])
        self.reference = ReferenceKernel()
        #: (text, batch result) pairs re-checked against ``classify`` afterwards
        self.samples: list[tuple[str, object]] = []

    def run(self, seconds: float, tally: Tally | None) -> None:
        """Call for ``seconds``; record into ``tally`` (``None`` = warm-up)."""
        deadline = time.perf_counter() + seconds
        # looked up per chunk: a traced chunk must call the wrapped method
        call = call_for(self.workload, self.identifier)
        next_reference = 0
        while time.perf_counter() < deadline:
            op = self.operations[self.next % len(self.operations)]
            self.next += 1
            start = time.perf_counter_ns()
            result = call(op.argument)
            elapsed = time.perf_counter_ns() - start
            if tally is not None:
                if start >= next_reference:
                    tally.reference.append((start, self.reference.time_ns()))
                    next_reference = start + int(REFERENCE_EVERY_S * 1e9)
                tally.started_ns.append(start)
                tally.latencies_ns.append(elapsed)
                tally.op_bytes.append(op.n_bytes)
                tally.attempted += 1
                self._check(op, result, tally)

    def _check(self, op: Operation, result, tally: Tally) -> None:
        if self.workload == "segment_mixed":
            problem = tiling_problem(result, len(op.argument))
            if problem:
                tally.fail(problem)
            tally.correct += correct_characters(result, op.gold)
            tally.scored += len(op.argument)
            return
        if len(result) != len(op.argument):
            tally.fail(f"{len(result)} results for {len(op.argument)} documents")
            return
        tally.correct += sum(r.language == g for r, g in zip(result, op.gold))
        tally.scored += len(op.gold)
        if len(self.samples) < SAMPLE_CHECKS:
            pick = int(self.rng.integers(len(result)))
            self.samples.append((op.argument[pick], result[pick]))

    def check_samples(self, tally: Tally) -> None:
        """Compare sampled batch answers with the single-document path."""
        for text, batched in self.samples:
            single = self.identifier.classify(text)
            if not same_result(batched, single):
                tally.fail(f"batch {summary(batched)} != classify {summary(single)}")


def same_result(a, b) -> bool:
    return (
        a.language == b.language
        and a.match_counts == b.match_counts
        and a.ngram_count == b.ngram_count
    )


def summary(result) -> str:
    return f"{result.language}:{result.ngram_count}:{sorted(result.match_counts.items())}"


def tiling_problem(result, length: int) -> str | None:
    """Why ``result``'s spans do not tile ``[0, length)``, or ``None``."""
    spans = result.spans
    if length and not spans:
        return "no spans"
    position = 0
    for span in spans:
        if span.start != position or span.end <= span.start:
            return f"span [{span.start}, {span.end}) after position {position}"
        position = span.end
    if position != length:
        return f"spans end at {position}, document has {length} characters"
    return None


def correct_characters(result, segments) -> int:
    """Characters whose span language equals the gold segment language."""
    return sum(
        span.overlap(segment.start, segment.end)
        for span in result.spans
        for segment in segments
        if span.language == segment.language
    )


def scale_factors(reference: list[tuple[int, int]], at_ns) -> np.ndarray:
    """Factors from the machine's speed at each of ``at_ns`` to the reference speed.

    Each instant takes the median of the ``REFERENCE_WINDOW`` reference
    timings around the next one taken.
    """
    reference = sorted(reference)
    at = np.asarray([t for t, _ in reference], dtype=np.int64)
    timings = np.asarray([ns for _, ns in reference], dtype=np.float64)
    half = REFERENCE_WINDOW // 2
    local = np.asarray([
        np.median(timings[max(0, i - half) : i + half + 1]) for i in range(timings.size)
    ])
    nearest = np.minimum(np.searchsorted(at, at_ns), at.size - 1)
    return REFERENCE_MS * 1e6 / local[nearest]


def scaled_latencies(tally: Tally) -> np.ndarray:
    """Operation latencies (ns) scaled to the reference kernel's speed."""
    return np.asarray(tally.latencies_ns) * scale_factors(tally.reference, tally.started_ns)


def block_throughput(latencies_ns, op_bytes) -> float:
    """Median MB/s over consecutive blocks of ``BLOCK_SECONDS`` busy time."""
    latencies = np.asarray(latencies_ns, dtype=np.int64)
    blocks = np.cumsum(latencies) // int(BLOCK_SECONDS * 1e9)
    full = blocks < blocks[-1]  # the last block is partial
    if not full.any():
        full[:] = True
    busy = np.bincount(blocks[full], weights=latencies[full])
    moved = np.bincount(blocks[full], weights=np.asarray(op_bytes)[full])
    keep = busy > 0
    return float(np.median(moved[keep] / busy[keep] * 1e3))


def wall_throughput(answered_ns, op_bytes) -> float:
    """Median MB/s over consecutive blocks of ``BLOCK_SECONDS`` wall time.

    For concurrent operations: a block runs from the answer that closed the
    previous block to its own last answer; the first and the partial last
    block are dropped.
    """
    order = np.argsort(answered_ns)
    answered = np.asarray(answered_ns, dtype=np.int64)[order]
    sizes = np.asarray(op_bytes, dtype=np.int64)[order]
    blocks = (answered - answered[0]) // int(BLOCK_SECONDS * 1e9)
    closing = np.flatnonzero(np.diff(blocks))
    if closing.size < 2:  # shorter than three blocks: the whole run is one
        closing = np.asarray([0, answered.size - 1])
    rates = [
        sizes[previous + 1 : last + 1].sum() / (answered[last] - answered[previous]) * 1e3
        for previous, last in zip(closing[:-1], closing[1:])
    ]
    return float(np.median(rates))


def latency_metrics(latencies_ns) -> dict[str, float]:
    p50, p75 = np.percentile(np.asarray(latencies_ns) / 1e6, [50, 75])
    return {"latency_p50_ms": float(p50), "latency_p75_ms": float(p75)}


def tail_line(latencies_ns) -> str:
    """The percentiles above p75, which carry no bound (see README)."""
    p95, p99 = np.percentile(np.asarray(latencies_ns) / 1e6, [95, 99])
    return f"latency_p95_ms {p95:.6g}, latency_p99_ms {p99:.6g} (no bound)"


def median(values) -> float:
    return float(statistics.median(values))
