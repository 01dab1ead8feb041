"""Ensemble benchmark: the voting win condition and the fan-out overhead gate.

Gates the ensemble issue's two acceptance criteria on the benchmark corpus:

* **win condition** — mean accuracy over the *noisy* evaluation cells is at
  least the best single member's (strictly above it on the seeded corpus):
  margin-weighted calibrated voting has to buy robustness, not just cost
  three classifications per document;
* **overhead** — ``classify_batch`` through the ensemble costs at most
  :data:`MAX_OVERHEAD_FACTOR` × the slowest member alone.  The ensemble runs
  every member plus the voting arithmetic, so a factor below the member
  count means the fan-out overhead itself is modest.  This is a ``timing``
  test, deselected from tier-1.

Results land in ``BENCH_ensemble.json`` (set ``BENCH_ENSEMBLE_OUTPUT`` to
redirect); CI uploads the file next to the other ``BENCH_*.json``
perf-trajectory artifacts.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import ClassifierConfig
from repro.corpus.generator import SyntheticCorpusBuilder
from repro.eval import Scenario, run_matrix, train_identifiers

from bench_common import BENCH_PROFILE_SIZE, BENCH_SEED, print_table

#: the ensemble's members, benchmarked standalone for the comparison
MEMBERS = ("bloom", "exact", "mguesser")
BACKENDS = MEMBERS + ("ensemble",)
DOCS_PER_LANGUAGE = 30
WORDS_PER_DOCUMENT = 250
TRAIN_FRACTION = 0.20
RELATED_BLEND = 0.18
LENGTHS = (15, 60, 250)
SCENARIOS = (
    Scenario("clean"),
    Scenario("typo", 0.05),
    Scenario("typo", 0.15),
    Scenario("case", 0.5),
    Scenario("digits", 0.3),
    Scenario("whitespace", 1.0),
)
NOISE_SEED = 17
#: ensemble classify_batch may cost at most this many × the slowest member
MAX_OVERHEAD_FACTOR = 2.5
#: timing repetitions (best-of, to shrug off scheduler noise)
TIMING_REPEATS = 3


def _output_path() -> Path:
    return Path(os.environ.get("BENCH_ENSEMBLE_OUTPUT", "BENCH_ensemble.json"))


@pytest.fixture(scope="module")
def split():
    corpus = SyntheticCorpusBuilder(
        docs_per_language=DOCS_PER_LANGUAGE,
        words_per_document=WORDS_PER_DOCUMENT,
        seed=BENCH_SEED,
        related_blend=RELATED_BLEND,
    ).build()
    return corpus.split(train_fraction=TRAIN_FRACTION, seed=7)


@pytest.fixture(scope="module")
def identifiers(split):
    config = ClassifierConfig(
        m_bits=16 * 1024, k=4, t=BENCH_PROFILE_SIZE, seed=0, backend=BACKENDS[0]
    )
    return train_identifiers(config, BACKENDS, split[0])


@pytest.fixture(scope="module")
def matrix(identifiers, split):
    return run_matrix(
        identifiers,
        split[1],
        scenarios=SCENARIOS,
        lengths=LENGTHS,
        seed=NOISE_SEED,
    )


def _noisy_means(matrix) -> dict[str, float]:
    """Mean average-accuracy over every non-clean cell, per backend."""
    means: dict[str, float] = {}
    for backend in matrix.backends:
        cells = [
            cell
            for cell in matrix.cells
            if cell.backend == backend and cell.family != "clean"
        ]
        means[backend] = float(np.mean([cell.average_accuracy for cell in cells]))
    return means


def _time_classify_batch(identifier, texts) -> float:
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        started = time.perf_counter()
        identifier.classify_batch(texts)
        best = min(best, time.perf_counter() - started)
    return best


def test_ensemble_beats_every_single_backend_on_noisy_cells(matrix):
    means = _noisy_means(matrix)
    rows = [
        (backend, f"{100 * mean:.2f}%", "ensemble" if backend == "ensemble" else "member")
        for backend, mean in sorted(means.items(), key=lambda kv: -kv[1])
    ]
    print_table(
        "Mean accuracy over the noisy evaluation cells", ("backend", "accuracy", "role"), rows
    )
    best_single = max(mean for backend, mean in means.items() if backend != "ensemble")
    assert means["ensemble"] >= best_single, (
        f"ensemble noisy-cell mean {means['ensemble']:.4f} fell below the best "
        f"single backend's {best_single:.4f} — calibrated voting stopped paying"
    )
    # the abstention contract rides along: gated/tied documents are explicit
    # und results, and on this clean-gate configuration the rate stays tiny
    worst_abstain = max(cell.abstain_rate for cell in matrix.cells)
    assert worst_abstain <= 0.05


@pytest.mark.timing
def test_ensemble_overhead_bounded_by_slowest_member(identifiers, split):
    texts = [doc.text for doc in split[1]]
    timings = {name: _time_classify_batch(identifiers[name], texts) for name in BACKENDS}
    slowest_member = max(timings[name] for name in MEMBERS)
    factor = timings["ensemble"] / slowest_member
    rows = [
        (name, f"{1000 * elapsed:.1f} ms", f"{len(texts) / elapsed:.0f} docs/s")
        for name, elapsed in timings.items()
    ]
    rows.append(("overhead", f"{factor:.2f}x slowest member", f"limit {MAX_OVERHEAD_FACTOR}x"))
    print_table("classify_batch cost over the evaluation corpus", ("backend", "time", "rate"), rows)
    assert factor <= MAX_OVERHEAD_FACTOR, (
        f"ensemble classify_batch is {factor:.2f}x the slowest member "
        f"(limit {MAX_OVERHEAD_FACTOR}x)"
    )


def test_writes_benchmark_artifact(matrix, identifiers, split):
    means = _noisy_means(matrix)
    texts = [doc.text for doc in split[1]]
    timings = {name: _time_classify_batch(identifiers[name], texts) for name in BACKENDS}
    slowest_member = max(timings[name] for name in MEMBERS)
    payload = {
        "benchmark": "ensemble",
        "config": {
            "members": list(MEMBERS),
            "scenarios": [scenario.describe() for scenario in SCENARIOS],
            "lengths": list(LENGTHS),
            "documents": matrix.documents,
            "noise_seed": NOISE_SEED,
            "max_overhead_factor": MAX_OVERHEAD_FACTOR,
        },
        "noisy_cell_mean_accuracy": means,
        "win_margin": means["ensemble"]
        - max(mean for name, mean in means.items() if name != "ensemble"),
        "abstain_rate_max": max(cell.abstain_rate for cell in matrix.cells),
        "classify_batch_seconds": timings,
        "overhead_factor": timings["ensemble"] / slowest_member,
        "elapsed_seconds": matrix.elapsed_seconds,
    }
    output = _output_path()
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
