"""Self-tests of the layered benchmark (no wall-clock thresholds).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q layerbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder, SpanTable  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------- metric names


def test_benchmark_json_matches_what_the_runner_prints(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS


def test_metric_names_and_units_are_valid(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ---------------------------------------------------------------- self times


def table(rows, events=None):
    """Spans from ``(name, start, end, parent, count)`` rows."""
    name, start, end, parent, count = zip(*rows)
    return SpanTable(
        np.asarray(name), np.asarray(start, dtype=np.int64), np.asarray(end, dtype=np.int64),
        np.asarray(parent, dtype=np.int64), np.asarray(count, dtype=np.int64),
        events or {"requests": [], "submits": {}, "pool_calls": []},
    )


BATCH = [
    ("classify_batch", 0, 1000, -1, 2),
    ("extract", 10, 110, 0, 5),
    ("extract", 110, 160, 0, 5),
    ("hits", 200, 600, 0, 10),
    ("hash", 250, 450, 3, 10),
    ("reduce", 600, 700, 0, 2),
    ("result", 700, 760, 0, 1),
    ("result", 760, 800, 0, 1),
]


def test_self_time_subtracts_direct_children_only():
    spans = table(BATCH)
    # root: 1000 - (100 + 50 + 400 + 100 + 60 + 40); hits: 400 - 200
    assert spans.self_time().tolist() == [250, 100, 50, 200, 200, 100, 60, 40]


def test_library_layers_per_document():
    metrics = layers.library_layers(table(BATCH))
    assert metrics["extract.us_per_doc"] == pytest.approx(0.075)
    assert metrics["hash.us_per_doc"] == pytest.approx(0.1)
    assert metrics["probe.us_per_doc"] == pytest.approx(0.1)
    assert metrics["reduce.us_per_doc"] == pytest.approx(0.05)
    assert metrics["result.us_per_doc"] == pytest.approx(0.05)
    assert metrics["facade.self_us_per_doc"] == pytest.approx(0.125)
    assert metrics["hash.keys_per_ngram"] == 1.0
    assert metrics["ngrams_per_doc"] == 5.0
    assert metrics["segment.hits.us_per_doc"] == 0.0
    # the named layers add up to the root span
    assert layers.library_self_ns(table(BATCH)) == 1000


def test_segment_layers_count_hits_inclusive():
    spans = table([
        ("segment", 0, 1000, -1, 1),
        ("extract", 0, 100, 0, 8),
        ("window", 100, 700, 0, 8),
        ("hits", 150, 550, 2, 8),
        ("hash", 200, 400, 3, 8),
        ("smooth", 700, 900, 0, 3),
    ])
    metrics = layers.library_layers(spans)
    assert metrics["segment.hits.us_per_doc"] == pytest.approx(0.4)
    assert metrics["segment.window.us_per_doc"] == pytest.approx(0.2)
    assert metrics["segment.smooth.us_per_doc"] == pytest.approx(0.2)
    assert metrics["segment.spans.us_per_doc"] == pytest.approx(0.1)
    assert metrics["probe.us_per_doc"] == pytest.approx(0.2)
    assert metrics["facade.self_us_per_doc"] == 0.0


def test_since_drops_whole_trees_and_reindexes_parents():
    spans = table(BATCH + [("classify_batch", 2000, 2100, -1, 1), ("extract", 2010, 2050, 8, 3)])
    later = spans.since(1500)
    assert later.name.tolist() == ["classify_batch", "extract"]
    assert later.parent.tolist() == [-1, 0]


def test_serving_layers_split_each_round_trip():
    kernel = [("classify_batch", 3000, 3600, -1, 2), ("extract", 3000, 3100, 0, 4)]
    events = {
        # a: queued with b; c: answered from the cache
        "requests": [("a", 1000, 5000), ("b", 1500, 5200), ("c", 6000, 6300)],
        "submits": {"a": 1100, "b": 1600},
        "pool_calls": [(2900, 4000, ["a", "b"])],
    }
    client = [("a", 500, 5600), ("b", 1200, 5700), ("c", 5900, 6500)]
    metrics = layers.serving_layers(table(kernel, events), client)
    # http self: round trip minus classify_traced
    assert metrics["serve.http.self_us"] == pytest.approx((1100 + 800 + 300) / 3 / 1e3)
    # queue wait: submit -> pool call start
    assert metrics["serve.queue_wait_us"] == pytest.approx((1800 + 1300) / 2 / 1e3)
    # service self: classify_traced minus (pool end - submit); a cache hit is all self
    assert metrics["serve.service.self_us"] == pytest.approx((1100 + 1300 + 300) / 3 / 1e3)
    assert metrics["serve.dispatch.self_us"] == pytest.approx(0.5)
    assert metrics["serve.kernel.us_per_doc"] == pytest.approx(0.3)
    assert metrics["serve.batch_size.mean"] == 2.0
    assert metrics["serve.cache.hit_ratio"] == pytest.approx(1 / 3)
    assert metrics["coverage.ratio"] == 1.0


def test_span_file_round_trip(tmp_path):
    spans = table(BATCH, {"requests": [["a", 1, 2]], "submits": {"a": 1}, "pool_calls": []})
    spans.save(tmp_path / "spans.npz")
    loaded = SpanTable.load(tmp_path / "spans.npz")
    assert loaded.name.tolist() == spans.name.tolist()
    assert loaded.self_time().tolist() == spans.self_time().tolist()
    assert loaded.events == spans.events


def test_recorder_nests_spans_and_restores_the_original():
    class Layer:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n * 2

    original = Layer.__dict__["outer"]
    recorder = SpanRecorder()
    recorder.wrap(Layer, "outer", "outer", lambda args, result: args[1])
    recorder.wrap(Layer, "inner", "inner", lambda args, result: result)
    assert Layer().outer(3) == 7
    recorder.uninstall()
    assert Layer.__dict__["outer"] is original
    Layer().outer(3)  # untraced: records nothing
    spans = recorder.table()
    assert spans.name.tolist() == ["outer", "inner"]
    assert spans.parent.tolist() == [-1, 0]
    assert spans.count.tolist() == [3, 6]
    assert (spans.self_time() >= 0).all()


def test_scale_factors_use_the_local_reference_median():
    nominal = int(workloads.REFERENCE_MS * 1e6)
    reference = [(0, nominal), (10, nominal), (20, 2 * nominal), (30, 2 * nominal), (40, 2 * nominal)]
    factors = workloads.scale_factors(reference, [0, 25, 99])
    # at reference speed a time is kept; at half speed it is halved
    assert factors.tolist() == pytest.approx([1.0, 0.5, 0.5])


def test_throughput_is_bytes_per_second_of_each_block():
    # 1000 B every 0.1 s is 0.01 MB/s, whether or not the run spans three blocks
    steady = [i * 10**8 for i in range(40)]
    assert workloads.wall_throughput(steady, [1000] * 40) == pytest.approx(0.01)
    assert workloads.wall_throughput(steady[:4], [1000] * 4) == pytest.approx(0.01)
    assert workloads.block_throughput([10**8] * 40, [1000] * 40) == pytest.approx(0.01)


# ---------------------------------------------------------------- answer checks


@pytest.fixture(scope="module")
def tiny():
    import repro

    corpus = repro.build_jrc_acquis_like(["en", "fi", "fr"], docs_per_language=6, seed=2)
    train, test = corpus.split(train_fraction=0.5, seed=2)
    identifier = repro.LanguageIdentifier(repro.ClassifierConfig(t=700)).train(train)
    return identifier, test


def test_batch_check_accepts_the_facade_and_flags_a_wrong_answer(tiny):
    identifier, test = tiny
    operations = workloads.library_operations("batch_short", test, seed=4)
    library = workloads.LibraryRun("batch_short", identifier, operations, seed=4)
    tally = workloads.Tally()
    for op in operations:
        library._check(op, identifier.classify_batch(op.argument), tally)
    library.check_samples(tally)
    assert tally.failed == 0 and tally.scored == sum(len(op.gold) for op in operations)

    text, good = library.samples[0]
    wrong = dict(good.match_counts)
    wrong[good.language] += 1
    library.samples[0] = (text, types.SimpleNamespace(
        language=good.language, match_counts=wrong, ngram_count=good.ngram_count))
    library.check_samples(tally)
    assert tally.failed == 1


def test_segment_check_requires_tiling(tiny):
    identifier, _test = tiny
    from repro.corpus.generator import MixedDocumentGenerator

    doc = MixedDocumentGenerator(("en", "fi", "fr"), seed=3).generate(0)
    result = identifier.segment(doc.text)
    assert workloads.tiling_problem(result, len(doc.text)) is None
    assert 0 < workloads.correct_characters(result, doc.segments) <= len(doc.text)
    gap = types.SimpleNamespace(spans=[
        types.SimpleNamespace(start=0, end=5), types.SimpleNamespace(start=6, end=len(doc.text)),
    ])
    assert workloads.tiling_problem(gap, len(doc.text))
    short = types.SimpleNamespace(spans=[types.SimpleNamespace(start=0, end=5)])
    assert workloads.tiling_problem(short, len(doc.text))


def test_http_check_compares_with_classify_batch(tiny):
    from repro.serve.http import result_to_json

    identifier, test = tiny
    texts = [doc.text for doc in test.documents[:3]]
    golds = [doc.language for doc in test.documents[:3]]
    expected = identifier.classify_batch(texts)
    good = [serving.Exchange(i, 0, 1, 200, "t", json.dumps(result_to_json(r)).encode())
            for i, r in enumerate(expected)]
    tally = workloads.Tally()
    serving.check_exchanges(good, expected, golds, tally)
    assert (tally.attempted, tally.failed, tally.scored) == (3, 0, 3)

    swapped = json.dumps(result_to_json(expected[0]) | {"ngram_count": -1}).encode()
    bad = [serving.Exchange(0, 0, 1, 200, "t", swapped), serving.Exchange(1, 0, 1, 429, "", b"{}")]
    serving.check_exchanges(bad, expected, golds, tally)
    assert tally.failed == 2


def test_request_order_repeats_the_hot_set(tiny):
    _identifier, test = tiny
    documents, order = serving.request_documents(test, seed=5)
    assert len(documents) == workloads.SHORT_MIX + serving.HOT_SET
    hot = order >= workloads.SHORT_MIX
    assert 0.15 < hot.mean() < 0.25
    again_documents, again_order = serving.request_documents(test, seed=5)
    assert again_documents == documents and (again_order == order).all()


def test_runner_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "batch_short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
