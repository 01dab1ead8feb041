"""Unit and end-to-end tests for :mod:`repro.analytics`.

Covers the per-source statistics (``SourceStats``), the windowed aggregator
with its archive and its drift verdicts (injected language-mix shift alarms, clean
stream does not), the divergence metrics, the report/priors artifacts, and the
``repro analyze`` CLI over a seeded three-source corpus whose per-source
distributions are known.
"""

import json

import pytest

from repro.analytics import (
    CONFIDENCE_SCALE,
    DEFAULT_SOURCE,
    AnalyticsAggregator,
    AnalyticsConfig,
    compare_windows,
    count_letters,
    jensen_shannon_divergence,
    population_stability_index,
    quantize_confidence,
    render_report,
    write_priors,
)
from repro.analytics.stats import SourceStats
from repro.cli import main
from repro.core.classifier import ClassificationResult


def make_result(language="en", confidence=0.5, ngrams=40, runner_up="xx"):
    """A synthetic result whose ``confidence`` property equals ``confidence``."""
    top = 1000
    counts = {language: top}
    if confidence < 1.0:
        counts[runner_up] = round(top * (1.0 - confidence))
    result = ClassificationResult(language=language, match_counts=counts, ngram_count=ngrams)
    assert abs(result.confidence - confidence) < 1e-3
    return result


# -- quantization and letter counting ---------------------------------------------


def test_quantize_confidence_endpoints_and_rounding():
    assert quantize_confidence(0.0) == 0
    assert quantize_confidence(1.0) == CONFIDENCE_SCALE
    assert quantize_confidence(0.5) == CONFIDENCE_SCALE // 2
    # round-half-even at the micro-unit boundary is fine; exactness matters
    assert isinstance(quantize_confidence(0.1234567), int)


def test_count_letters_is_unicode_letters_only():
    assert count_letters("abc def") == 6
    assert count_letters("a1_b-c!") == 3
    assert count_letters("éàü") == 3
    assert count_letters("123 456") == 0
    assert count_letters("") == 0


# -- SourceStats -------------------------------------------------------------------


class TestSourceStats:
    def test_update_accumulates_everything(self):
        stats = SourceStats()
        stats.update("en", 800_000, 100, 97, alpha_chars=80)
        stats.update("fr", 400_000, 50, 47, und=False, cached=True, alpha_chars=40)
        stats.update("und", 0, 0, 0, und=True)
        assert stats.docs_total == 3
        assert stats.bytes_total == 150
        assert stats.ngrams_total == 144
        assert stats.languages == {"en": 1, "fr": 1, "und": 1}
        assert stats.und_total == 1
        assert stats.cached_total == 1
        # the und document carried no text scan: quality covers two docs
        assert stats.quality_docs_total == 2
        assert stats.alphabetical_rate == 120 / 150
        assert stats.length_min == 0 and stats.length_max == 100
        assert stats.confidence_sum_micro == 1_200_000

    def test_mean_confidence_is_exact_integer_division(self):
        stats = SourceStats()
        stats.update("en", quantize_confidence(0.25), 10, 5)
        stats.update("en", quantize_confidence(0.75), 10, 5)
        assert stats.mean_confidence == 0.5

    def test_histogram_bin_edges(self):
        stats = SourceStats()
        for micro in (0, 50_000, 99_999, 100_000, 950_000, CONFIDENCE_SCALE):
            stats.update("en", micro, 1, 1)
        # a bin holds [lower, upper) micro-units; 1.0 clamps into the last bin
        assert stats.confidence_bins == [3, 1, 0, 0, 0, 0, 0, 0, 0, 2]
        assert list(stats.snapshot()["confidence_histogram"])[9] == "0.90-1.00"

    def test_merge_equals_sequential_updates(self):
        a, b, seq = SourceStats(), SourceStats(), SourceStats()
        for i in range(10):
            target = a if i % 2 else b
            target.update("en" if i % 3 else "fr", i * 100_000, i, i, alpha_chars=i // 2)
            seq.update("en" if i % 3 else "fr", i * 100_000, i, i, alpha_chars=i // 2)
        a.merge(b)
        assert a.snapshot() == seq.snapshot()

    def test_dominant_language_breaks_ties_alphabetically(self):
        stats = SourceStats()
        stats.update("fr", 500_000, 1, 1)
        stats.update("en", 500_000, 1, 1)
        assert stats.dominant_language() == "en"

    def test_empty_snapshot_is_all_zeros(self):
        snap = SourceStats().snapshot()
        assert snap["docs"] == 0
        assert snap["mean_confidence"] == 0.0
        assert snap["language_mix"] == {}
        assert snap["doc_length"]["min"] is None


# -- divergence metrics ------------------------------------------------------------


class TestDivergences:
    def test_js_identical_is_zero(self):
        mix = {"en": 0.6, "fr": 0.4}
        assert jensen_shannon_divergence(mix, dict(mix)) == pytest.approx(0.0)

    def test_js_disjoint_is_one(self):
        assert jensen_shannon_divergence({"en": 1.0}, {"fr": 1.0}) == pytest.approx(1.0)

    def test_js_symmetric_and_bounded(self):
        p, q = {"en": 0.9, "fr": 0.1}, {"en": 0.2, "fr": 0.5, "es": 0.3}
        forward = jensen_shannon_divergence(p, q)
        assert forward == pytest.approx(jensen_shannon_divergence(q, p))
        assert 0.0 < forward < 1.0

    def test_js_empty_side_is_zero(self):
        assert jensen_shannon_divergence({}, {"en": 1.0}) == 0.0

    def test_psi_zero_for_identical_and_positive_for_shift(self):
        mix = {"en": 0.5, "fr": 0.5}
        assert population_stability_index(mix, dict(mix)) == pytest.approx(0.0)
        shifted = population_stability_index({"en": 0.9, "fr": 0.1}, mix)
        assert shifted > 0.2

    def test_psi_disjoint_support_pins_the_smoothed_value(self):
        # regression for the smoothing-order bug: epsilon mass must be added
        # *before* normalising (so each smoothed side still sums to 1), then
        # renormalised.  On fully disjoint support {a} vs {b} each side
        # becomes {1/(1+eps), eps/(1+eps)} and the PSI is analytically
        #   2 * ((1-eps)/(1+eps)) * ln(1/eps)  ~= 27.63 at eps=1e-6.
        # The old clamp-after-normalise behaviour left the distributions
        # summing to 1+eps and produced a subtly different (wrong) value.
        import math

        eps = 1e-6
        expected = 2.0 * ((1.0 - eps) / (1.0 + eps)) * math.log(1.0 / eps)
        psi = population_stability_index({"a": 1.0}, {"b": 1.0})
        assert psi == pytest.approx(expected, rel=1e-12)
        assert psi == pytest.approx(27.63, abs=0.01)

    def test_psi_partial_overlap_smooths_only_missing_categories(self):
        # one category missing from one side: still finite, symmetric by
        # formula, and far smaller than the fully-disjoint pinned value
        psi = population_stability_index({"en": 0.5, "fr": 0.5}, {"en": 1.0})
        assert 0.0 < psi < 27.0
        reverse = population_stability_index({"en": 1.0}, {"en": 0.5, "fr": 0.5})
        assert psi == pytest.approx(reverse)

    def test_compare_windows_alarm_paths(self):
        current, baseline = SourceStats(), SourceStats()
        for _ in range(30):
            baseline.update("en", 800_000, 10, 10)
            current.update("fr", 800_000, 10, 10)
        verdict = compare_windows(current, baseline, drift_threshold=0.5)
        assert verdict["mix_alarm"] and verdict["alarm"]
        assert verdict["score"] == pytest.approx(1.0)
        # same mix, collapsed confidence -> confidence alarm only
        sure, unsure = SourceStats(), SourceStats()
        for _ in range(30):
            sure.update("en", 900_000, 10, 10)
            unsure.update("en", 200_000, 10, 10)
        verdict = compare_windows(unsure, sure)
        assert not verdict["mix_alarm"]
        assert verdict["confidence_alarm"] and verdict["alarm"]
        assert verdict["mean_confidence_delta"] == pytest.approx(-0.7)

    def test_min_window_docs_guards_noise(self):
        current, baseline = SourceStats(), SourceStats()
        baseline.update("en", 800_000, 10, 10)
        current.update("fr", 800_000, 10, 10)
        verdict = compare_windows(current, baseline, min_window_docs=5)
        assert not verdict["alarm"]

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            compare_windows(SourceStats(), SourceStats(), metric="kl")


# -- aggregator --------------------------------------------------------------------


def feed(aggregator, spec, start=0):
    """Feed ``spec`` = [(language, source, count)] one doc per timestamp tick."""
    t = start
    for language, source, count in spec:
        for _ in range(count):
            aggregator.update(
                make_result(language), source, timestamp=float(t), text="abcd efgh"
            )
            t += 1
    return t


class TestAggregator:
    def test_default_source_and_totals(self):
        agg = AnalyticsAggregator()
        agg.update(make_result("en"), timestamp=0.0, text="hello")
        assert DEFAULT_SOURCE in agg.sources
        assert agg.docs_total == 1

    def test_window_bucketing_and_pruning_keeps_newest(self):
        config = AnalyticsConfig(window_seconds=10.0, max_windows=3)
        agg = AnalyticsAggregator(config)
        # the last document is older than every retained window
        for t in (0, 15, 25, 35, 45, 5):
            agg.update(make_result("en"), "s", timestamp=float(t), chars=5)
        assert sorted(agg.windows) == [2, 3, 4]
        assert agg.archive["s"].docs_total == 3  # pruned windows age into it
        assert agg.docs_total == agg.sources["s"].docs_total == 6

    @pytest.mark.parametrize("timestamp", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamp_raises_and_counts_nothing(self, timestamp):
        agg = AnalyticsAggregator()
        agg.update(make_result("en"), "s", timestamp=0.0, text="hello")
        before = agg.snapshot()
        with pytest.raises(ValueError, match=f"timestamp must be finite, got {timestamp!r}"):
            agg.update(make_result("fr"), "s", timestamp=timestamp, text="bonjour")
        assert agg.snapshot() == before

    def test_drift_needs_two_windows(self):
        agg = AnalyticsAggregator()
        agg.update(make_result("en"), "s", timestamp=0.0, chars=5)
        drift = agg.drift()
        assert drift["status"] == "insufficient-windows"
        assert drift["alarm"] is False

    def test_drift_rejects_unretained_baseline(self):
        config = AnalyticsConfig(window_seconds=10.0, min_window_docs=1)
        agg = AnalyticsAggregator(config)
        agg.update(make_result("en"), "s", timestamp=0.0, chars=5)
        agg.update(make_result("en"), "s", timestamp=15.0, chars=5)
        with pytest.raises(ValueError, match="not retained"):
            agg.drift(baseline_bucket=7)

    def test_injected_shift_raises_alarm_and_clean_stream_does_not(self):
        config = AnalyticsConfig(
            window_seconds=50.0, min_window_docs=10, drift_threshold=0.1
        )
        clean = AnalyticsAggregator(config)
        # steady 60/40 en/fr mix across four windows
        for window in range(4):
            feed(
                clean,
                [("en", "news", 30), ("fr", "news", 20)],
                start=window * 50,
            )
        assert clean.drift()["status"] == "ok"
        assert clean.drift()["alarm"] is False

        shifted = AnalyticsAggregator(config)
        for window in range(3):
            feed(shifted, [("en", "news", 30), ("fr", "news", 20)], start=window * 50)
        # mid-stream shift: the newest window flips almost entirely to Spanish
        feed(shifted, [("es", "news", 45), ("en", "news", 5)], start=150)
        drift = shifted.drift()
        assert drift["status"] == "ok"
        assert drift["alarm"] is True
        assert drift["sources"]["news"]["mix_alarm"] is True
        assert drift["overall"]["score"] > 0.1

    def test_priors_artifact_shape(self):
        agg = AnalyticsAggregator()
        feed(agg, [("en", "a", 3), ("fr", "a", 1), ("es", "b", 2)])
        priors = agg.priors()
        assert priors["schema"] == "repro.analytics.priors/v1"
        assert priors["sources"]["a"]["languages"] == {"en": 0.75, "fr": 0.25}
        assert priors["sources"]["b"]["docs"] == 2

    def test_snapshot_can_omit_windows(self):
        agg = AnalyticsAggregator()
        agg.update(make_result("en"), "s", timestamp=0.0, chars=5)
        assert "windows" in agg.snapshot()
        assert "windows" not in agg.snapshot(include_windows=False)

    def test_snapshot_is_json_serializable(self):
        agg = AnalyticsAggregator(AnalyticsConfig(window_seconds=10, min_window_docs=1))
        feed(agg, [("en", "a", 5), ("und", "b", 2)])
        json.dumps(agg.snapshot())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnalyticsConfig(max_windows=1)
        with pytest.raises(ValueError):
            AnalyticsConfig(window_seconds=0)
        with pytest.raises(ValueError):
            AnalyticsConfig(drift_metric="nope")
        with pytest.raises(ValueError):
            AnalyticsConfig(min_window_docs=0)


# -- report / priors artifacts -----------------------------------------------------


class TestReportRendering:
    def test_report_lists_sources_and_drift(self):
        config = AnalyticsConfig(window_seconds=50.0, min_window_docs=10)
        agg = AnalyticsAggregator(config)
        for window in range(3):
            feed(agg, [("en", "wire", 30), ("fr", "blog", 20)], start=window * 50)
        feed(agg, [("es", "wire", 30), ("fr", "blog", 20)], start=150)
        text = render_report(agg.snapshot())
        assert "wire" in text and "blog" in text
        assert "ALARM" in text
        assert "Per-source drift" in text

    def test_report_handles_insufficient_windows(self):
        agg = AnalyticsAggregator()
        agg.update(make_result("en"), "s", timestamp=0.0, text="abc")
        text = render_report(agg.snapshot())
        assert "insufficient-windows" in text

    def test_write_priors_roundtrip(self, tmp_path):
        agg = AnalyticsAggregator()
        feed(agg, [("en", "a", 2)])
        path = write_priors(agg.priors(), tmp_path / "nested" / "priors.json")
        assert json.loads(path.read_text()) == agg.priors()


# -- repro analyze CLI -------------------------------------------------------------


@pytest.fixture(scope="module")
def analyze_setup(tmp_path_factory):
    """A trained model plus a three-source corpus with known language mixes."""
    root = tmp_path_factory.mktemp("analyze")
    corpus_dir = root / "corpus"
    assert (
        main(
            [
                "generate-corpus",
                "--languages", "en,fr,es",
                "--docs-per-language", "24",
                "--words-per-document", "50",
                "--seed", "7",
                "--output", str(corpus_dir),
            ]
        )
        == 0
    )
    model = root / "model.bin"
    assert (
        main(
            [
                "train",
                "--corpus", str(corpus_dir),
                "--output", str(model),
                "--m-kbits", "8",
                "--profile-size", "1500",
            ]
        )
        == 0
    )
    return model, corpus_dir


class TestAnalyzeCommand:
    def test_directory_report_recovers_per_source_distributions(
        self, analyze_setup, capsys
    ):
        model, corpus_dir = analyze_setup
        assert (
            main(
                [
                    "analyze",
                    "--model", str(model),
                    str(corpus_dir),
                    "--window", "24",
                    "--min-window-docs", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Per-source corpus statistics (72 documents)" in out
        assert "analyzed 72 documents from 3 source(s)" in out

    def test_json_snapshot_has_known_distributions(self, analyze_setup, capsys):
        model, corpus_dir = analyze_setup
        assert (
            main(["analyze", "--model", str(model), str(corpus_dir), "--json"]) == 0
        )
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["docs_total"] == 72
        # each source directory holds one language; the trained model should
        # recover a near-delta distribution on its own training corpus
        for language in ("en", "fr", "es"):
            mix = snapshot["sources"][language]["language_mix"]
            assert mix.get(language, 0.0) >= 0.9

    def test_priors_artifact_written(self, analyze_setup, tmp_path, capsys):
        model, corpus_dir = analyze_setup
        priors_path = tmp_path / "priors.json"
        assert (
            main(
                [
                    "analyze",
                    "--model", str(model),
                    str(corpus_dir),
                    "--priors", str(priors_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        priors = json.loads(priors_path.read_text())
        assert priors["schema"] == "repro.analytics.priors/v1"
        assert set(priors["sources"]) == {"en", "fr", "es"}

    def test_fail_on_drift_exits_nonzero_on_sequential_sources(
        self, analyze_setup, capsys
    ):
        # the directory walk visits sources sequentially, so the newest window
        # (all-Spanish) alarms against the oldest (all-English) baseline
        model, corpus_dir = analyze_setup
        code = main(
            [
                "analyze",
                "--model", str(model),
                str(corpus_dir),
                "--window", "24",
                "--min-window-docs", "5",
                "--fail-on-drift",
            ]
        )
        assert code == 1
        assert "drift alarm raised" in capsys.readouterr().err

    def test_jsonl_input_with_sources_and_timestamps(
        self, analyze_setup, tmp_path, capsys
    ):
        model, _corpus_dir = analyze_setup
        stream = tmp_path / "stream.jsonl"
        rows = []
        for i in range(12):
            rows.append(
                {
                    "text": "the quick brown fox jumps over the lazy dog",
                    "source": "wire" if i % 2 else "blog",
                    "ts": float(i * 30),
                }
            )
        rows.append({"text": "no source falls back to the file stem", "ts": 330.0})
        stream.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
        assert (
            main(
                [
                    "analyze",
                    "--model", str(model),
                    str(stream),
                    "--timestamp-field", "ts",
                    "--window", "60",
                    "--json",
                ]
            )
            == 0
        )
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot["sources"]) == {"wire", "blog", "stream"}
        assert snapshot["docs_total"] == 13
        # ts runs 0..330 over 60-second windows -> buckets 0..5 retained
        assert [w["bucket"] for w in snapshot["windows"]] == [0, 1, 2, 3, 4, 5]

    def test_jsonl_input_rejects_bad_records(self, analyze_setup, tmp_path, capsys):
        # bad input exits 2, so that exit 1 means only --fail-on-drift's alarm
        model, _corpus_dir = analyze_setup
        bad = tmp_path / "bad.jsonl"
        cases = (('{"text": 42}', "missing or not a string"), ("not json", "invalid JSON"))
        for line, message in cases:
            bad.write_text(line + "\n")
            capsys.readouterr()
            assert main(["analyze", "--model", str(model), str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}:1: ") and message in err

    def test_empty_input_is_an_error(self, analyze_setup, tmp_path, capsys):
        model, _corpus_dir = analyze_setup
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["analyze", "--model", str(model), str(empty)]) == 2
        assert "no documents" in capsys.readouterr().err
