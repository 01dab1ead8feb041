"""Property-based tests (hypothesis) for the analytics fold.

The aggregator folds each document once, into the stat block of its time
window, and moves pruned windows into a per-source archive.  All-time totals
(archive merged with the live windows) must therefore equal a plain
per-source fold of every document, however many windows were pruned and
however late documents arrived; and ``SourceStats.merge``, which builds those
totals, must equal sequential updates for any split of a stream.  These
properties drive randomly generated observation streams through both and
check snapshot equality with plain ``==``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import AnalyticsAggregator, AnalyticsConfig, count_letters
from repro.analytics.stats import SourceStats, quantize_confidence
from repro.core.classifier import ClassificationResult

LANGUAGES = ("en", "fr", "es", "und")
SOURCES = ("alpha", "beta", "gamma")


#: one observation: everything an aggregator update depends on
observations = st.lists(
    st.tuples(
        st.sampled_from(SOURCES),
        st.sampled_from(LANGUAGES),
        st.integers(min_value=0, max_value=1000),  # confidence in milli-units
        st.text(max_size=30),                       # document text
        st.booleans(),                              # cached
        st.integers(min_value=0, max_value=500),    # timestamp
        st.booleans(),                              # scan text for quality?
    ),
    max_size=60,
)


def make_result(language: str, confidence_milli: int) -> ClassificationResult:
    top = 1000
    counts = {language: top}
    if confidence_milli < 1000:
        counts["zz" if language != "zz" else "qq"] = top - confidence_milli
    return ClassificationResult(language=language, match_counts=counts, ngram_count=top)


CONFIG = AnalyticsConfig(window_seconds=50.0, max_windows=4, min_window_docs=1)


@settings(max_examples=80, deadline=None)
@given(observations)
def test_all_time_totals_fold_every_document_whatever_was_pruned(stream):
    aggregator = AnalyticsAggregator(CONFIG)
    reference: dict[str, SourceStats] = {}
    buckets = set()
    for source, language, conf, text, cached, timestamp, scan in stream:
        result = make_result(language, conf)
        kwargs = {"text": text} if scan else {"chars": len(text)}
        aggregator.update(result, source, timestamp=float(timestamp), cached=cached, **kwargs)
        reference.setdefault(source, SourceStats()).update(
            language,
            quantize_confidence(result.confidence),
            len(text),
            result.ngram_count,
            und=language == "und",
            cached=cached,
            alpha_chars=count_letters(text) if scan else None,
        )
        buckets.add(timestamp // 50)
    assert sorted(aggregator.windows) == sorted(buckets)[-CONFIG.max_windows :]
    assert aggregator.docs_total == len(stream)
    totals = aggregator.sources
    assert sorted(totals) == sorted(reference)
    for source, stats in reference.items():
        assert totals[source].snapshot() == stats.snapshot()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(LANGUAGES),
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=0, max_value=300),
        ),
        max_size=50,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_source_stats_sharding_invariant(docs, shards):
    single = SourceStats()
    partials = [SourceStats() for _ in range(shards)]
    for index, (language, conf, chars) in enumerate(docs):
        micro = quantize_confidence(conf / 1000.0)
        single.update(language, micro, chars, und=language == "und",
                      alpha_chars=chars // 2)
        partials[index % shards].update(language, micro, chars,
                                        und=language == "und",
                                        alpha_chars=chars // 2)
    merged = partials[0]
    for partial in partials[1:]:
        merged.merge(partial)
    assert merged.snapshot() == single.snapshot()
