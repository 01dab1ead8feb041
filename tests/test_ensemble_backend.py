"""Tests for the ensemble backend: calibrated voting, priors, and abstention.

Covers the voting policy edge cases the ISSUE calls out — ties between
members, documents on which every member abstains, priors artifacts missing a
source (uniform fallback, warned exactly once), schema-version mismatches
rejected loudly, and the quality-gate boundary values — plus the facade's
source threading, artifact round-trips carrying calibrators and priors
bit-exact, and the serving layer's source-aware cache keys and ensemble
metrics.
"""

import asyncio
import json
import warnings

import numpy as np
import pytest

from repro.api import ClassifierConfig, EnsembleConfig, LanguageIdentifier
from repro.api.ensemble import MAX_WARNED_SOURCES, PRIORS_SCHEMA, load_priors
from repro.api.persistence import model_fingerprint
from repro.core.classifier import UNDETERMINED_LANGUAGE
from repro.corpus.corpus import build_jrc_acquis_like
from repro.registry import ModelRegistry, ModelSwitch
from repro.serve import ClassificationService, ServeConfig

LANGS = ["en", "fr", "es"]


@pytest.fixture(scope="module")
def corpus():
    return build_jrc_acquis_like(
        LANGS, docs_per_language=10, words_per_document=200, seed=11
    )


def make_identifier(corpus, **ensemble_kwargs):
    config = ClassifierConfig(
        backend="ensemble",
        m_bits=8 * 1024,
        k=4,
        t=1500,
        seed=1,
        ensemble=EnsembleConfig(**ensemble_kwargs) if ensemble_kwargs else None,
    )
    return LanguageIdentifier(config).train(corpus)


@pytest.fixture(scope="module")
def identifier(corpus):
    return make_identifier(corpus)


@pytest.fixture(scope="module")
def calibrated_identifier(corpus):
    trained = make_identifier(corpus)
    trained.backend.fit_calibrators(
        [doc.text for doc in corpus], [doc.language for doc in corpus]
    )
    return trained


def priors_payload(sources=None):
    if sources is None:
        sources = {"wire": {"en": 0.8, "fr": 0.15, "es": 0.05}}
    return {
        "schema": PRIORS_SCHEMA,
        "sources": {
            name: {"languages": dict(mix), "documents": 100}
            for name, mix in sources.items()
        },
    }


# ------------------------------------------------------------- configuration


class TestEnsembleConfig:
    def test_defaults_and_round_trip(self):
        config = EnsembleConfig()
        assert config.members == ("bloom", "exact", "mguesser")
        restored = EnsembleConfig.from_dict(config.to_dict())
        assert restored == config

    def test_round_trip_through_classifier_config(self):
        config = ClassifierConfig(
            backend="ensemble",
            ensemble=EnsembleConfig(members=("bloom", "mguesser"), tie_margin=0.25),
        )
        restored = ClassifierConfig.from_dict(config.to_dict())
        assert restored.ensemble == config.ensemble

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"members": ()},
            {"members": ("bloom", "bloom")},
            {"members": ("ensemble",)},
            {"members": ("bloom", "")},
            {"min_ngrams": -1},
            {"min_alpha_rate": 1.5},
            {"tie_margin": -0.1},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EnsembleConfig(**kwargs)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown ensemble configuration"):
            EnsembleConfig.from_dict({"members": ["bloom"], "quorum": 2})


# ------------------------------------------------------------- voting policy


class TestVotingAndAbstention:
    def test_agreeing_members_carry_the_vote(self, calibrated_identifier, corpus):
        doc = corpus.documents[0]
        result = calibrated_identifier.classify(doc.text)
        assert result.language == doc.language
        assert result.abstain_reason is None
        assert result.calibrated_confidence is not None
        assert 0.0 < result.calibrated_confidence <= 1.0
        assert set(result.member_votes) == {"bloom", "exact", "mguesser"}
        for vote in result.member_votes.values():
            assert vote["language"] == doc.language
            assert vote["weight"] >= 0.0

    def test_tie_margin_turns_close_votes_into_und(self, corpus):
        # a margin wider than any possible vote score makes every document a tie
        tied = make_identifier(corpus, tie_margin=1e9)
        result = tied.classify(corpus.documents[0].text)
        assert result.language == UNDETERMINED_LANGUAGE
        assert result.abstain_reason == "tie"
        assert result.member_votes is not None

    def test_all_members_without_evidence_abstain(self, corpus):
        # no n-gram of an out-of-alphabet script appears in any member profile,
        # so every member casts a zero-weight vote and the ensemble abstains
        # (mguesser is excluded: its rank-distance scores are never all zero,
        # so it always casts *some* vote — set-membership members abstain)
        matchers = make_identifier(corpus, members=("bloom", "exact"))
        result = matchers.classify("щидфл мывап ղոււթ երկիր")
        assert result.language == UNDETERMINED_LANGUAGE
        assert result.abstain_reason == "no_votes"
        assert all(v["language"] is None for v in result.member_votes.values())

    def test_empty_document_stays_reasonless_und(self, identifier):
        result = identifier.classify("")
        assert result.language == UNDETERMINED_LANGUAGE
        assert result.ngram_count == 0
        assert result.abstain_reason is None

    def test_min_ngrams_gate_boundary(self, corpus):
        text = corpus.documents[0].text[:80]
        count = make_identifier(corpus).classify(text).ngram_count
        assert count > 1
        at_boundary = make_identifier(corpus, min_ngrams=count).classify(text)
        assert at_boundary.abstain_reason is None  # exactly at the gate passes
        below = make_identifier(corpus, min_ngrams=count + 1).classify(text)
        assert below.language == UNDETERMINED_LANGUAGE
        assert below.abstain_reason == "too_short"

    def test_min_alpha_rate_gate_boundary(self, corpus):
        text = "word 12345 6789 01234 5678 90123"  # 4 letters of 32 chars
        rate = 4 / len(text)
        at_boundary = make_identifier(corpus, min_alpha_rate=rate).classify(text)
        assert at_boundary.abstain_reason != "low_alpha_rate"  # rate == gate passes
        gated = make_identifier(corpus, min_alpha_rate=rate * 1.5).classify(text)
        assert gated.language == UNDETERMINED_LANGUAGE
        assert gated.abstain_reason == "low_alpha_rate"

    def test_alpha_gate_skips_byte_documents(self, corpus):
        gated = make_identifier(corpus, min_alpha_rate=0.99)
        text = corpus.documents[0].text
        assert gated.classify(text).abstain_reason == "low_alpha_rate"
        # byte streams have no letter classes: the gate must not fire
        as_bytes = gated.classify(text.encode("utf-8"))
        assert as_bytes.abstain_reason != "low_alpha_rate"

    def test_batch_matches_single_document_path(self, calibrated_identifier, corpus):
        gated = make_identifier(corpus, min_ngrams=12, min_alpha_rate=0.5, tie_margin=0.2)
        gated.backend.fit_calibrators(
            [doc.text[:15] for doc in corpus], [doc.language for doc in corpus]
        )
        gated.backend.set_priors(
            priors_payload({"wire": {"en": 0.8, "fr": 0.2}, "web": {"es": 1.0}})
        )
        texts = [doc.text for doc in corpus.documents[:6]]
        texts += [doc.text[:40] for doc in corpus.documents[::5]]
        texts += [
            "", "olá", "too short", "word 12345 6789 01234 5678 90123",
            "щидфл мывап ղոււթ երկիր", corpus.documents[1].text.encode("utf-8"),
        ]
        sources = [("wire", None, "web", "fax")[i % 4] for i in range(len(texts))]

        def fields(result):
            return (
                result.language,
                result.match_counts,
                result.ngram_count,
                result.calibrated_confidence,
                result.abstain_reason,
                result.member_votes,
            )

        reasons = set()
        for ensemble in (calibrated_identifier, gated):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the unknown source
                batch = ensemble.classify_batch(texts, sources)
                singles = [ensemble.classify(t, s) for t, s in zip(texts, sources)]
            assert [fields(r) for r in batch] == [fields(r) for r in singles]
            reasons |= {r.abstain_reason for r in batch}
        assert {"too_short", "low_alpha_rate", "tie", "no_votes", None} <= reasons


# ------------------------------------------------------------------- priors


class TestPriors:
    def test_schema_mismatch_rejected_with_actionable_error(self, identifier):
        stale = priors_payload()
        stale["schema"] = "repro.analytics.priors/v0"
        with pytest.raises(ValueError, match=r"repro analyze --priors"):
            identifier.backend.set_priors(stale)

    def test_malformed_sources_rejected(self, identifier):
        with pytest.raises(ValueError, match="sources"):
            identifier.backend.set_priors({"schema": PRIORS_SCHEMA})
        with pytest.raises(ValueError, match="language mix"):
            identifier.backend.set_priors(
                {"schema": PRIORS_SCHEMA, "sources": {"wire": {}}}
            )

    def test_missing_source_falls_back_to_uniform_and_warns_once(
        self, corpus
    ):
        tagged = make_identifier(corpus)
        tagged.backend.set_priors(priors_payload())
        text = corpus.documents[0].text
        untagged = tagged.classify(text)
        with pytest.warns(RuntimeWarning, match="no entry for source 'fax'"):
            first = tagged.classify(text, source="fax")
        # uniform fallback: same verdict and scores as an untagged document
        assert first.language == untagged.language
        assert first.match_counts == untagged.match_counts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            second = tagged.classify(text, source="fax")  # warned once, not twice
        assert second.language == first.language

    def test_unknown_source_warnings_stop_at_the_bound(self, corpus):
        # tags come from request bodies: 20,000 distinct ones the priors lack
        # must not grow the warning state (or stderr) past the bound
        tagged = make_identifier(corpus)
        tagged.backend.set_priors(priors_payload())
        sources = [f"tag-{index}" for index in range(20_000)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = tagged.classify_batch(["un document court"] * len(sources), sources)
        assert len(results) == len(sources)
        assert len(caught) == MAX_WARNED_SOURCES
        assert str(caught[-1].message).startswith(
            f"priors artifact has no entry for source 'tag-{MAX_WARNED_SOURCES - 1}'"
        )
        assert len(tagged.backend._warned_sources) == MAX_WARNED_SOURCES

    def test_priors_weigh_but_never_veto(self, corpus):
        # every member votes for the document's true language; a prior that
        # gives that language (floor-smoothed) near-zero mass must not flip
        # the verdict to a language nobody voted for
        biased = make_identifier(corpus)
        doc = next(d for d in corpus.documents if d.language == "fr")
        biased.backend.set_priors(priors_payload({"wire": {"en": 1.0}}))
        result = biased.classify(doc.text, source="wire")
        assert result.language == "fr"

    def test_clearing_priors_restores_untagged_behaviour(self, corpus):
        tagged = make_identifier(corpus)
        text = corpus.documents[0].text
        baseline = tagged.classify(text, source="wire")
        tagged.backend.set_priors(priors_payload())
        assert tagged.backend.priors_sources == ["wire"]
        tagged.backend.set_priors(None)
        assert tagged.backend.priors_sources == []
        assert tagged.classify(text, source="wire").match_counts == baseline.match_counts

    def test_load_priors_reads_artifact_files(self, tmp_path, identifier):
        path = tmp_path / "priors.json"
        path.write_text(json.dumps(priors_payload()), encoding="utf-8")
        identifier.backend.set_priors(load_priors(path))
        assert identifier.backend.priors_sources == ["wire"]
        identifier.backend.set_priors(None)


# ------------------------------------------------------------ source threading


class TestSourceThreading:
    def test_classify_batch_accepts_one_tag_for_the_batch(self, corpus):
        tagged = make_identifier(corpus)
        tagged.backend.set_priors(priors_payload())
        texts = [doc.text for doc in corpus.documents[:3]]
        broadcast = tagged.classify_batch(texts, sources="wire")
        explicit = tagged.classify_batch(texts, sources=["wire"] * 3)
        assert [r.match_counts for r in broadcast] == [r.match_counts for r in explicit]

    def test_misaligned_sources_rejected(self, identifier, corpus):
        texts = [doc.text for doc in corpus.documents[:3]]
        with pytest.raises(ValueError, match="align"):
            identifier.classify_batch(texts, sources=["wire"])

    def test_non_ensemble_backends_ignore_sources(self, corpus):
        config = ClassifierConfig(backend="bloom", m_bits=8 * 1024, k=4, t=1500, seed=1)
        plain = LanguageIdentifier(config).train(corpus)
        doc = corpus.documents[0]
        assert plain.classify(doc.text, source="wire").language == doc.language


# ------------------------------------------------------------------ round-trip


class TestPersistence:
    def test_artifact_round_trips_bit_exact(self, calibrated_identifier, corpus, tmp_path):
        calibrated_identifier.backend.set_priors(priors_payload())
        try:
            path = calibrated_identifier.save(tmp_path / "model.bin")
            restored = LanguageIdentifier.load(path)
            backend = restored.backend
            assert restored.config.backend == "ensemble"
            assert restored.config.ensemble == calibrated_identifier.config.ensemble
            # calibrators and priors ride along byte-exact
            assert backend.calibrated
            for name, calibrator in calibrated_identifier.backend.calibrators.items():
                assert np.array_equal(
                    backend.calibrators[name].raw_points, calibrator.raw_points
                )
                assert np.array_equal(
                    backend.calibrators[name].calibrated_points,
                    calibrator.calibrated_points,
                )
            assert backend.priors_sources == ["wire"]
            texts = [doc.text for doc in corpus.documents[:8]]
            before = calibrated_identifier.classify_batch(texts, sources="wire")
            after = restored.classify_batch(texts, sources="wire")
            assert [r.match_counts for r in after] == [r.match_counts for r in before]
            assert [r.language for r in after] == [r.language for r in before]
        finally:
            calibrated_identifier.backend.set_priors(None)

    def test_priors_change_the_fingerprint(self, corpus):
        plain = make_identifier(corpus)
        with_priors = make_identifier(corpus)
        with_priors.backend.set_priors(priors_payload())
        assert model_fingerprint(plain) != model_fingerprint(with_priors)

    def test_registry_swaps_between_versions_differing_only_in_priors(
        self, corpus, tmp_path
    ):
        plain = make_identifier(corpus)
        with_priors = make_identifier(corpus)
        with_priors.backend.set_priors(priors_payload())
        text = next(d for d in corpus.documents if d.language == "fr").text
        expected = with_priors.classify(text, source="wire").match_counts
        assert expected != plain.classify(text, source="wire").match_counts
        registry = ModelRegistry(tmp_path / "registry")
        blue = registry.publish(plain)
        green = registry.publish(with_priors, activate=False)

        async def main():
            service = ClassificationService(
                registry.load(blue.version), ServeConfig(max_delay_ms=1.0),
                model_version=blue.name,
            )
            async with service:
                report = await ModelSwitch(service, registry).swap_to(green.name)
                answer = await service.classify(text, source="wire")
                return report, service.model_version, answer

        report, serving, answer = asyncio.run(main())
        assert "noop" not in report
        assert serving == green.name
        assert registry.resolve("latest").name == green.name
        assert answer.match_counts == expected


# -------------------------------------------------------------------- serving


class TestEnsembleServing:
    def run(self, coro):
        return asyncio.run(coro)

    def test_cache_keys_cover_the_source(self, calibrated_identifier, corpus):
        calibrated_identifier.backend.set_priors(priors_payload())
        text = corpus.documents[0].text

        async def scenario():
            config = ServeConfig(max_batch=4, max_delay_ms=1.0, replicas=1)
            async with ClassificationService(calibrated_identifier, config) as service:
                await service.classify(text)
                await service.classify(text, source="wire")
                repeat = await service.classify(text, source="wire")
                stats = service.cache.stats()
                # tagged and untagged requests key separately; the repeat hits
                assert stats["misses"] == 2 and stats["hits"] == 1
                assert repeat.member_votes is not None
                snapshot = service.metrics.snapshot()
                return snapshot

        try:
            snapshot = self.run(scenario())
        finally:
            calibrated_identifier.backend.set_priors(None)
        assert snapshot["ensemble_votes_total"] == 3
        assert snapshot["ensemble_unanimous_total"] == 3

    def test_abstentions_surface_in_metrics(self, corpus):
        gated = make_identifier(corpus, min_ngrams=10**6)

        async def scenario():
            config = ServeConfig(max_batch=4, max_delay_ms=1.0, replicas=1)
            async with ClassificationService(gated, config) as service:
                result = await service.classify(corpus.documents[0].text)
                assert result.language == UNDETERMINED_LANGUAGE
                assert result.abstain_reason == "too_short"
                snapshot = service.metrics.snapshot()
                rendered = service.metrics.render_text()
            return snapshot, rendered

        snapshot, rendered = self.run(scenario())
        assert snapshot["abstentions_total"] == 1
        assert snapshot["abstentions_by_reason"] == {"too_short": 1}
        assert 'repro_serve_abstentions_by_reason_total{reason="too_short"} 1' in rendered

    def test_cache_hits_replay_ensemble_fields(self, calibrated_identifier, corpus):
        text = corpus.documents[0].text

        async def scenario():
            config = ServeConfig(max_batch=4, max_delay_ms=1.0, replicas=1)
            async with ClassificationService(calibrated_identifier, config) as service:
                fresh = await service.classify(text)
                # corrupt the caller's copy: the cached entry must stay intact
                fresh.member_votes["bloom"]["language"] = "xx"
                replay = await service.classify(text)
            return replay

        replay = self.run(scenario())
        assert replay.member_votes["bloom"]["language"] != "xx"
        assert replay.calibrated_confidence is not None
