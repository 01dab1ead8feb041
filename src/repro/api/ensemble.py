"""The ``ensemble`` backend: calibrated voting over several member engines.

The paper's Bloom engine is one weak-but-fast predictor.  Production LID
systems (the impresso ensemble design the ROADMAP cites) win by *combining*
predictors with source metadata and explicit abstention instead of forcing a
label.  This backend closes that loop over the existing machinery:

1. **Fan-out.**  Every document's packed n-grams are handed to each member
   backend's vectorized batch path (members share the surrounding
   :class:`~repro.api.config.ClassifierConfig`, so each member scores the
   whole batch in one pass, never once per document).
2. **Calibrated votes.**  Each member's raw top-vs-runner separation is
   mapped through its fitted
   :class:`~repro.eval.calibration.ConfidenceCalibrator` to a measured
   P(correct), which becomes the weight of its vote for its top language.
   Unfitted members vote with the raw separation (identity calibration).
3. **Per-source priors.**  A ``repro.analytics.priors/v1`` artifact
   (``repro analyze --priors``) supplies ``P(language | source)``; when the
   caller tags a document with its source, the vote totals are multiplied by
   a floor-smoothed prior row — unseen languages are dampened, never vetoed.
4. **Quality gates + abstention.**  Documents with too few n-grams or too low
   an alphabetical rate (:func:`repro.analytics.count_letters`), and
   documents whose top two vote scores tie, return the explicit ``und``
   result with an ``abstain_reason`` instead of a forced label.

Calibrators and priors serialise into the model artifact through the ordinary
``export_state`` / ``import_state`` hooks, so a loaded ensemble is
self-contained.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.api.config import ClassifierConfig, EnsembleConfig
from repro.api.registry import Backend, create_backend, register_backend
from repro.core.ngram import NGramExtractor
from repro.core.profile import LanguageProfile

if TYPE_CHECKING:  # pragma: no cover - the eval package imports the analysis
    # layer, which imports the identifier facade, which imports this module;
    # deferring the calibrator import to call time breaks the cycle
    from repro.eval.calibration import ConfidenceCalibrator


def _calibrator_cls():
    from repro.eval.calibration import ConfidenceCalibrator

    return ConfidenceCalibrator

__all__ = [
    "EnsembleBackend",
    "PRIORS_SCHEMA",
    "ENSEMBLE_SCORE_SCALE",
    "load_priors",
]

#: the only priors artifact schema this backend accepts (see
#: :meth:`repro.analytics.aggregator.AnalyticsAggregator.priors`)
PRIORS_SCHEMA = "repro.analytics.priors/v1"

#: fixed-point scale of the ensemble's vote scores, mirroring the mguesser
#: backend so every backend keeps the hardware's integer counter semantics
ENSEMBLE_SCORE_SCALE = 1_000_000

#: distinct source tags the priors lack that get a warning, one each (as many
#: as the analytics hook keeps apart); later ones fall back to uniform priors
#: silently, so tags a client chooses cannot grow the warning state unbounded
MAX_WARNED_SOURCES = 256

#: smoothing floor added to every prior entry before renormalising — a
#: language a source has never sent is *dampened*, never hard-vetoed
PRIOR_FLOOR = 1e-3

#: abstain_reason values the ensemble can emit
ABSTAIN_TOO_SHORT = "too_short"
ABSTAIN_LOW_ALPHA = "low_alpha_rate"
ABSTAIN_TIE = "tie"
ABSTAIN_NO_VOTES = "no_votes"

#: a document's outcome, in order of precedence (see
#: :meth:`EnsembleBackend.decide_batch`), indexes its abstain reason
_EMPTY, _TOO_SHORT, _LOW_ALPHA, _NO_VOTES, _TIE, _LABELLED = range(6)
_REASONS = (None, ABSTAIN_TOO_SHORT, ABSTAIN_LOW_ALPHA, ABSTAIN_NO_VOTES, ABSTAIN_TIE, None)


def load_priors(path) -> dict:
    """Read a priors artifact from disk (validation happens in ``set_priors``)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@register_backend("ensemble")
class EnsembleBackend(Backend):
    """Calibrated weighted voting over several member backends."""

    def __init__(self, config: ClassifierConfig):
        super().__init__(config)
        self.ensemble_config: EnsembleConfig = config.ensemble or EnsembleConfig()
        # members share every pipeline knob; ensemble=None breaks the recursion
        self.members: dict[str, Backend] = {
            name: create_backend(config.replace(backend=name, ensemble=None))
            for name in self.ensemble_config.members
        }
        self.calibrators: dict[str, ConfidenceCalibrator | None] = {
            name: None for name in self.members
        }
        self._priors: dict[str, dict[str, float]] | None = None
        self._priors_payload: dict | None = None
        self._warned_sources: set[str] = set()
        # for fitting calibrators directly from raw texts (same extraction
        # pipeline the facade runs, rebuilt deterministically from the config)
        self._extractor = NGramExtractor(n=config.n, subsample_stride=config.subsample_stride)

    # ------------------------------------------------------------ training

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        if not profiles:
            raise ValueError("at least one language profile is required")
        for member in self.members.values():
            member.fit_profiles(profiles)
        self.profiles = dict(profiles)

    @property
    def calibrated(self) -> bool:
        """Whether every member carries a fitted calibrator."""
        return all(calib is not None for calib in self.calibrators.values())

    def fit_calibrators(self, texts: Sequence[str | bytes], labels: Sequence[str]) -> None:
        """Fit one calibrator per member from labelled documents.

        The eval matrix calls this with the clean full-length cell; ``repro
        train`` with (a slice of) the training corpus.  Each member classifies
        every document, its raw top-vs-runner separation is paired with
        whether its top language was right, and a monotone
        :class:`~repro.eval.calibration.ConfidenceCalibrator` is fitted on the
        pairs — degenerate fits (all right / all wrong) collapse to the
        documented constant map.
        """
        self._check_trained()
        if len(texts) != len(labels):
            raise ValueError("texts and labels must align")
        if not texts:
            raise ValueError("cannot fit calibrators from zero documents")
        packed, starts, lengths = self._extractor.extract_batch(texts)
        languages = np.asarray(self.languages)
        label_array = np.asarray(list(labels))
        for name, member in self.members.items():
            counts = member.match_counts_batch(packed, starts, lengths)
            top_idx, raw = _top_and_raw_confidence(counts)
            correct = languages[top_idx] == label_array
            self.calibrators[name] = _calibrator_cls().fit(raw, correct)

    # ------------------------------------------------------------ priors

    def set_priors(self, payload: Mapping | None) -> None:
        """Install (or clear) the per-source language-priors artifact.

        Rejects anything that is not a ``repro.analytics.priors/v1`` payload
        with a clear error, so a stale or foreign artifact can never silently
        skew the votes.
        """
        if payload is None:
            self._priors = None
            self._priors_payload = None
            self._warned_sources = set()
            return
        schema = payload.get("schema") if isinstance(payload, Mapping) else None
        if schema != PRIORS_SCHEMA:
            raise ValueError(
                f"unsupported priors artifact schema {schema!r}; "
                f"this ensemble understands only {PRIORS_SCHEMA!r} "
                "(regenerate the artifact with `repro analyze --priors`)"
            )
        sources = payload.get("sources")
        if not isinstance(sources, Mapping):
            raise ValueError("priors artifact is missing its 'sources' table")
        priors: dict[str, dict[str, float]] = {}
        for source, entry in sources.items():
            languages = entry.get("languages") if isinstance(entry, Mapping) else None
            if not isinstance(languages, Mapping):
                raise ValueError(
                    f"priors artifact entry for source {source!r} has no language mix"
                )
            priors[str(source)] = {
                str(lang): float(frac) for lang, frac in languages.items()
            }
        self._priors = priors
        self._priors_payload = {
            "schema": PRIORS_SCHEMA,
            "sources": {
                source: dict(entry) for source, entry in sources.items()
            },
        }
        self._warned_sources = set()

    @property
    def priors_sources(self) -> list[str]:
        """Sources the installed priors artifact covers (empty without priors)."""
        return sorted(self._priors) if self._priors else []

    # ------------------------------------------------------------ voting

    def _vote_batch(
        self,
        packed: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        sources: Sequence[str | None] | None,
    ) -> tuple[np.ndarray, dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
        """Vote scores ``(n_docs, n_langs)`` plus each member's vote breakdown.

        The breakdown maps member name to ``(top_index, raw_confidence,
        weight)`` arrays; a member whose counters are all zero for a document
        casts no vote there (weight 0).
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        n_docs = lengths.size
        languages = self.languages
        n_langs = len(languages)
        scores = np.zeros((n_docs, n_langs), dtype=np.float64)
        breakdown: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        rows = np.arange(n_docs)
        for name, member in self.members.items():
            counts = member.match_counts_batch(packed, starts, lengths)
            top_idx, raw = _top_and_raw_confidence(counts)
            calibrator = self.calibrators.get(name)
            calibrated = np.asarray(calibrator(raw) if calibrator is not None else 1.0)
            # Margin-weighted calibrated vote: P(correct) from the fitted
            # calibrator times the raw top-vs-runner separation.  The margin
            # factor is what lets a confidently-separated minority member
            # outvote two near-duplicate members whose separation collapsed
            # under noise (bloom and exact cast almost identical votes, so
            # unweighted majorities would always side with them).
            weight = calibrated * raw
            # zero evidence → no vote (the argmax index would be arbitrary)
            weight = np.where(counts[rows, top_idx] > 0, weight, 0.0)
            scores[rows, top_idx] += weight
            breakdown[name] = (top_idx, raw, weight)
        if self._priors is not None and sources is not None:
            # one floor-smoothed, renormalised row per distinct source; ones
            # for untagged documents and the sources the artifact lacks
            prior = {None: np.ones(n_langs)}
            for source in dict.fromkeys(sources):
                mix = self._priors.get(source)
                if mix is not None:
                    row = np.asarray([mix.get(lang, 0.0) for lang in languages]) + PRIOR_FLOOR
                    prior[source] = row / row.sum()
                elif (
                    source is not None
                    and source not in self._warned_sources
                    and len(self._warned_sources) < MAX_WARNED_SOURCES
                ):
                    self._warned_sources.add(source)
                    warnings.warn(
                        f"priors artifact has no entry for source {source!r}; "
                        "falling back to uniform priors for it",
                        RuntimeWarning,
                        stacklevel=3,
                    )
            scores *= np.array([prior.get(source, prior[None]) for source in sources])
        return scores, breakdown

    # ------------------------------------------------------------ Backend contract

    def decide_batch(
        self,
        packed: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        texts: Sequence[str | bytes],
        sources: Sequence[str | None],
    ) -> tuple[np.ndarray, np.ndarray, tuple[list, list, list]]:
        """Gates, calibrated votes, priors and abstention for the whole batch.

        A document's outcome is the first of these that holds: no n-gram at
        all (``und`` with no reason), fewer than ``min_ngrams`` n-grams, too
        low an alphabetical rate, no member vote, the top two vote scores
        within ``tie_margin``, and otherwise the top language.  Only a label
        and a tie keep the fixed-point vote scores as counts, and the two
        quality gates drop the member votes.  A label's calibrated confidence
        is its share of the vote.
        """
        self._check_trained()
        scores, breakdown = self._vote_batch(packed, starts, lengths, sources)
        n_docs, n_langs = scores.shape
        policy = self.ensemble_config
        total = scores.sum(axis=1)
        if n_langs > 1:
            # the runner-up lands at n_langs - 2, the top score after it
            runner, top = np.partition(scores, n_langs - 2, axis=1)[:, -2:].T
            outcome = np.where(top - runner <= policy.tie_margin, _TIE, _LABELLED)
        else:
            top, outcome = scores[:, 0], np.full(n_docs, _LABELLED)
        # later outcomes take precedence; weights and priors are never
        # negative, so a document with no vote scores, and counts, zero
        outcome[total <= 0.0] = _NO_VOTES
        counts = np.rint(scores * ENSEMBLE_SCORE_SCALE).astype(np.int64)
        if policy.min_alpha_rate > 0.0 or policy.min_ngrams > 1:
            if policy.min_alpha_rate > 0.0:
                from repro.analytics import count_letters

                # the Unicode-letter fraction of a str; bytes have no letters
                outcome[[
                    isinstance(text, str) and text != ""
                    and count_letters(text) / len(text) < policy.min_alpha_rate
                    for text in texts
                ]] = _LOW_ALPHA
            outcome[lengths < policy.min_ngrams] = _TOO_SHORT
            counts[outcome < _NO_VOTES] = 0
        outcome[lengths == 0] = _EMPTY
        winners = scores.argmax(axis=1)
        winners[outcome != _LABELLED] = -1
        codes = outcome.tolist()
        confidence = [
            top_score / total_score if code == _LABELLED else None
            for top_score, total_score, code in zip(top.tolist(), total.tolist(), codes)
        ]
        # a member whose counters are all zero for a document cast no vote there
        languages = self.languages
        member_votes = [
            [
                {"language": languages[vote] if weight > 0.0 else None,
                 "raw_confidence": raw, "weight": weight}
                for vote, raw, weight in zip(top_idx.tolist(), raws.tolist(), weights.tolist())
            ]
            for top_idx, raws, weights in breakdown.values()
        ]
        votes = [
            None if code < _NO_VOTES else dict(zip(breakdown, doc_votes))
            for code, doc_votes in zip(codes, zip(*member_votes))
        ]
        return counts, winners, (confidence, [_REASONS[code] for code in codes], votes)

    def match_counts_batch(
        self, packed: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Fixed-point vote scores per document (no text gates, no priors)."""
        self._check_trained()
        scores, _ = self._vote_batch(packed, starts, lengths, None)
        return np.round(scores * ENSEMBLE_SCORE_SCALE).astype(np.int64)

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        """Per-n-gram scores for segmentation, delegated to the lead member.

        Windowed segmentation needs per-n-gram membership, where voting over
        whole-window argmaxes has no meaning; the first member's hits are the
        natural primitive (bloom/exact lead the default member list).
        """
        self._check_trained()
        lead = next(iter(self.members.values()))
        return lead.ngram_hits(packed)

    # ------------------------------------------------------------ persistence

    def export_state(self) -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {}
        for name, member in self.members.items():
            for key, array in member.export_state().items():
                state[f"member:{name}:{key}"] = array
        for name, calibrator in self.calibrators.items():
            if calibrator is not None:
                state[f"calib:{name}:raw"] = np.asarray(
                    calibrator.raw_points, dtype=np.float64
                )
                state[f"calib:{name}:cal"] = np.asarray(
                    calibrator.calibrated_points, dtype=np.float64
                )
        if self._priors_payload is not None:
            blob = json.dumps(self._priors_payload, sort_keys=True).encode("utf-8")
            state["priors_json"] = np.frombuffer(blob, dtype=np.uint8)
        return state

    def import_state(
        self, profiles: Mapping[str, LanguageProfile], state: Mapping[str, np.ndarray]
    ) -> None:
        member_state: dict[str, dict[str, np.ndarray]] = {name: {} for name in self.members}
        calib_arrays: dict[str, dict[str, np.ndarray]] = {}
        priors_blob: np.ndarray | None = None
        for key, array in state.items():
            if key.startswith("member:"):
                _, name, sub_key = key.split(":", 2)
                if name in member_state:
                    member_state[name][sub_key] = array
            elif key.startswith("calib:"):
                _, name, which = key.split(":", 2)
                calib_arrays.setdefault(name, {})[which] = array
            elif key == "priors_json":
                priors_blob = array
        for name, member in self.members.items():
            member.import_state(profiles, member_state[name])
        self.profiles = dict(profiles)
        self.calibrators = {name: None for name in self.members}
        for name, arrays in calib_arrays.items():
            if name in self.calibrators and {"raw", "cal"} <= set(arrays):
                self.calibrators[name] = _calibrator_cls()(
                    np.asarray(arrays["raw"], dtype=np.float64),
                    np.asarray(arrays["cal"], dtype=np.float64),
                )
        if priors_blob is not None:
            payload = json.loads(np.asarray(priors_blob, dtype=np.uint8).tobytes().decode("utf-8"))
            self.set_priors(payload)
        else:
            self.set_priors(None)

    # ------------------------------------------------------------ introspection

    def describe(self) -> dict:
        info = super().describe()
        info["members"] = list(self.members)
        info["calibrated_members"] = sorted(
            name for name, calib in self.calibrators.items() if calib is not None
        )
        info["priors_sources"] = self.priors_sources
        info["gates"] = {
            "min_ngrams": self.ensemble_config.min_ngrams,
            "min_alpha_rate": self.ensemble_config.min_alpha_rate,
            "tie_margin": self.ensemble_config.tie_margin,
        }
        return info


def _top_and_raw_confidence(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-document argmax index and raw top-vs-runner separation, vectorized.

    Mirrors :func:`repro.core.classifier.normalized_separation` over a whole
    ``(n_docs, n_langs)`` counter matrix: 0 where the top two tie or nothing
    matched, 1 where no rival matched at all.
    """
    counts = np.asarray(counts)
    n_docs, n_langs = counts.shape
    top_idx = np.argmax(counts, axis=1)
    rows = np.arange(n_docs)
    top = counts[rows, top_idx].astype(np.float64)
    if n_langs > 1:
        partitioned = np.partition(counts, n_langs - 2, axis=1)
        runner = partitioned[:, n_langs - 2].astype(np.float64)
    else:
        runner = np.zeros(n_docs, dtype=np.float64)
    raw = np.zeros(n_docs, dtype=np.float64)
    positive = top > 0
    raw[positive] = np.maximum(0.0, (top[positive] - runner[positive]) / top[positive])
    return top_idx, raw
