"""Blue/green shadow comparison: candidate model vs live model, same traffic.

The registry's open validation gap (ROADMAP: "registry-level candidate
validation before cutover") needs a measurement, not a vibe: before
``POST /admin/swap`` rolls the fleet onto a green model, mirror a window of
the blue (live) model's traffic through the candidate and *diff the outcomes*.

:class:`ShadowComparison` accumulates, with the same exact-integer discipline
as :mod:`repro.analytics.stats`:

* **label disagreement** — total and per source, plus the top blue→green
  label flip pairs (the qualitative shape of the change);
* **confidence delta** — mean ``green - blue`` confidence in micro-units
  (a candidate that is systematically *less* sure on live traffic is a
  degradation signal even when labels agree);
* two embedded :class:`~repro.analytics.stats.SourceStats` tables, one per
  side, whose snapshot diff gives the candidate's language-mix displacement
  (Jensen–Shannon, per source).

:meth:`report` folds these into a verdict with a ``recommend_swap`` bool;
:meth:`~repro.registry.switch.ModelSwitch.shadow_compare` wires it to the
registry and a running service.
"""

from __future__ import annotations

from collections import Counter

from repro.analytics.drift import jensen_shannon_divergence
from repro.analytics.stats import CONFIDENCE_SCALE, SourceStats, quantize_confidence

__all__ = ["ShadowComparison"]

#: default acceptance ceilings for recommend_swap
DEFAULT_MAX_DISAGREEMENT_RATE = 0.02
DEFAULT_MAX_CONFIDENCE_DROP = 0.05


class ShadowComparison:
    """Integer counters diffing two models over one mirrored traffic window."""

    def __init__(self):
        self.docs_total = 0
        self.disagreements_total = 0
        self.disagreements_by_source: Counter[str] = Counter()
        self.docs_by_source: Counter[str] = Counter()
        #: (blue_label, green_label) -> count, disagreeing documents only
        self.flips: Counter[tuple[str, str]] = Counter()
        self.confidence_delta_micro = 0
        self.blue = SourceStats()
        self.green = SourceStats()

    # ------------------------------------------------------------ recording

    def update(self, blue_result, green_result, source: str = "_default") -> None:
        """Fold one mirrored document's (blue, green) result pair in."""
        self.docs_total += 1
        self.docs_by_source[source] += 1
        blue_label = blue_result.language
        green_label = green_result.language
        if blue_label != green_label:
            self.disagreements_total += 1
            self.disagreements_by_source[source] += 1
            self.flips[(blue_label, green_label)] += 1
        blue_micro = quantize_confidence(blue_result.confidence)
        green_micro = quantize_confidence(green_result.confidence)
        self.confidence_delta_micro += green_micro - blue_micro
        chars = 0  # volume is tracked by the live path; the diff needs labels
        self.blue.update(blue_label, blue_micro, chars, blue_result.ngram_count)
        self.green.update(green_label, green_micro, chars, green_result.ngram_count)

    def update_batch(self, blue_results, green_results, sources=None) -> None:
        """Fold aligned result sequences in (``sources`` parallel or None)."""
        if len(blue_results) != len(green_results):
            raise ValueError(
                f"mirrored result lengths differ: {len(blue_results)} blue vs "
                f"{len(green_results)} green"
            )
        if sources is not None and len(sources) != len(blue_results):
            raise ValueError("sources must align with the mirrored results")
        for index, (blue, green) in enumerate(zip(blue_results, green_results)):
            source = sources[index] if sources is not None else "_default"
            self.update(blue, green, source)

    # ------------------------------------------------------------ derived

    @property
    def disagreement_rate(self) -> float:
        return self.disagreements_total / self.docs_total if self.docs_total else 0.0

    @property
    def mean_confidence_delta(self) -> float:
        """Mean ``green - blue`` confidence (negative: candidate is less sure)."""
        if not self.docs_total:
            return 0.0
        return self.confidence_delta_micro / (self.docs_total * CONFIDENCE_SCALE)

    def report(
        self,
        *,
        max_disagreement_rate: float = DEFAULT_MAX_DISAGREEMENT_RATE,
        max_confidence_drop: float = DEFAULT_MAX_CONFIDENCE_DROP,
        top_flips: int = 10,
    ) -> dict:
        """The shadow verdict: counters, per-source diffs, ``recommend_swap``."""
        per_source = {}
        for source in sorted(self.docs_by_source):
            docs = self.docs_by_source[source]
            disagreements = self.disagreements_by_source.get(source, 0)
            per_source[source] = {
                "docs": docs,
                "disagreements": disagreements,
                "disagreement_rate": disagreements / docs if docs else 0.0,
            }
        flips = [
            {"blue": blue, "green": green, "count": count}
            for (blue, green), count in sorted(
                self.flips.items(), key=lambda item: (-item[1], item[0])
            )[:top_flips]
        ]
        mix_divergence = jensen_shannon_divergence(
            self.blue.language_mix, self.green.language_mix
        )
        rate_ok = self.disagreement_rate <= max_disagreement_rate
        confidence_ok = self.mean_confidence_delta >= -max_confidence_drop
        return {
            "docs": self.docs_total,
            "disagreements": self.disagreements_total,
            "disagreement_rate": self.disagreement_rate,
            "max_disagreement_rate": max_disagreement_rate,
            "mean_confidence_delta": self.mean_confidence_delta,
            "max_confidence_drop": max_confidence_drop,
            "language_mix_divergence": mix_divergence,
            "blue_language_mix": self.blue.language_mix,
            "green_language_mix": self.green.language_mix,
            "top_flips": flips,
            "sources": per_source,
            "recommend_swap": bool(self.docs_total) and rate_ok and confidence_ok,
        }
