"""Full XtremeData XD1000 system model: host + HyperTransport + FPGA classifier.

:class:`XD1000System` composes the pieces of :mod:`repro.system` with the hardware
classifier configuration of :mod:`repro.hardware` and runs whole corpora through the
modelled machine.  Two things come out of a run:

* **functional results** — the per-document classification from the ``bloom``
  backend of :class:`~repro.api.identifier.LanguageIdentifier` (which the hardware
  engine is bit-exact with), so accuracy can be reported alongside throughput;
* **timing** — per-document elapsed host time from the driver model, bounded below
  by the FPGA engine's ingest time, aggregated into a
  :class:`~repro.system.throughput.ThroughputReport`.

This is the object the Figure 4 and Table 4 benchmarks drive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.identifier import LanguageIdentifier
from repro.corpus.corpus import Corpus
from repro.hardware.resources import estimate_device_utilization
from repro.hardware.timing import EngineTiming
from repro.system.host import (
    AsynchronousHostDriver,
    HostTimingParameters,
    SynchronousHostDriver,
)
from repro.system.hypertransport import HyperTransportLink
from repro.system.throughput import ThroughputReport

__all__ = ["XD1000System", "SystemRunReport", "DocumentOutcome"]


@dataclass(frozen=True)
class DocumentOutcome:
    """Functional + timing outcome for one streamed document."""

    doc_id: str
    gold_language: str
    predicted_language: str
    size_bytes: int
    seconds: float

    @property
    def correct(self) -> bool:
        return self.gold_language == self.predicted_language


@dataclass
class SystemRunReport:
    """Outcome of streaming a corpus through the modelled XD1000."""

    driver: str
    outcomes: list[DocumentOutcome]
    throughput: ThroughputReport
    frequency_mhz: float
    ngrams_per_clock: int

    @property
    def n_documents(self) -> int:
        return len(self.outcomes)

    @property
    def accuracy(self) -> float:
        """Fraction of documents classified correctly."""
        if not self.outcomes:
            return 0.0
        return sum(o.correct for o in self.outcomes) / len(self.outcomes)

    @property
    def throughput_mb_s(self) -> float:
        return self.throughput.throughput_mb_s

    @property
    def throughput_with_programming_mb_s(self) -> float:
        return self.throughput.throughput_with_programming_mb_s


class XD1000System:
    """The modelled XD1000 machine running the Bloom-filter language classifier.

    Parameters
    ----------
    m_bits, k, n, t, seed:
        Classifier configuration (defaults: the paper's k=4, m=16 Kbit, 4-grams,
        top-5000 profiles).
    copies, lanes_per_copy:
        Hardware parallelism (4 copies × dual port = 8 n-grams per clock).
    link, host_params:
        Optional overrides of the HyperTransport link and host timing parameters.
    frequency_mhz:
        Clock frequency of the classifier; when omitted it comes from the resource
        model (194 MHz for the 10-language conservative build).
    """

    def __init__(
        self,
        m_bits: int = 16 * 1024,
        k: int = 4,
        n: int = 4,
        t: int = 5000,
        seed: int = 0,
        copies: int = 4,
        lanes_per_copy: int = 2,
        link: HyperTransportLink | None = None,
        host_params: HostTimingParameters | None = None,
        frequency_mhz: float | None = None,
    ):
        self.m_bits = int(m_bits)
        self.k = int(k)
        self.copies = int(copies)
        self.lanes_per_copy = int(lanes_per_copy)
        self.identifier = LanguageIdentifier(m_bits=m_bits, k=k, n=n, t=t, seed=seed)
        self.link = link if link is not None else HyperTransportLink()
        self.host_params = host_params if host_params is not None else HostTimingParameters()
        self._frequency_override = frequency_mhz
        self._programmed_languages = 0

    # ------------------------------------------------------------ configuration

    @property
    def ngrams_per_clock(self) -> int:
        return self.copies * self.lanes_per_copy

    def frequency_mhz(self) -> float:
        """Classifier clock frequency (resource-model estimate unless overridden)."""
        if self._frequency_override is not None:
            return float(self._frequency_override)
        languages = max(1, self._programmed_languages or 10)
        estimate = estimate_device_utilization(self.m_bits, self.k, languages)
        return float(estimate.fmax_mhz)

    def engine_timing(self) -> EngineTiming:
        """Timing summary of the classifier engine at the current configuration."""
        return EngineTiming(
            frequency_mhz=self.frequency_mhz(), ngrams_per_clock=self.ngrams_per_clock
        )

    # ------------------------------------------------------------ programming

    def program_profiles_from_corpus(self, train_corpus: Corpus) -> float:
        """Train profiles from a corpus and return the modelled programming time (s)."""
        self.identifier.train(train_corpus)
        self._programmed_languages = len(self.identifier.languages)
        return self._programming_seconds()

    def program_profiles(self, profiles) -> float:
        """Program prebuilt profiles; returns the modelled programming time (s)."""
        self.identifier.train_profiles(profiles)
        self._programmed_languages = len(self.identifier.languages)
        return self._programming_seconds()

    def _programming_seconds(self) -> float:
        total_ngrams = sum(len(p) for p in self.identifier.profiles.values()) * self.copies
        driver = AsynchronousHostDriver(self.link, self.host_params)
        return driver.programming_seconds(total_ngrams)

    # ------------------------------------------------------------ runs

    def _make_driver(self, driver: str):
        if driver == "synchronous":
            return SynchronousHostDriver(self.link, self.host_params)
        if driver == "asynchronous":
            return AsynchronousHostDriver(self.link, self.host_params)
        raise ValueError("driver must be 'synchronous' or 'asynchronous'")

    def classify_corpus(
        self,
        corpus: Corpus,
        driver: str = "asynchronous",
        classify_functionally: bool = True,
    ) -> SystemRunReport:
        """Stream a corpus through the modelled system.

        Parameters
        ----------
        corpus:
            Documents to stream (the gold labels are only used for the accuracy
            field of the report).
        driver:
            ``"synchronous"`` or ``"asynchronous"`` host driver model.
        classify_functionally:
            If False, skip the (real) classification work and only model timing —
            useful for very large synthetic corpora where only Figure-4-style
            throughput numbers are needed.
        """
        if not self.identifier.is_trained:
            raise RuntimeError("profiles are not programmed; call program_profiles() first")
        host = self._make_driver(driver)
        timing = self.engine_timing()
        engine_seconds_per_byte = 1.0 / (timing.ngrams_per_second)

        documents = list(corpus)
        if classify_functionally:
            predictions = [
                result.language
                for result in self.identifier.classify_batch([doc.text for doc in documents])
            ]
        else:
            predictions = [""] * len(documents)
        outcomes: list[DocumentOutcome] = []
        streaming_seconds = 0.0
        total_bytes = 0
        for document, predicted in zip(documents, predictions):
            size = document.size_bytes
            engine_seconds = size * engine_seconds_per_byte
            doc_timing = host.document_seconds(size, engine_seconds)
            streaming_seconds += doc_timing.total
            total_bytes += size
            outcomes.append(
                DocumentOutcome(
                    doc_id=document.doc_id,
                    gold_language=document.language,
                    predicted_language=predicted,
                    size_bytes=size,
                    seconds=doc_timing.total,
                )
            )
        report = ThroughputReport(
            total_bytes=total_bytes,
            streaming_seconds=streaming_seconds,
            programming_seconds=self._programming_seconds(),
        )
        return SystemRunReport(
            driver=driver,
            outcomes=outcomes,
            throughput=report,
            frequency_mhz=timing.frequency_mhz,
            ngrams_per_clock=self.ngrams_per_clock,
        )

    def throughput_for_sizes(
        self, document_sizes, driver: str = "asynchronous"
    ) -> ThroughputReport:
        """Timing-only run over a list of document sizes (bytes).

        Used to model the paper's full 484 MB / 52 581-document corpus without
        generating that much text.
        """
        host = self._make_driver(driver)
        timing = self.engine_timing()
        engine_seconds_per_byte = 1.0 / timing.ngrams_per_second
        streaming_seconds = 0.0
        total_bytes = 0
        for size in document_sizes:
            streaming_seconds += host.document_seconds(
                int(size), int(size) * engine_seconds_per_byte
            ).total
            total_bytes += int(size)
        return ThroughputReport(
            total_bytes=total_bytes,
            streaming_seconds=streaming_seconds,
            programming_seconds=self._programming_seconds() if self.identifier.is_trained else 0.0,
        )
