#!/usr/bin/env python
"""Stream a mixed-language document set through the modelled XtremeData XD1000.

Reproduces the Figure 4 experiment in miniature: the same corpus is streamed with
the interrupt-synchronised host driver and with the asynchronous driver, and the
realised throughput is compared against the engine's theoretical peak and the
HyperTransport link's practical limit.

Run with:  python examples/document_stream.py
"""

from repro.analysis.reporting import format_table, render_bar_chart
from repro.corpus.generator import SyntheticCorpusBuilder
from repro.system.xd1000 import XD1000System


def main() -> None:
    corpus = SyntheticCorpusBuilder(
        languages=("en", "fr", "es", "pt", "fi", "et", "da", "sv", "cs", "sk"),
        docs_per_language=25,
        words_per_document=300,
        seed=5,
    ).build()
    train, test = corpus.split(train_fraction=0.2, seed=5)
    stream = test.shuffled(seed=1)  # interleave languages, like a real document feed

    system = XD1000System(m_bits=16 * 1024, k=4, t=5000, seed=0)
    programming_seconds = system.program_profiles_from_corpus(train)
    print(f"programmed {len(system.identifier.languages)} language profiles "
          f"in a modelled {programming_seconds * 1000:.0f} ms")

    results = {}
    for driver in ("synchronous", "asynchronous"):
        report = system.classify_corpus(stream, driver=driver)
        results[driver] = report
        print(f"\n{driver} driver: {report.throughput_mb_s:.1f} MB/s on "
              f"{report.n_documents} documents ({report.throughput.total_bytes / 1e6:.2f} MB), "
              f"accuracy {100 * report.accuracy:.2f}%")

    # Figure-4 style chart, plus the large-document operating point of the paper.
    large_documents = [9206] * 5000
    sync_large = system.throughput_for_sizes(large_documents, driver="synchronous")
    async_large = system.throughput_for_sizes(large_documents, driver="asynchronous")
    print()
    print(render_bar_chart(
        {
            "This corpus (small docs)": {
                "Synchronous": results["synchronous"].throughput_mb_s,
                "Asynchronous": results["asynchronous"].throughput_mb_s,
            },
            "JRC-Acquis-sized docs (9.2 KB)": {
                "Synchronous": sync_large.throughput_mb_s,
                "Asynchronous": async_large.throughput_mb_s,
            },
        },
        width=40,
        unit="MB/s",
        title="Figure 4 (modelled): host driver comparison",
    ))

    timing = system.engine_timing()
    print()
    print(format_table(
        ("quantity", "value"),
        [
            ("engine clock (MHz)", timing.frequency_mhz),
            ("n-grams per clock", timing.ngrams_per_clock),
            ("engine peak (GB/s)", round(timing.peak_gb_per_second, 2)),
            ("HyperTransport practical limit (MB/s)", 500),
            ("async with programming charged (MB/s)",
             round(async_large.throughput_with_programming_mb_s, 1)),
        ],
        title="Where the bottleneck is",
    ))
    print("\nThe engine could ingest ~1.4 GB/s; the realised rate is capped by the board's "
          "500 MB/s HyperTransport revision, exactly as the paper reports.")


if __name__ == "__main__":
    main()
