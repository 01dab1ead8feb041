"""Command-line interface: ``repro-langid`` / ``python -m repro``.

Subcommands
-----------
``generate-corpus``
    Write a synthetic multilingual corpus to a directory (one subdirectory per
    language, one text file per document).
``train``
    Train a :class:`~repro.api.identifier.LanguageIdentifier` from a corpus
    directory and save it as a versioned flat model artifact (``model.bin``).
``classify``
    Classify one or more text files (or stdin via ``-``) against a saved model;
    ``--backend`` re-programs the model's profiles into a different engine.
``segment``
    Label single-language *spans* inside mixed-language files using the
    windowed Bloom scorer (:mod:`repro.segment`); ``--json`` emits one JSON
    object per file instead of the human-readable span listing.
``analyze``
    Stream a corpus (JSONL files and/or source directories) through a saved
    model and report per-source language mix, confidence/quality summaries and
    window-over-window drift (:mod:`repro.analytics`), folding each document
    once as it is classified; ``--priors`` writes the per-source
    language-priors artifact, and ``--fail-on-drift`` turns a drift alarm into
    a non-zero exit.
``evaluate``
    Robustness evaluation matrix on a synthetic corpus: sweeps backend × noise
    scenario × document length through :mod:`repro.eval`, printing the accuracy
    grid, degradation curves and confidence calibration (``--json`` for the full
    machine-readable matrix; ``--write-golden``/``--check-golden`` for the
    golden regression flow).
``sweep``
    Run the Table 1 (m, k) sweep on a synthetic corpus and print the table.
``tables``
    Print the analytical reproductions of Tables 2 and 3 and the engine's
    theoretical peak throughput.
``serve``
    Start the asynchronous micro-batching HTTP classification service
    (:mod:`repro.serve`) on a saved model (``--model``) or a versioned model
    registry (``--registry`` [``--model-version``], which also enables the
    ``POST /admin/swap`` blue/green hot-swap endpoint): ``POST /classify``,
    ``GET /healthz``, ``GET /metrics``.
``models``
    Manage a versioned model registry (:mod:`repro.registry`):
    ``models publish`` stores a trained artifact as the next version,
    ``models list`` / ``models inspect`` read manifests, ``models gc``
    retires old versions.

Every command exits 0 on success and 2 on bad input (an invalid setting, a
missing or malformed input file, model artifact or registry version), which
:func:`main` reports as one ``error:`` line on stderr; exit 1 is a verdict
(``analyze --fail-on-drift``, ``evaluate --check-golden``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.reporting import format_percentage, format_table
from repro.analysis.sweep import PAPER_TABLE1_GRID, sweep_bloom_parameters
from repro.analytics import DRIFT_METRICS
from repro.api import ClassifierConfig, LanguageIdentifier, available_backends
from repro.api.config import (
    DEFAULT_STREAM_BATCH_SIZE,
    KNOWN_HASH_FAMILIES,
)
from repro.corpus.corpus import Corpus, Document, build_jrc_acquis_like
from repro.corpus.languages import PAPER_LANGUAGES
from repro.hardware.resources import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    estimate_classifier_resources,
    estimate_device_utilization,
)
from repro.hardware.timing import EngineTiming

__all__ = ["main", "build_parser"]


# --------------------------------------------------------------------- corpus I/O


def _write_corpus(corpus: Corpus, directory: Path) -> None:
    for document in corpus:
        lang_dir = directory / document.language
        lang_dir.mkdir(parents=True, exist_ok=True)
        (lang_dir / f"{document.doc_id}.txt").write_text(document.text, encoding="latin-1")


def _read_corpus(directory: Path) -> Corpus:
    corpus = Corpus()
    for lang_dir in sorted(p for p in directory.iterdir() if p.is_dir()):
        for path in sorted(lang_dir.glob("*.txt")):
            corpus.add(
                Document(
                    doc_id=path.stem,
                    language=lang_dir.name,
                    text=path.read_text(encoding="latin-1"),
                )
            )
    return corpus


# --------------------------------------------------------------------- argument helpers


def _language_list(spec: str) -> list[str]:
    """Parse a comma-separated language list, stripping whitespace around entries."""
    entries = [entry.strip() for entry in spec.split(",")]
    if not entries or any(not entry for entry in entries):
        raise argparse.ArgumentTypeError(
            f"invalid language list {spec!r}: entries must be non-empty "
            "(e.g. --languages 'en, fr, es')"
        )
    return entries


def _resolve_languages(args: argparse.Namespace) -> list[str]:
    return args.languages if args.languages else list(PAPER_LANGUAGES)


def _positive_int(spec: str) -> int:
    value = int(spec)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {spec!r}")
    return value


def _positive_int_list(spec: str) -> list[int]:
    """Parse a comma-separated list of positive integers (e.g. ``--lengths 15,60,250``)."""
    try:
        values = [_positive_int(entry.strip()) for entry in spec.split(",") if entry.strip()]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"invalid integer list {spec!r}: entries must be positive integers"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty integer list {spec!r}")
    return values


def _backend_list(spec: str) -> list[str]:
    """Parse a comma-separated backend list, validating each against the registry."""
    names = [entry.strip() for entry in spec.split(",") if entry.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"empty backend list {spec!r}")
    known = available_backends()
    unknown = [name for name in names if name not in known]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown backends {unknown!r}; available: {known}")
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"duplicate backends in {spec!r}")
    return names


def _member_list(spec: str) -> list[str]:
    """Backend list for ``train --members`` (the ensemble cannot nest itself)."""
    names = _backend_list(spec)
    if "ensemble" in names:
        raise argparse.ArgumentTypeError("the ensemble cannot be its own member")
    return names


def _read_stdin_document() -> str:
    stdin = sys.stdin
    buffer = getattr(stdin, "buffer", None)
    return buffer.read().decode("latin-1") if buffer is not None else stdin.read()


def _ensemble_config_from_args(args: argparse.Namespace):
    """The :class:`~repro.api.config.EnsembleConfig` the flags describe (or None)."""
    if (getattr(args, "backend", None) or "bloom") != "ensemble":
        return None
    from repro.api.config import EnsembleConfig

    kwargs = {}
    members = getattr(args, "members", None)
    if members:
        kwargs["members"] = tuple(members)
    for name in ("min_ngrams", "min_alpha_rate", "tie_margin"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    return EnsembleConfig(**kwargs)


def _config_from_args(args: argparse.Namespace) -> ClassifierConfig:
    return ClassifierConfig(
        n=getattr(args, "ngram", 4),
        t=args.profile_size,
        m_bits=args.m_kbits * 1024,
        k=args.k,
        hash_family=getattr(args, "hash_family", "h3"),
        seed=args.seed,
        subsample_stride=getattr(args, "subsample_stride", 1),
        backend=args.backend or "bloom",
        stream_batch_size=getattr(args, "batch_size", None) or DEFAULT_STREAM_BATCH_SIZE,
        ensemble=_ensemble_config_from_args(args),
    )


# --------------------------------------------------------------------- subcommands


def _cmd_generate_corpus(args: argparse.Namespace) -> int:
    corpus = build_jrc_acquis_like(
        languages=_resolve_languages(args),
        docs_per_language=args.docs_per_language,
        words_per_document=args.words_per_document,
        seed=args.seed,
    )
    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    _write_corpus(corpus, output)
    stats = corpus.stats()
    print(
        f"wrote {stats['documents']} documents in {stats['languages']} languages "
        f"({stats['total_bytes']:,} bytes) to {output}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = _read_corpus(Path(args.corpus))
    identifier = LanguageIdentifier(_config_from_args(args)).train(corpus)
    extras = ""
    if identifier.config.backend == "ensemble":
        backend = identifier.backend
        if not args.no_calibrate:
            # calibrate each member's vote weight on the training documents
            # so the saved artifact votes with measured P(correct) out of the box
            backend.fit_calibrators(
                [doc.text for doc in corpus], [doc.language for doc in corpus]
            )
        if args.priors:
            from repro.api.ensemble import load_priors

            backend.set_priors(load_priors(Path(args.priors)))
        extras = (
            f"; ensemble members={','.join(backend.members)}"
            f" calibrated={backend.calibrated}"
            f" priors_sources={len(backend.priors_sources)}"
        )
    path = identifier.save(Path(args.output))
    config = identifier.config
    print(
        f"trained {len(identifier.languages)} languages "
        f"(backend={config.backend}, n={config.n}, t={config.t}, "
        f"m={config.m_kbits} Kbits, k={config.k}); model saved to {path}{extras}"
    )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from collections import deque

    identifier = LanguageIdentifier.load(Path(args.model), backend=args.backend)
    if args.priors is not None:
        backend = identifier.backend
        if not hasattr(backend, "set_priors"):
            print(
                f"error: --priors needs a prior-aware backend (ensemble); "
                f"this model runs {identifier.config.backend!r}",
                file=sys.stderr,
            )
            return 2
        from repro.api.ensemble import load_priors

        backend.set_priors(load_priors(Path(args.priors)))
    stdin_text: str | None = None
    # Lazily read files inside the generator so memory stays bounded by the
    # stream batch size, not the total corpus; labels are queued as each
    # document is read and dequeued as its result arrives (results come back
    # in input order).
    labels: deque[str] = deque()

    def documents():
        nonlocal stdin_text
        for file_name in args.files:
            if file_name == "-":
                # stdin holds one document; read it once and reuse for repeated '-'.
                if stdin_text is None:
                    stdin_text = _read_stdin_document()
                labels.append("<stdin>")
                yield stdin_text
            else:
                labels.append(file_name)
                yield Path(file_name).read_text(encoding="latin-1")

    # Stream through the vectorized batch path; --batch-size overrides the
    # model configuration's stream_batch_size.
    for result in identifier.classify_stream(
        documents(), batch_size=args.batch_size, source=args.source
    ):
        ranking = ", ".join(f"{lang}={count}" for lang, count in result.ranking()[:3])
        suffix = (
            f"  abstained={result.abstain_reason}"
            if result.abstain_reason is not None
            else ""
        )
        print(
            f"{labels.popleft()}: {result.language}  "
            f"confidence={result.confidence:.2f}  ({ranking}){suffix}"
        )
    return 0


def _cmd_segment(args: argparse.Namespace) -> int:
    import json

    from repro.segment import Segmenter, SegmenterConfig, segmentation_to_json

    config = SegmenterConfig(
        window_ngrams=args.window,
        stride_ngrams=args.stride,
        switch_penalty=args.switch_penalty,
    )
    identifier = LanguageIdentifier.load(Path(args.model), backend=args.backend)
    segmenter = Segmenter(identifier, config)
    stdin_text: str | None = None
    for file_name in args.files:
        if file_name == "-":
            if stdin_text is None:
                stdin_text = _read_stdin_document()
            label, text = "<stdin>", stdin_text
        else:
            label, text = file_name, Path(file_name).read_text(encoding="latin-1")
        result = segmenter.segment(text)
        if args.json:
            print(json.dumps({"file": label, **segmentation_to_json(result)}))
            continue
        print(
            f"{label}: {len(result.spans)} span(s), "
            f"dominant={result.dominant_language or '-'}"
        )
        for span in result.spans:
            snippet = " ".join(text[span.start : span.end].split())[:48]
            print(
                f"  [{span.start:6d}:{span.end:6d}) {span.language:<4} "
                f"confidence={span.confidence:.2f}  {snippet!r}"
            )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json
    import time
    from collections import deque

    from repro.analytics import (
        AnalyticsAggregator,
        AnalyticsConfig,
        render_report,
        write_priors,
    )

    identifier = LanguageIdentifier.load(Path(args.model), backend=args.backend)
    config = AnalyticsConfig(
        window_seconds=args.window,
        max_windows=args.max_windows,
        drift_metric=args.drift_metric,
        drift_threshold=args.drift_threshold,
        confidence_drift_threshold=args.confidence_drift_threshold,
        min_window_docs=args.min_window_docs,
    )
    aggregator = AnalyticsAggregator(config)

    # Results come back in submission order, so per-document metadata rides a
    # queue parallel to the lazy text stream (same pattern as 'classify'); the
    # text is kept so the aggregator can scan it for quality metrics.
    meta: deque[tuple[str, float | None, str]] = deque()

    def jsonl_records(path: Path):
        with path.open(encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{number}: invalid JSON: {exc}") from None
                if not isinstance(record, dict):
                    raise ValueError(f"{path}:{number}: expected a JSON object")
                text = record.get(args.text_field)
                if not isinstance(text, str):
                    raise ValueError(
                        f"{path}:{number}: field {args.text_field!r} missing or not a string"
                    )
                source = record.get(args.source_field)
                source = source if isinstance(source, str) and source else path.stem
                timestamp = None
                if args.timestamp_field is not None:
                    raw = record.get(args.timestamp_field)
                    # json reads NaN and +-Infinity; NaN fails the comparison,
                    # and so does an integer too large for a float
                    if (
                        not isinstance(raw, (int, float))
                        or isinstance(raw, bool)
                        or not abs(raw) <= sys.float_info.max
                    ):
                        raise ValueError(
                            f"{path}:{number}: field "
                            f"{args.timestamp_field!r} missing or not a finite number"
                        )
                    timestamp = float(raw)
                yield text, source, timestamp

    def documents():
        for spec in args.inputs:
            path = Path(spec)
            if path.is_dir():
                # generate-corpus layout: one subdirectory per source
                for sub in sorted(p for p in path.iterdir() if p.is_dir()):
                    for file in sorted(sub.glob("*.txt")):
                        text = file.read_text(encoding="latin-1")
                        meta.append((sub.name, None, text))
                        yield text
                for file in sorted(path.glob("*.txt")):
                    text = file.read_text(encoding="latin-1")
                    meta.append((path.name, None, text))
                    yield text
            else:
                for text, source, timestamp in jsonl_records(path):
                    meta.append((source, timestamp, text))
                    yield text

    started = time.perf_counter()
    index = 0
    for result in identifier.classify_stream(documents(), batch_size=args.batch_size):
        source, timestamp, text = meta.popleft()
        if timestamp is None:
            # no wall clock in the stream: the document index is the monotone
            # axis, making --window "documents per window"
            timestamp = float(index)
        aggregator.update(result, source, timestamp=timestamp, text=text)
        index += 1
    elapsed = time.perf_counter() - started

    if index == 0:
        print("error: no documents found in the given inputs", file=sys.stderr)
        return 2

    snapshot = aggregator.snapshot()
    if args.priors:
        path = write_priors(aggregator.priors(), Path(args.priors))
        print(f"wrote language priors to {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(render_report(snapshot, top_languages=args.top_languages))
        rate = index / elapsed if elapsed > 0 else 0.0
        print(
            f"analyzed {index} documents from {len(aggregator.sources)} source(s) "
            f"in {elapsed:.2f} s ({rate:,.0f} docs/s)"
        )
    if args.fail_on_drift and snapshot["drift"]["alarm"]:
        print("drift alarm raised", file=sys.stderr)
        return 1
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    import json

    from repro.eval import (
        DEFAULT_SCENARIOS,
        compare_to_golden,
        load_golden,
        parse_scenarios,
        run_matrix,
        train_identifiers,
        write_golden,
    )

    from repro.corpus.generator import SyntheticCorpusBuilder

    # the matrix defaults to the paper's *clean* regime (Section 5.1 classifies
    # at ~99.45 %) so the noise scenarios measure degradation from a healthy
    # baseline; the Table-1 sweep's over-blended corpus is the wrong origin here
    corpus = SyntheticCorpusBuilder(
        languages=_resolve_languages(args),
        docs_per_language=args.docs_per_language,
        words_per_document=args.words_per_document,
        seed=args.seed,
        related_blend=args.related_blend,
        boilerplate_fraction=args.boilerplate_fraction,
        boilerplate_extra_blend=args.boilerplate_extra_blend,
    ).build()
    train, test = corpus.split(train_fraction=args.train_fraction, seed=args.seed)

    backends = [args.backend] if args.backend else args.backends
    identifiers = train_identifiers(_config_from_args(args), backends, train)

    scenarios = (
        parse_scenarios(args.scenarios) if args.scenarios else DEFAULT_SCENARIOS
    )
    matrix = run_matrix(
        identifiers,
        test,
        scenarios=scenarios,
        lengths=args.lengths,
        seed=args.seed,
        n_bins=args.bins,
    )

    if args.write_golden:
        path = write_golden(matrix, Path(args.write_golden))
        print(f"wrote golden matrix to {path}", file=sys.stderr)
    drift: list[str] = []
    if args.check_golden:
        drift = compare_to_golden(matrix, load_golden(Path(args.check_golden)))

    if args.json:
        print(json.dumps(matrix.to_json(), indent=2))
    else:
        _print_matrix(matrix)
    for problem in drift:
        print(f"GOLDEN DRIFT: {problem}", file=sys.stderr)
    return 1 if drift else 0


def _print_matrix(matrix) -> None:
    """Human-readable rendering of an evaluation matrix: grid, curves, calibration."""
    rows = []
    for scenario in matrix.scenarios:
        for length in matrix.lengths:
            row = [scenario.name, length]
            for backend in matrix.backends:
                row.append(
                    format_percentage(matrix.cell(backend, scenario.name, length).average_accuracy)
                )
            rows.append(tuple(row))
    print(
        format_table(
            ("scenario", "words", *matrix.backends),
            rows,
            title="Evaluation matrix: average accuracy by backend x scenario x length",
        )
    )
    print()
    curve_rows = []
    for backend in matrix.backends:
        for family in matrix.noise_families():
            points = matrix.accuracy_vs_noise(backend, family)
            curve = " -> ".join(f"{100 * acc:.2f}%@{level:g}" for level, acc in points)
            curve_rows.append((backend, family, curve))
    print(
        format_table(
            ("backend", "noise family", "accuracy vs level (full length)"),
            curve_rows,
            title="Degradation curves",
        )
    )
    print()
    calibration_rows = []
    for backend in matrix.backends:
        cell = matrix.clean_cell(backend)
        calibration_rows.append(
            (
                backend,
                f"{cell.report.mean_confidence:.3f}",
                f"{cell.calibration.ece_raw:.3f}",
                f"{cell.ece:.3f}",
                format_percentage(cell.average_accuracy),
            )
        )
    baseline = matrix.baseline_scenario.name
    print(
        format_table(
            ("backend", "mean raw confidence", "ECE (raw)", "ECE (calibrated)", "accuracy"),
            calibration_rows,
            title=f"Confidence calibration on the {baseline} full-length cell",
        )
    )
    print()
    for backend in matrix.backends:
        cell = matrix.clean_cell(backend)
        print(
            f"{backend}: average accuracy {format_percentage(cell.average_accuracy)} "
            f"({baseline}, {cell.length} words), ECE {cell.ece:.3f}"
        )
    print(
        f"matrix: {len(matrix.cells)} cells over {matrix.documents} documents "
        f"in {matrix.elapsed_seconds:.2f} s"
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    corpus = build_jrc_acquis_like(
        languages=_resolve_languages(args),
        docs_per_language=args.docs_per_language,
        words_per_document=args.words_per_document,
        seed=args.seed,
    )
    train, test = corpus.split(train_fraction=args.train_fraction, seed=args.seed)
    rows = sweep_bloom_parameters(
        train,
        test,
        grid=PAPER_TABLE1_GRID,
        t=args.profile_size,
        seed=args.seed,
        backend=args.backend,
    )
    table_rows = [row.as_table_row() for row in rows]
    print(
        format_table(
            ("m (Kbits)", "k", "expected FP/1000", "measured FP/1000", "avg accuracy"),
            table_rows,
            title="Table 1: accuracy vs Bloom filter parameters",
        )
    )
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    rows2 = []
    for (m_kbits, k), paper in PAPER_TABLE2.items():
        estimate = estimate_classifier_resources(m_kbits * 1024, k)
        rows2.append(
            (m_kbits, k, estimate.logic, paper["logic"], estimate.m4k_blocks, paper["m4k"],
             estimate.fmax_mhz, paper["fmax_mhz"])
        )
    print(
        format_table(
            ("m (Kbits)", "k", "logic (model)", "logic (paper)", "M4K (model)", "M4K (paper)",
             "fmax (model)", "fmax (paper)"),
            rows2,
            title="Table 2: classifier-module resources (model vs paper)",
        )
    )
    print()
    rows3 = []
    for (m_kbits, k, languages), paper in PAPER_TABLE3.items():
        estimate = estimate_device_utilization(m_kbits * 1024, k, languages)
        rows3.append(
            (f"{k}, {m_kbits} Kbits", languages, estimate.logic, paper["logic"],
             estimate.m4k_blocks, paper["m4k"], estimate.fmax_mhz, paper["fmax_mhz"])
        )
    print(
        format_table(
            ("k, m", "languages", "logic (model)", "logic (paper)", "M4K (model)",
             "M4K (paper)", "fmax (model)", "fmax (paper)"),
            rows3,
            title="Table 3: device utilisation (model vs paper)",
        )
    )
    timing = EngineTiming(frequency_mhz=194.0, ngrams_per_clock=8)
    print()
    print(
        f"theoretical engine peak: {timing.ngrams_per_second / 1e6:.0f} M n-grams/s "
        f"= {timing.peak_gb_per_second:.2f} GB/s (paper: 1,552 M n-grams/s = 1.4 GB/s)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.analytics import AnalyticsConfig
    from repro.serve import ClassificationService, ServeConfig, serve_http

    if (args.model is None) == (args.registry is None):
        print("error: serve needs exactly one of --model or --registry", file=sys.stderr)
        return 2

    serve_config = ServeConfig(
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        replicas=args.replicas,
        executor=args.executor,
        cache_size=args.cache_size,
        max_pending=args.max_pending,
        trace_sample_rate=args.trace_sample_rate,
        trace_slow_ms=args.trace_slow_ms,
        analytics=not args.no_analytics,
        analytics_config=AnalyticsConfig(
            window_seconds=args.analytics_window,
            max_windows=args.analytics_max_windows,
            drift_metric=args.drift_metric,
            drift_threshold=args.drift_threshold,
        ),
    )
    logger = None
    if args.log_json:
        from repro.obs import JsonLogger

        logger = JsonLogger(sys.stderr)
    registry = None
    if args.registry is not None:
        from repro.registry import ModelRegistry, ModelSwitch

        registry = ModelRegistry(Path(args.registry))
        record = registry.resolve(args.model_version)
        service = ClassificationService(
            registry.load(record.version),
            serve_config,
            model_version=record.name,
            logger=logger,
        )
        service.switch = ModelSwitch(service, registry)
    else:
        service = ClassificationService(Path(args.model), serve_config, logger=logger)

    async def run() -> None:
        # SIGTERM (kill, a container stop) ends the server the way Ctrl-C
        # does: the serving task is cancelled, and the service drains and
        # closes, which removes the process tier's model files
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        async with service:
            server = await serve_http(service, host=args.host, port=args.port)
            bound = server.sockets[0].getsockname()
            source = (
                f"registry {args.registry} ({service.model_version})"
                if registry is not None
                else f"model {args.model}"
            )
            print(
                f"serving {len(service.languages)} languages from {source} "
                f"on http://{bound[0]}:{bound[1]} "
                f"(max_batch={args.max_batch}, max_delay={args.max_delay_ms} ms, "
                f"replicas={args.replicas} x {args.executor}, "
                f"trace_sample_rate={args.trace_sample_rate})"
            )
            try:
                async with server:
                    await server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                server.close()
                await server.wait_closed()

    try:
        asyncio.run(run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("shutting down (drained in-flight batches)")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    import json

    from repro.registry import ModelRegistry

    registry = ModelRegistry(Path(args.registry))
    if args.models_command == "publish":
        record = registry.publish(
            Path(args.model),
            parent=args.parent,
            activate=not args.no_activate,
        )
        pointer = "LATEST -> " + record.name if not args.no_activate else "not activated"
        print(
            f"published {record.name} ({len(record.languages)} languages, "
            f"fingerprint {record.fingerprint[:12]}…, "
            f"parent {record.parent or '-'}; {pointer})"
        )
    elif args.models_command == "list":
        summary = registry.describe()
        print(
            f"registry {summary['root']}: {summary['versions']} version(s), "
            f"latest={summary['latest'] or '-'}, "
            f"{summary['total_bytes']:,} artifact bytes"
        )
        for record in registry.list():
            marker = "*" if record.name == summary["latest"] else " "
            print(
                f" {marker} {record.name}  fingerprint={record.fingerprint[:12]}…  "
                f"languages={len(record.languages)}  parent={record.parent or '-'}"
            )
    elif args.models_command == "inspect":
        record = registry.resolve(args.version)
        print(json.dumps(record.to_json(), indent=2, sort_keys=True))
    elif args.models_command == "gc":
        removed = registry.gc(keep=args.keep, dry_run=args.dry_run)
        verb = "would remove" if args.dry_run else "removed"
        print(f"{verb} {len(removed)} version(s): {', '.join(removed) or '-'}")
    return 0


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and documentation tools)."""
    parser = argparse.ArgumentParser(
        prog="repro-langid",
        description="Bloom-filter n-gram language classification (HPRCTA'07 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_corpus_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--languages",
            type=_language_list,
            default=None,
            help="comma-separated language codes (whitespace around entries is ignored)",
        )
        p.add_argument("--docs-per-language", type=int, default=50)
        p.add_argument("--words-per-document", type=int, default=600)
        p.add_argument("--seed", type=int, default=0)

    def add_backend_option(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend",
            choices=available_backends(),
            default="bloom",
            help="membership engine to classify with (default: bloom)",
        )

    def add_model_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m-kbits", type=int, default=16)
        p.add_argument("--k", type=int, default=4)
        p.add_argument("--profile-size", type=int, default=5000)

    generate = sub.add_parser("generate-corpus", help="write a synthetic corpus to a directory")
    add_corpus_options(generate)
    generate.add_argument("--output", required=True)
    generate.set_defaults(func=_cmd_generate_corpus)

    def add_batch_size_option(p: argparse.ArgumentParser, default: int | None) -> None:
        p.add_argument(
            "--batch-size",
            type=_positive_int,
            default=default,
            help="documents per vectorized batch/stream step "
            f"(default: the model configuration's value, {DEFAULT_STREAM_BATCH_SIZE} fresh)",
        )

    train = sub.add_parser("train", help="train a model from a corpus directory and save it")
    train.add_argument("--corpus", required=True)
    train.add_argument(
        "--output", required=True,
        help="model artifact path, written verbatim (flat container, e.g. model.bin)",
    )
    train.add_argument("--ngram", type=int, default=4)
    train.add_argument("--hash-family", choices=KNOWN_HASH_FAMILIES, default="h3")
    train.add_argument("--subsample-stride", type=int, default=1)
    train.add_argument("--seed", type=int, default=0)
    add_batch_size_option(train, DEFAULT_STREAM_BATCH_SIZE)
    add_model_options(train)
    add_backend_option(train)
    train.add_argument(
        "--members", type=_member_list, default=None,
        help="comma-separated member backends of an ensemble model "
        "(--backend ensemble only; default: bloom,exact,mguesser)",
    )
    train.add_argument(
        "--min-ngrams", type=_positive_int, default=None,
        help="ensemble gate: abstain (und) on documents with fewer n-grams",
    )
    train.add_argument(
        "--min-alpha-rate", type=float, default=None,
        help="ensemble gate: abstain on documents whose Unicode-letter "
        "fraction is below this (0 disables the gate)",
    )
    train.add_argument(
        "--tie-margin", type=float, default=None,
        help="ensemble gate: abstain when the top two vote scores are within "
        "this margin",
    )
    train.add_argument(
        "--priors", default=None, metavar="PATH",
        help="bake a per-source language-priors artifact "
        "(from 'analyze --priors') into the ensemble model",
    )
    train.add_argument(
        "--no-calibrate", action="store_true",
        help="skip fitting the ensemble's per-member confidence calibrators "
        "on the training corpus (members then vote with raw separation)",
    )
    train.set_defaults(func=_cmd_train)

    classify = sub.add_parser("classify", help="classify text files against a saved model")
    classify.add_argument("--model", required=True, help="model artifact written by 'train'")
    classify.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="override the model's backend (profiles are re-programmed)",
    )
    add_batch_size_option(classify, None)
    classify.add_argument(
        "--source", default=None,
        help="traffic-source tag for every document; prior-aware backends "
        "(ensemble) weight their votes with the source's language priors",
    )
    classify.add_argument(
        "--priors", default=None, metavar="PATH",
        help="install a per-source language-priors artifact before classifying "
        "(ensemble models; overrides any priors baked in at train time)",
    )
    classify.add_argument("files", nargs="+", help="text files to classify; '-' reads stdin")
    classify.set_defaults(func=_cmd_classify)

    segment = sub.add_parser(
        "segment", help="label language spans inside mixed-language files"
    )
    segment.add_argument("--model", required=True, help="model artifact written by 'train'")
    segment.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="override the model's backend (profiles are re-programmed)",
    )
    segment.add_argument(
        "--window", type=_positive_int, default=160,
        help="sliding-window length in n-grams (~characters for 4-grams)",
    )
    segment.add_argument(
        "--stride", type=_positive_int, default=None,
        help="window start spacing in n-grams (default: window/4, overlapping)",
    )
    segment.add_argument(
        "--switch-penalty", type=float, default=0.35,
        help="Viterbi cost of one language switch (normalized emission units; "
        "0 follows each window's winner, inf never switches)",
    )
    segment.add_argument(
        "--json", action="store_true", help="emit one JSON object per file"
    )
    segment.add_argument("files", nargs="+", help="text files to segment; '-' reads stdin")
    segment.set_defaults(func=_cmd_segment)

    analyze = sub.add_parser(
        "analyze",
        help="stream a corpus through a saved model, folding each document "
        "once, and report per-source language mix, quality and drift",
    )
    analyze.add_argument("--model", required=True, help="model artifact written by 'train'")
    analyze.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="override the model's backend (profiles are re-programmed)",
    )
    add_batch_size_option(analyze, None)
    analyze.add_argument(
        "inputs", nargs="+",
        help="JSONL files (one document object per line) and/or corpus "
        "directories (one subdirectory per source, *.txt documents)",
    )
    analyze.add_argument(
        "--text-field", default="text",
        help="JSONL field holding the document text (default: text)",
    )
    analyze.add_argument(
        "--source-field", default="source",
        help="JSONL field attributing the document to a source; documents "
        "without it fall back to the file's stem (default: source)",
    )
    analyze.add_argument(
        "--timestamp-field", default=None,
        help="numeric JSONL field placing the document on the drift time axis "
        "(default: none — the document index is the axis)",
    )
    analyze.add_argument(
        "--window", type=float, default=1000.0,
        help="drift-window width: seconds of --timestamp-field when set, "
        "documents otherwise (default: 1000)",
    )
    analyze.add_argument(
        "--max-windows", type=_positive_int, default=32,
        help="retained drift windows; the oldest retained one is the baseline",
    )
    analyze.add_argument(
        "--drift-metric", choices=DRIFT_METRICS, default="js",
        help="language-mix drift score: Jensen-Shannon divergence or "
        "population stability index (default: js)",
    )
    analyze.add_argument(
        "--drift-threshold", type=float, default=0.1,
        help="language-mix drift score above which a window alarms",
    )
    analyze.add_argument(
        "--confidence-drift-threshold", type=float, default=0.1,
        help="absolute mean-confidence delta above which a window alarms",
    )
    analyze.add_argument(
        "--min-window-docs", type=_positive_int, default=20,
        help="windows with fewer documents never alarm (noise guard)",
    )
    analyze.add_argument(
        "--priors", default=None, metavar="PATH",
        help="write the per-source language-priors artifact (JSON) to PATH",
    )
    analyze.add_argument(
        "--top-languages", type=_positive_int, default=3,
        help="languages listed per source in the report (default: 3)",
    )
    analyze.add_argument(
        "--json", action="store_true",
        help="emit the full analytics snapshot as JSON instead of the report",
    )
    analyze.add_argument(
        "--fail-on-drift", action="store_true",
        help="exit non-zero when the drift alarm is raised",
    )
    analyze.set_defaults(func=_cmd_analyze)

    evaluate = sub.add_parser(
        "evaluate",
        help="robustness evaluation matrix (backend x noise scenario x length) "
        "on a synthetic corpus",
    )
    add_corpus_options(evaluate)
    evaluate.add_argument("--train-fraction", type=float, default=0.20)
    evaluate.add_argument(
        "--related-blend", type=float, default=0.18,
        help="sibling-vocabulary blending of the evaluation corpus",
    )
    evaluate.add_argument(
        "--boilerplate-fraction", type=float, default=0.10,
        help="fraction of boilerplate-heavy (extra-blended) documents",
    )
    evaluate.add_argument(
        "--boilerplate-extra-blend", type=float, default=0.12,
        help="additional blending applied to boilerplate-heavy documents",
    )
    add_model_options(evaluate)
    evaluate.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="evaluate a single backend (shorthand overriding --backends)",
    )
    evaluate.add_argument(
        "--backends",
        type=_backend_list,
        default=["bloom", "exact", "mguesser", "ensemble"],
        help="comma-separated backends to compare "
        "(default: bloom,exact,mguesser,ensemble)",
    )
    evaluate.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated noise scenarios as family[:level] "
        "(families: clean, typo, case, digits, whitespace; "
        "default: the built-in six-scenario matrix)",
    )
    evaluate.add_argument(
        "--lengths",
        type=_positive_int_list,
        default=[15, 60, 250],
        help="comma-separated truncation lengths in words (default: 15,60,250)",
    )
    evaluate.add_argument(
        "--bins", type=_positive_int, default=10,
        help="reliability-bin count for calibration / ECE",
    )
    evaluate.add_argument(
        "--json", action="store_true",
        help="emit the full matrix (cells, curves, calibrators) as JSON",
    )
    evaluate.add_argument(
        "--write-golden", default=None, metavar="PATH",
        help="write the matrix's golden regression payload to PATH",
    )
    evaluate.add_argument(
        "--check-golden", default=None, metavar="PATH",
        help="compare against a golden payload; drift exits non-zero",
    )
    evaluate.set_defaults(func=_cmd_evaluate)

    sweep = sub.add_parser("sweep", help="run the Table 1 (m, k) sweep")
    add_corpus_options(sweep)
    sweep.add_argument("--train-fraction", type=float, default=0.10)
    sweep.add_argument("--profile-size", type=int, default=5000)
    add_backend_option(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    tables = sub.add_parser("tables", help="print the analytical Tables 2/3 reproduction")
    tables.set_defaults(func=_cmd_tables)

    serve = sub.add_parser(
        "serve", help="serve a saved model over HTTP with async micro-batching"
    )
    serve.add_argument(
        "--model", default=None,
        help="model artifact written by 'train' (or use --registry)",
    )
    serve.add_argument(
        "--registry", default=None,
        help="serve from a versioned model registry instead of a single artifact "
        "(enables the POST /admin/swap blue/green hot-swap endpoint)",
    )
    serve.add_argument(
        "--model-version", default="latest",
        help="registry version to serve initially (default: latest)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000, help="0 binds an ephemeral port")
    serve.add_argument(
        "--max-batch", type=_positive_int, default=64,
        help="flush a batch once this many requests are pending",
    )
    serve.add_argument(
        "--max-delay-ms", type=float, default=2.0,
        help="flush a partial batch after the oldest request waited this long",
    )
    serve.add_argument(
        "--replicas", type=_positive_int, default=1,
        help="worker processes classifying concurrently (--executor process; "
        "the thread executor runs exactly one replica)",
    )
    serve.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="replica execution tier: 'thread' (one replica on the serving "
        "thread; the kernel blocks the event loop while it runs) or 'process' "
        "(worker processes mapping one model file; multi-core)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="LRU result-cache entries (0 disables caching)",
    )
    serve.add_argument(
        "--max-pending", type=_positive_int, default=1024,
        help="per-replica queue bound; beyond it requests get 429",
    )
    serve.add_argument(
        "--trace-sample-rate", type=float, default=0.01,
        help="probability a request's trace is retained for GET /debug/traces "
        "(0 disables probabilistic sampling, 1 retains everything; per-stage "
        "latency histograms cover every request regardless)",
    )
    serve.add_argument(
        "--trace-slow-ms", type=float, default=250.0,
        help="requests slower than this are retained even when not sampled "
        "(always-keep slow exemplars)",
    )
    serve.add_argument(
        "--no-analytics", action="store_true",
        help="disable the traffic-analytics plane (GET /stats and the "
        "language-mix / drift gauges in GET /metrics)",
    )
    serve.add_argument(
        "--analytics-window", type=float, default=60.0,
        help="drift-window width in seconds (default: 60)",
    )
    serve.add_argument(
        "--analytics-max-windows", type=_positive_int, default=32,
        help="retained drift windows; the oldest retained one is the baseline",
    )
    serve.add_argument(
        "--drift-metric", choices=DRIFT_METRICS, default="js",
        help="language-mix drift score: Jensen-Shannon divergence or "
        "population stability index (default: js)",
    )
    serve.add_argument(
        "--drift-threshold", type=float, default=0.1,
        help="language-mix drift score above which the drift alarm is raised",
    )
    serve.add_argument(
        "--log-json", action="store_true",
        help="emit one structured JSON line per request and lifecycle event "
        "(swaps, respawns, rejections) on stderr",
    )
    serve.set_defaults(func=_cmd_serve)

    models = sub.add_parser("models", help="manage a versioned model registry")
    models_sub = models.add_subparsers(dest="models_command", required=True)

    publish = models_sub.add_parser(
        "publish", help="store a trained artifact as the next registry version"
    )
    publish.add_argument("--registry", required=True, help="registry directory")
    publish.add_argument("--model", required=True, help="model artifact written by 'train'")
    publish.add_argument(
        "--parent", default=None,
        help="parent version (records retraining lineage in the manifest)",
    )
    publish.add_argument(
        "--no-activate", action="store_true",
        help="publish without repointing LATEST (validate before cutting over)",
    )
    publish.set_defaults(func=_cmd_models)

    models_list = models_sub.add_parser("list", help="list published versions")
    models_list.add_argument("--registry", required=True, help="registry directory")
    models_list.set_defaults(func=_cmd_models)

    inspect = models_sub.add_parser("inspect", help="print one version's manifest as JSON")
    inspect.add_argument("--registry", required=True, help="registry directory")
    inspect.add_argument(
        "--version", default="latest", help="version spec: integer, vNNNNNN, or 'latest'"
    )
    inspect.set_defaults(func=_cmd_models)

    models_gc = models_sub.add_parser("gc", help="retire old versions")
    models_gc.add_argument("--registry", required=True, help="registry directory")
    models_gc.add_argument(
        "--keep", type=_positive_int, default=3,
        help="newest versions to keep (LATEST always survives)",
    )
    models_gc.add_argument(
        "--dry-run", action="store_true", help="report what would be removed"
    )
    models_gc.set_defaults(func=_cmd_models)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: bad input is one ``error:`` line and exit code 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        if not _is_bad_input(exc):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _is_bad_input(exc: Exception) -> bool:
    # imported here: the registry pulls in the serving stack, which no other
    # command needs at start-up
    from repro.registry import RegistryError

    return isinstance(exc, (OSError, ValueError, RegistryError))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
