"""The layered benchmark: one command, four workloads, every answer checked.

Run from the repository root::

    python3 layerbench/run.py --workload batch_short --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
alternates untraced and traced chunks of the same workload and reports the
per-layer metrics from the traced chunks' spans, their coverage of the
traced operation time, and the traced/untraced latency ratio.  The last line
of standard output is one JSON object; a wrong answer makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("batch_short", "batch_long", "segment_mixed", "serve_http")
END_TO_END_UNITS = {
    "setup_s": "s",
    "mb_per_s": "MB/s",
    "latency_p50_ms": "ms",
    "latency_p75_ms": "ms",
    "success_rate": "ratio",
    "accuracy": "ratio",
    "peak_rss_mb": "MB",
}
#: set-ups per run; the reported set-up time is their median
SETUP_REPEATS = 7
SERVE_SETUP_REPEATS = 5
#: length of each untraced / traced chunk of a traced run
CHUNK_SECONDS = 0.5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def alternate(seconds: float, untraced, traced) -> None:
    """Alternate untraced and traced chunks until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        untraced(CHUNK_SECONDS)
        traced(CHUNK_SECONDS)


def run_library(args, workdir: Path) -> tuple[dict, object]:
    import numpy as np

    import layers
    from spans import SpanRecorder, install_library_spans
    from workloads import (
        WARMUP_SECONDS, LibraryRun, ReferenceKernel, Tally, block_throughput, build_corpus,
        call_for, latency_metrics, library_operations, median, scale_factors, scaled_latencies,
        set_up, tail_line,
    )

    train, test = build_corpus()
    train_texts = train.texts_by_language()
    operations = library_operations(args.workload, test, args.seed)
    identifier, _path, setup_times = set_up(
        train_texts, workdir,
        lambda loaded: call_for(args.workload, loaded)(operations[0].argument),
        1 if args.trace else SETUP_REPEATS,
        ReferenceKernel(),
    )
    run = LibraryRun(args.workload, identifier, operations, args.seed)
    run.run(WARMUP_SECONDS, None)
    tally = Tally()
    if not args.trace:
        run.run(args.seconds, tally)
        run.check_samples(tally)
        scaled = scaled_latencies(tally)
        print(f"unscaled: mb_per_s {block_throughput(tally.latencies_ns, tally.op_bytes):.6g}, "
              f"latency_p50_ms {np.median(tally.latencies_ns) / 1e6:.6g}, reference kernel "
              f"median {np.median([ns for _, ns in tally.reference]) / 1e6:.6g} ms")
        print(tail_line(scaled))
        metrics = {
            "setup_s": median(setup_times),
            "mb_per_s": block_throughput(scaled, tally.op_bytes),
            **latency_metrics(scaled),
            "accuracy": tally.correct / tally.scored,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return metrics, tally

    recorder = SpanRecorder()
    traced = Tally()

    def traced_chunk(seconds):
        install_library_spans(recorder, type(identifier.backend))
        try:
            run.run(seconds, traced)
        finally:
            recorder.uninstall()

    alternate(args.seconds, lambda seconds: run.run(seconds, tally), traced_chunk)
    run.check_samples(tally)
    tally.attempted += traced.attempted
    tally.failed += traced.failed
    tally.mismatches += traced.mismatches
    table = recorder.table()
    table.save(workdir / "spans.npz")
    reference = tally.reference + traced.reference
    metrics = layers.library_layers(table, scale_factors(reference, table.start[table.roots()]))
    metrics["coverage.ratio"] = layers.library_self_ns(table) / sum(traced.latencies_ns)
    metrics["tracing.slowdown_ratio"] = float(
        np.median(scaled_latencies(traced)) / np.median(scaled_latencies(tally))
    )
    return metrics, tally


def run_serving(args, workdir: Path) -> tuple[dict, object]:
    import numpy as np

    import layers
    from serving import (
        Client, check_exchanges, encode_request, request_documents, server_argv, start_server,
    )
    from spans import SpanTable
    from workloads import (
        WARMUP_SECONDS, Tally, build_corpus, latency_metrics, median, set_up, tail_line,
        wall_throughput,
    )

    train, test = build_corpus()
    documents, order = request_documents(test, args.seed)
    requests = [encode_request(text) for text, _gold in documents]
    identifier, model, _times = set_up(train.texts_by_language(), workdir, lambda _: None, 1)
    expected = identifier.classify_batch([text for text, _gold in documents])
    golds = [gold for _text, gold in documents]
    probe = requests[-1]
    log = workdir / "server.log"
    tally = Tally()

    if not args.trace:
        setup_times = []
        for repeat in range(SERVE_SETUP_REPEATS):
            server, seconds = start_server(server_argv(model), ROOT, log, probe)
            setup_times.append(seconds)
            if repeat < SERVE_SETUP_REPEATS - 1:
                server.stop()
        try:
            client = Client(server.port, requests, order)
            client.run(WARMUP_SECONDS, record=False)
            client.run(args.seconds)
        finally:
            server.stop()
        exchanges = client.exchanges
        check_exchanges(exchanges, expected, golds, tally)
        latencies = [e.answered_ns - e.sent_ns for e in exchanges]
        print(tail_line(latencies))
        metrics = {
            "setup_s": median(setup_times),
            "mb_per_s": wall_throughput(
                [e.answered_ns for e in exchanges],
                [len(documents[e.document][0].encode("utf-8")) for e in exchanges],
            ),
            **latency_metrics(latencies),
            "accuracy": tally.correct / tally.scored,
            # the largest waited-for child: every child here is a server
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        return metrics, tally

    spans_path = workdir / "server-spans.npz"
    spans_path.unlink(missing_ok=True)
    plain, _ = start_server(server_argv(model), ROOT, log, probe)
    try:
        traced, _ = start_server(server_argv(model, spans_path), ROOT, log, probe)
    except BaseException:
        plain.stop()
        raise
    try:
        plain_client = Client(plain.port, requests, order)
        traced_client = Client(traced.port, requests, order)
        plain_client.run(WARMUP_SECONDS, record=False)
        traced_client.run(WARMUP_SECONDS, record=False)
        start_ns = time.perf_counter_ns()
        alternate(args.seconds, plain_client.run, traced_client.run)
    finally:
        plain.stop()
        traced.stop()
    for client in (plain_client, traced_client):
        check_exchanges(client.exchanges, expected, golds, tally)
    table = SpanTable.load(spans_path).since(start_ns)
    metrics = layers.library_layers(table)
    records = [(e.trace_id, e.sent_ns, e.answered_ns) for e in traced_client.exchanges]
    metrics.update(layers.serving_layers(table, records))
    rtt = lambda client: [e.answered_ns - e.sent_ns for e in client.exchanges]  # noqa: E731
    metrics["tracing.slowdown_ratio"] = float(
        np.median(rtt(traced_client)) / np.median(rtt(plain_client))
    )
    return metrics, tally


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import layers

    workdir = ROOT / ".layerbench" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    runner = run_serving if args.workload == "serve_http" else run_library
    metrics, tally = runner(args, workdir)

    if args.trace:
        units = layers.PER_LAYER_UNITS
        metrics = {**layers.empty_metrics(), **metrics}
    else:
        units = END_TO_END_UNITS
        metrics["success_rate"] = 1.0 - tally.failed / tally.attempted

    print(json.dumps({"workload": args.workload, "seed": args.seed, **environment()}))
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed")
    for message in tally.mismatches:
        print(f"MISMATCH {message}")
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:14.6g} {unit}")
    if args.trace and metrics["coverage.ratio"] < layers.COVERAGE_FLOOR:
        print(f"FLAG: named layers cover only {metrics['coverage.ratio']:.1%} "
              "of traced operation time")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
