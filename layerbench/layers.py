"""Per-layer metrics derived from a traced run's spans.

Span names (see :func:`spans.install_library_spans`) map onto layers:

=================  ===============================================  ==============
span               wraps                                            layer
=================  ===============================================  ==============
``classify_batch``  ``LanguageIdentifier.classify_batch``            facade (self)
``segment``         ``LanguageIdentifier.segment``                   segment spans (self)
``extract``         ``NGramExtractor.extract``                       extract
``hits``            ``<backend>.ngram_hits``                         probe (self)
``hash``            ``HashFamily.hash_all``                          hash
``reduce``          ``repro.api.backends.segment_sums``              reduce
``result``          ``LanguageIdentifier._result_from_counts``       result
``window``          ``WindowedScorer.score``                         window (self)
``smooth``          ``repro.segment.segmenter.viterbi_labels``       smooth
=================  ===============================================  ==============

A layer a workload never calls reports 0.
"""

from __future__ import annotations

import numpy as np

from spans import SpanTable, layer_totals

#: every per-layer metric with its unit, in report order
PER_LAYER_UNITS = {
    "extract.us_per_doc": "us/doc",
    "hash.us_per_doc": "us/doc",
    "probe.us_per_doc": "us/doc",
    "reduce.us_per_doc": "us/doc",
    "result.us_per_doc": "us/doc",
    "facade.self_us_per_doc": "us/doc",
    "hash.keys_per_ngram": "ratio",
    "ngrams_per_doc": "ngrams/doc",
    "segment.hits.us_per_doc": "us/doc",
    "segment.window.us_per_doc": "us/doc",
    "segment.smooth.us_per_doc": "us/doc",
    "segment.spans.us_per_doc": "us/doc",
    "serve.http.self_us": "us/req",
    "serve.service.self_us": "us/req",
    "serve.queue_wait_us": "us/req",
    "serve.dispatch.self_us": "us/call",
    "serve.kernel.us_per_doc": "us/doc",
    "serve.batch_size.mean": "docs/call",
    "serve.cache.hit_ratio": "ratio",
    "coverage.ratio": "ratio",
    "tracing.slowdown_ratio": "ratio",
}

#: coverage below this share flags time missing from the layer table
COVERAGE_FLOOR = 0.90

_LIBRARY_SELF = {
    "extract.us_per_doc": "extract",
    "hash.us_per_doc": "hash",
    "probe.us_per_doc": "hits",
    "reduce.us_per_doc": "reduce",
    "result.us_per_doc": "result",
    "facade.self_us_per_doc": "classify_batch",
    "segment.window.us_per_doc": "window",
    "segment.smooth.us_per_doc": "smooth",
    "segment.spans.us_per_doc": "segment",
}


def empty_metrics() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER_UNITS}


def library_layers(table: SpanTable, scale=None) -> dict[str, float]:
    """Per-document library layer times.

    Documents are those of the ``classify_batch`` and ``segment`` roots.
    Every named layer's self time is part of its root's span, so the layers
    add up to the traced operation time less the wrappers' own cost.
    ``scale`` (one factor per span) multiplies the times.
    """
    totals = layer_totals(table, scale)
    get = lambda name, key: totals.get(name, {}).get(key, 0)  # noqa: E731
    documents = get("classify_batch", "count") + get("segment", "spans")
    metrics = empty_metrics()
    if documents == 0:
        return metrics
    for metric, span in _LIBRARY_SELF.items():
        metrics[metric] = get(span, "self_ns") / documents / 1e3
    if get("segment", "spans"):
        metrics["segment.hits.us_per_doc"] = get("hits", "total_ns") / documents / 1e3
    extracted = get("extract", "count")
    metrics["hash.keys_per_ngram"] = get("hash", "count") / extracted if extracted else 0.0
    metrics["ngrams_per_doc"] = extracted / documents
    return metrics


def library_self_ns(table: SpanTable) -> float:
    """Summed self time of every named library layer."""
    totals = layer_totals(table)
    return sum(totals.get(span, {}).get("self_ns", 0) for span in _LIBRARY_SELF.values())


def serving_layers(table: SpanTable, client: list[tuple[str, int, int]]) -> dict[str, float]:
    """Serving-stage metrics from server events and client round trips.

    ``client`` holds ``(trace id, sent ns, answered ns)`` per request; the
    server's events share the machine's monotonic clock.  Per request:
    round trip = http self + ``classify_traced``; ``classify_traced`` =
    service self + queue wait + pool call (for requests the cache did not
    answer); pool call = dispatch self + kernel, where the kernel is the
    ``classify_batch`` span the pool call covers on the replica thread.
    """
    events = table.events
    requests = {trace_id: (start, end) for trace_id, start, end in events["requests"]}
    submits = events["submits"]
    kernels = np.flatnonzero(table.name == "classify_batch")
    kernels = kernels[np.argsort(table.start[kernels])]
    kernel_starts = table.start[kernels]

    pool_of = {}
    dispatch_ns, kernel_ns, kernel_docs, batch_sizes = [], 0, 0, []
    for start, end, trace_ids in events["pool_calls"]:
        at = int(np.searchsorted(kernel_starts, start))
        if at == len(kernels) or table.end[kernels[at]] > end:
            continue
        kernel = kernels[at]
        dispatch_ns.append(end - start - int(table.duration[kernel]))
        kernel_ns += int(table.duration[kernel])
        kernel_docs += int(table.count[kernel])
        batch_sizes.append(len(trace_ids))
        for trace_id in trace_ids:
            pool_of[trace_id] = (start, end)

    http_ns, service_ns, queue_ns = [], [], []
    matched_ns = total_ns = hits = 0
    for trace_id, sent, answered in client:
        total_ns += answered - sent
        if trace_id not in requests:
            continue
        start, end = requests[trace_id]
        http_ns.append(answered - sent - (end - start))
        if trace_id in submits:
            if trace_id not in pool_of:
                continue
            pool_start, pool_end = pool_of[trace_id]
            queue_ns.append(pool_start - submits[trace_id])
            service_ns.append(end - start - (pool_end - submits[trace_id]))
        else:
            hits += 1
            service_ns.append(end - start)
        matched_ns += answered - sent

    mean_us = lambda values: float(np.mean(values)) / 1e3 if values else 0.0  # noqa: E731
    return {
        "serve.http.self_us": mean_us(http_ns),
        "serve.service.self_us": mean_us(service_ns),
        "serve.queue_wait_us": mean_us(queue_ns),
        "serve.dispatch.self_us": mean_us(dispatch_ns),
        "serve.kernel.us_per_doc": kernel_ns / kernel_docs / 1e3 if kernel_docs else 0.0,
        "serve.batch_size.mean": float(np.mean(batch_sizes)) if batch_sizes else 0.0,
        "serve.cache.hit_ratio": hits / len(http_ns) if http_ns else 0.0,
        "coverage.ratio": matched_ns / total_ns if total_ns else 0.0,
    }
