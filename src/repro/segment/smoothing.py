"""The Viterbi decode that turns noisy per-window winners into stable label runs.

Raw per-window argmax flickers wherever two languages score close (boundary
windows, shared boilerplate n-grams, Bloom false positives).
:func:`viterbi_labels` consumes the ``(n_windows, n_languages)`` count matrix
of :class:`~repro.segment.windows.WindowedScorer` and returns the exact
maximum-a-posteriori path of a simple HMM: states are languages, emissions
are the window's normalized per-language score shares, and every language
switch costs ``switch_penalty``.  A one-window blip is kept only if its
evidence outweighs two switches; a penalty of ``0`` follows the per-window
argmax (where no two languages tie), and ``inf`` never switches.  The decode
runs over plain Python floats: a window holds one value per language (about
ten), where a NumPy call costs more than the arithmetic it does.
"""

from __future__ import annotations

import numpy as np

__all__ = ["window_emissions", "viterbi_labels", "DECODE_BLOCK_WINDOWS"]

#: windows per block of the decode: the forward pass turns one block of
#: emission rows into Python floats at a time, and keeps the steps of every
#: block but the last as arrays, a quarter of the memory of lists of floats
#: (one bloom ``segment()`` of a 1 MiB document at window/stride 7/3 decodes
#: 349,523 windows)
DECODE_BLOCK_WINDOWS = 1 << 12


def window_emissions(counts: np.ndarray) -> np.ndarray:
    """Per-window emission scores: each window's counts normalized to shares.

    Normalizing by the window's total makes the emissions scale-invariant, so
    the same switch penalty works for 0/1 Bloom hits and for the fixed-point
    scores of the ``mguesser`` backend.  Windows with no evidence at all emit
    a uniform zero row (every language equally (im)plausible).
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2:
        raise ValueError(f"counts must be (n_windows, n_languages); got {counts.shape}")
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0)


def viterbi_labels(counts: np.ndarray, switch_penalty: float = 0.35) -> np.ndarray:
    """Most likely language index per window under a switch-penalised HMM.

    Dynamic program over ``score[w, l] = emission[w, l] + max(score[w-1, l],
    max_l' score[w-1, l'] - switch_penalty)`` — O(windows x languages).  Both
    passes run over Python floats, so a call makes the same few NumPy calls
    however many windows the document has, and a few more per block of
    :data:`DECODE_BLOCK_WINDOWS` windows past the first.  Python floats are
    IEEE doubles, and each subtraction, comparison and addition is the one a
    float64 NumPy decode does, in the same order, so the labels are
    bit-identical to it (``tests/test_properties.py`` keeps that decode as
    the reference); a full block's steps go through ``int64`` / ``float64``
    arrays and back, which is exact.  Ties
    prefer staying in the current language, and the backward pass prefers
    earlier (training-order) languages, mirroring the classifier's
    deterministic tie-break.

    Parameters
    ----------
    counts:
        ``(n_windows, n_languages)`` window score matrix.
    switch_penalty:
        Cost of one language change, in units of a window's normalized
        emission mass (a full window of unanimous evidence scores 1.0);
        ``inf`` never switches.  NaN is rejected: every comparison with it is
        false, so it would silently never switch either.
    """
    if not switch_penalty >= 0:
        raise ValueError("switch_penalty must be non-negative")
    emissions = window_emissions(counts)
    if emissions.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    # a NumPy scalar penalty would turn every step into NumPy scalar
    # arithmetic, in its own dtype (float32 rounds differently)
    penalty = float(switch_penalty)
    score = emissions[0].tolist()
    # per later window: the best previous language, its score less the
    # penalty, and the previous scores — enough to replay each backpointer;
    # each full block's steps are kept as three arrays
    blocks = []
    steps = []
    for start in range(1, emissions.shape[0], DECODE_BLOCK_WINDOWS):
        if steps:
            blocks.append([np.array(column) for column in zip(*steps)])
            steps = []
        for row in emissions[start : start + DECODE_BLOCK_WINDOWS].tolist():
            best = max(score)
            best_prev = score.index(best)  # first max: training-order tie-break
            switched = best - penalty
            steps.append((best_prev, switched, score))
            score = [(switched if switched > s else s) + e for s, e in zip(score, row)]
    label = score.index(max(score))
    labels = [label]
    while True:
        for best_prev, switched, previous in reversed(steps):
            if switched > previous[label]:  # strict: ties keep the current language
                label = best_prev
            labels.append(label)
        if not blocks:
            break
        steps = list(zip(*(column.tolist() for column in blocks.pop())))
    labels.reverse()
    return np.asarray(labels, dtype=np.int64)

