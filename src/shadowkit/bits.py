"""Linear algebra over F2: ``rank_f2_batch`` on the package's int64 row words
(``stabilizer``), and ``rref_f2`` on a 0/1 uint8 matrix, for the exact
engine's 2t-bit subspaces, built once per (t, group) and cached."""

import numpy as np


def rref_f2(m):
    """Reduced row-echelon form over F2; returns (rref, pivot_columns)."""
    a = np.array(m, dtype=np.uint8) & 1
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + hits[0]
        if p != r:
            a[[r, p]] = a[[p, r]]
        others = np.nonzero(a[:, c])[0]
        for i in others:
            if i != r:
                a[i] ^= a[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], tuple(pivots)


def rank_f2_batch(words):
    """Ranks over F2 of a batch of row sets, (B, rows) int64 words -> (B,).

    Bit c is cleared from every row by the first row that has it, which
    clears itself, so a pivot row is zero from then on and no row moves.
    """
    words = np.array(words, dtype=np.int64)
    nb = len(words)
    rank = np.zeros(nb, dtype=np.int64)
    batch = np.arange(nb)
    for c in range(int(words.max(initial=0)).bit_length()):
        hits = (words >> c & 1).astype(bool)
        pivot = hits.argmax(axis=1)
        rank += hits[batch, pivot]
        words ^= hits * words[batch, pivot][:, None]
    return rank
