"""Linear algebra over F2 on uint8 numpy arrays (0/1 entries)."""

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


def mat_mul_f2(a, b):
    return (np.asarray(a, dtype=np.uint8).astype(np.int64) @
            np.asarray(b, dtype=np.uint8).astype(np.int64)) % 2


def rank_f2_batch(mats):
    """Ranks of a batch of binary matrices, shape (B, rows, cols) -> (B,).

    Rows are packed into little-endian uint64 words (bit c of word c // 64
    is column c).  Column c is cleared from the rows not yet used as a
    pivot by the first of them that has it (which clears itself, and is
    never read again), so no row moves.
    """
    a = np.ascontiguousarray(mats, dtype=np.uint8) & 1
    nb, rows, cols = a.shape
    a = np.pad(a, ((0, 0), (0, 0), (0, -cols % 64)))
    words = np.packbits(a, axis=-1, bitorder="little").view("<u8")
    used = np.zeros((nb, rows), dtype=bool)
    batch = np.arange(nb)
    for c in range(cols):
        if used.all():
            break
        hits = (words[:, :, c // 64] >> (c % 64) & 1).astype(bool) & ~used
        pivot = hits.argmax(axis=1)
        used[batch, pivot] |= hits[batch, pivot]
        words ^= hits[..., None] * words[batch, pivot][:, None, :]
    return used.sum(axis=1)
