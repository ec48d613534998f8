"""Linear algebra over F2 on uint8 numpy arrays (0/1 entries)."""

import numpy as np


def rank_f2(m):
    """Rank of a binary matrix over F2. Does not modify the input."""
    a = np.array(m, dtype=np.uint8) & 1
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        pivots = np.nonzero(a[r:, c])[0]
        if pivots.size == 0:
            continue
        p = r + pivots[0]
        if p != r:
            a[[r, p]] = a[[p, r]]
        # clear the column below the pivot
        hits = np.nonzero(a[r + 1:, c])[0]
        a[r + 1 + hits] ^= a[r]
        r += 1
        if r == rows:
            break
    return r


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


def kernel_f2(m):
    """Basis (rows) of the right null space of m over F2; shape (k, cols)."""
    a = np.asarray(m, dtype=np.uint8) & 1
    _, cols = a.shape
    rr, pivots = rref_f2(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, p in zip(rr, pivots):
            if row[f]:
                basis[i, p] = 1
    return basis


def mat_mul_f2(a, b):
    return (np.asarray(a, dtype=np.uint8).astype(np.int64) @
            np.asarray(b, dtype=np.uint8).astype(np.int64)) % 2


def rank_f2_batch(mats):
    """Ranks of a batch of binary matrices, shape (B, rows, cols) -> (B,)."""
    a = np.array(mats, dtype=np.uint8) & 1
    nb, rows, cols = a.shape
    r = np.zeros(nb, dtype=np.int64)
    for c in range(cols):
        # for each batch element, find a pivot row >= r[b] in column c
        col = a[:, :, c]
        rows_idx = np.arange(rows)
        eligible = col.astype(bool) & (rows_idx[None, :] >= r[:, None])
        has = eligible.any(axis=1)
        if not has.any():
            continue
        piv = np.argmax(eligible, axis=1)
        bsel = np.nonzero(has)[0]
        # swap pivot row into position r[b]
        for b in bsel:
            p, q = piv[b], r[b]
            if p != q:
                a[b, [p, q]] = a[b, [q, p]]
        # eliminate every other set entry in column c below r
        col = a[:, :, c]
        mask = col.astype(bool) & (rows_idx[None, :] > r[:, None]) & has[:, None]
        if mask.any():
            bb, rr_ = np.nonzero(mask)
            a[bb, rr_] ^= a[bb, r[bb]]
        r[has] += 1
        if (r == rows).all():
            break
    return r
