"""Exact rational matrices: numpy object arrays of fractions.Fraction."""

from fractions import Fraction

import numpy as np


def identity(n):
    m = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        m[i, i] = Fraction(1)
    return m


def inverse(m):
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = m.shape[0]
    a = m.astype(object).copy()
    inv = identity(n)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r, col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular over the rationals")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            inv[[col, piv]] = inv[[piv, col]]
        scale = a[col, col]
        a[col] = a[col] / scale
        inv[col] = inv[col] / scale
        for r in range(n):
            if r != col and a[r, col] != 0:
                factor = a[r, col]
                a[r] = a[r] - factor * a[col]
                inv[r] = inv[r] - factor * inv[col]
    return inv


def equals(a, b):
    return a.shape == b.shape and bool((a == b).all())
