"""Exact rational matrices: numpy object arrays of ints and fractions.Fraction.

``inverse`` works over the integers: it clears denominators, runs
fraction-free (Bareiss) Gauss-Jordan elimination on Python ints, in which
every division is exact, and divides by the determinant once per entry at
the end.  Fractions are canonical, so the result equals the rational
Gauss-Jordan inverse entry for entry.  ``moments.weingarten_matrix`` calls
it on the small orbital system of a Gram matrix, one unknown per orbital,
not on the Gram matrix itself.
"""

import math
from fractions import Fraction

import numpy as np


def inverse(m):
    """Exact inverse of a square int/Fraction matrix as Fractions; raises
    ZeroDivisionError on singular input."""
    size = m.shape[0]
    den = math.lcm(*(int(x.denominator) for x in m.flat))
    rows = [[int(x.numerator) * (den // int(x.denominator)) for x in m[i]]
            + [int(i == j) for j in range(size)] for i in range(size)]
    prev = 1
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular over the rationals")
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot_row = rows[col]
        p = pivot_row[col]
        for r in range(size):
            if r != col:
                f = rows[r][col]
                # Bareiss: every entry stays a minor of [m*den | I], so // is exact
                rows[r] = [(p * x - f * y) // prev for x, y in zip(rows[r], pivot_row)]
        prev = p
    # the left block is now prev * I and the right block prev * (m*den)^-1
    return np.array([[Fraction(x * den, prev) for x in row[size:]] for row in rows],
                    dtype=object)
