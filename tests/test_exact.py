from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowkit import exact

INTS = st.integers(-9, 9)
FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def ldu_matrices(draw, entries, singular=False):
    """P L D U with unit-triangular L, U and diagonal D: every nonsingular
    matrix has this form, and a zero in D makes it singular."""
    size = draw(st.integers(1, 8))
    lower, diag, upper = (np.zeros((size, size), dtype=object) for _ in range(3))
    for i in range(size):
        lower[i, i] = upper[i, i] = 1
        diag[i, i] = draw(entries.filter(lambda v: v != 0))
        for j in range(i):
            lower[i, j] = draw(entries)
            upper[j, i] = draw(entries)
    if singular:
        diag[draw(st.integers(0, size - 1))] = 0
    perm = draw(st.permutations(range(size)))
    return (lower @ diag @ upper)[perm]


@given(st.one_of(ldu_matrices(INTS), ldu_matrices(FRACTIONS)))
@settings(max_examples=80, deadline=None)
def test_inverse_is_exact(m):
    inv = exact.inverse(m)
    assert all(type(v) is Fraction for v in inv.flat)
    assert np.array_equal(m @ inv, np.eye(m.shape[0], dtype=int))
    assert np.array_equal(inv @ m, np.eye(m.shape[0], dtype=int))


@given(st.one_of(ldu_matrices(INTS, singular=True), ldu_matrices(FRACTIONS, singular=True)))
@settings(max_examples=40, deadline=None)
def test_inverse_refuses_singular(m):
    with pytest.raises(ZeroDivisionError):
        exact.inverse(m)


def test_inverse_examples():
    m = np.array([[0, 2], [3, 1]], dtype=np.int64)   # needs a row swap
    assert np.array_equal(exact.inverse(m),
                          np.array([[Fraction(-1, 6), Fraction(1, 3)],
                                    [Fraction(1, 2), 0]], dtype=object))
    half = np.array([[Fraction(1, 2)]], dtype=object)
    assert exact.inverse(half)[0, 0] == 2
