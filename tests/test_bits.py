import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shadowkit import bits as f2


def test_rank_examples():
    assert f2.rank_f2(np.eye(4, dtype=np.uint8)) == 4
    assert f2.rank_f2(np.zeros((3, 5), dtype=np.uint8)) == 0
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    assert f2.rank_f2(m) == 2  # rows sum to zero


@given(arrays(np.uint8, (5, 7), elements=st.integers(0, 1)))
@settings(max_examples=60, deadline=None)
def test_rref_and_kernel(m):
    rr, pivots = f2.rref_f2(m)
    assert len(pivots) == f2.rank_f2(m)
    rr2, pivots2 = f2.rref_f2(rr)
    assert pivots2 == pivots and (rr2 == rr).all()
    ker = f2.kernel_f2(m)
    assert len(ker) == 7 - len(pivots)
    if len(ker):
        assert (f2.mat_mul_f2(m, ker.T) == 0).all()


def test_batch_rank_matches_scalar():
    rng = np.random.default_rng(0)
    mats = rng.integers(2, size=(50, 6, 6), dtype=np.uint8)
    ranks = f2.rank_f2_batch(mats)
    for m, r in zip(mats, ranks):
        assert f2.rank_f2(m) == r
