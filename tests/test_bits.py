import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shadowkit import bits as f2

from clifford_oracle import words


def rank(m):
    """Rank over F2 as the pivot count of the row-by-row elimination; an
    oracle independent of the word ``rank_f2_batch``."""
    return len(f2.rref_f2(m)[1])


def test_rank_examples():
    assert rank(np.eye(4, dtype=np.uint8)) == 4
    assert rank(np.zeros((3, 5), dtype=np.uint8)) == 0
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    assert rank(m) == 2  # rows sum to zero


@given(arrays(np.uint8, (5, 7), elements=st.integers(0, 1)))
@settings(max_examples=60, deadline=None)
def test_rref_pivots_are_the_rank_and_rref_is_idempotent(m):
    rr, pivots = f2.rref_f2(m)
    assert len(pivots) == int(f2.rank_f2_batch(words(m)[None])[0])
    rr2, pivots2 = f2.rref_f2(rr)
    assert pivots2 == pivots and (rr2 == rr).all()
    # rr spans the row space of m
    assert int(f2.rank_f2_batch(words(np.vstack([m, rr]))[None])[0]) == len(pivots)


@st.composite
def f2_batches(draw):
    """(count, rows, cols) 0/1 batches of rank at most ``inner``, with an
    optional repeated row, an optional zero row and ``lead`` zero leading
    columns; cols runs up to the 63 bits of a nonnegative int64 word."""
    count = draw(st.integers(0, 4))
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(1, 63))
    inner = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = (rng.integers(2, size=(count, rows, inner))
            @ rng.integers(2, size=(count, inner, cols))) % 2
    if rows > 1 and draw(st.booleans()):
        mats[:, -1] = mats[:, 0]
    if rows and draw(st.booleans()):
        mats[:, rows // 2] = 0
    mats[..., :draw(st.integers(0, cols))] = 0
    return mats.astype(np.uint8)


@given(f2_batches())
@settings(max_examples=200, deadline=None)
def test_batch_rank_matches_scalar(mats):
    ranks = f2.rank_f2_batch(words(mats))
    assert ranks.shape == (len(mats),)
    assert [int(r) for r in ranks] == [rank(m) for m in mats]
