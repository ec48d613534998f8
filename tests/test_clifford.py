import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from shadowkit import clifford as cl
from shadowkit.stabilizer import PauliString

from dense_oracle import H, is_unitary


def test_group_orders():
    assert cl.symplectic_order(1) == 6
    assert cl.symplectic_order(2) == 720
    assert cl.clifford_order(1) == 24
    assert cl.clifford_order(2) == 11520


def test_symplectic_enumeration_is_bijective():
    for n in (1, 2):
        seen = set()
        for i in range(cl.symplectic_order(n)):
            s = cl.symplectic_from_index(i, n)
            assert cl.is_symplectic(s)
            seen.add(s.tobytes())
        assert len(seen) == cl.symplectic_order(n)


def test_enumerate_group_counts():
    assert sum(1 for _ in cl.enumerate_group(1)) == 24
    keys = {c.key() for c in cl.enumerate_group(2)}
    assert len(keys) == 11520
    with pytest.raises(ValueError):
        next(cl.enumerate_group(3))


def test_enumeration_closure():
    group1 = list(cl.enumerate_group(1))
    keys = {c.key() for c in group1}
    for a in group1:
        for b in group1:
            assert a.compose(b).key() in keys


def test_closure_sampled_n2():
    group = list(cl.enumerate_group(2))
    keys = {c.key() for c in group}
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = group[rng.integers(len(group))]
        b = group[rng.integers(len(group))]
        assert a.compose(b).key() in keys


def test_sampled_elements_are_symplectic():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            c = cl.sample_uniform(n, rng)
            assert cl.is_symplectic(c.symplectic)


def test_uniformity_n1_chi_square():
    rng = np.random.default_rng(1)
    counts = {}
    draws = 100_000
    for _ in range(draws):
        key = cl.sample_uniform(1, rng).key()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    _, p = stats.chisquare(list(counts.values()))
    assert p > 0.001


def test_uniformity_n2_chi_square_batched():
    """10^6 draws over the 11520 canonical forms (batched symplectic path)."""
    rng = np.random.default_rng(2)
    draws = 1_000_000
    counts = {}
    done = 0
    while done < draws:
        b = min(20_000, draws - done)
        mats = cl.sample_symplectic_batch(2, rng, b)
        alphas = rng.integers(2, size=(b, 4), dtype=np.uint8)
        for s, a in zip(mats, alphas):
            key = (s.tobytes(), a.tobytes())
            counts[key] = counts.get(key, 0) + 1
        done += b
    assert len(counts) == 11520
    _, p = stats.chisquare(list(counts.values()))
    assert p > 0.001


PINNED_NS = (1, 2, 3, 10, 31)


def test_sample_uniform_bytes_are_pinned():
    """Exact output for a fixed seed: the draws-to-matrix map never changes."""
    h = hashlib.sha256()
    for n in PINNED_NS:
        h.update(cl.sample_uniform(n, np.random.default_rng(2212)).to_hex().encode())
    assert h.hexdigest() == "2dd8319a8a462cc15287ff184c74a525051cfa0c7b31c359d4d90a2a0aef4407"


def test_sample_symplectic_batch_bytes_are_pinned():
    h = hashlib.sha256()
    for n in PINNED_NS:
        h.update(cl.sample_symplectic_batch(n, np.random.default_rng(2212), 8).tobytes())
    assert h.hexdigest() == "5ed05662704b4f790fd6e5fef1ccaaee88540b8ca99370057ac8fde6ec38ef40"


def test_n31_batch_bytes_are_pinned():
    """A count-512 batch at the largest n, which fills word bits 32..61."""
    mats = cl.sample_symplectic_batch(31, np.random.default_rng(3131), 512)
    assert hashlib.sha256(mats.tobytes()).hexdigest() == \
        "a3fc0bcdd36e23de0f522f09f6dc05d42f65b4ed092d915f62ec30b22b459376"


@pytest.mark.parametrize("n", [1, 2, 10, 31])
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 2), min_size=4, max_size=6))
@settings(max_examples=20, deadline=None)
def test_sample_uniform_streams_is_one_draw_per_entry(n, seed, picks):
    """Entry i of ``sample_uniform_streams`` is ``sample_uniform`` on stream i,
    in list order, with three streams for four or more entries so some stream
    repeats: the same bytes, and every stream's next draws agree."""
    def fresh():
        return [np.random.default_rng([seed, j]) for j in range(3)]
    a, b = fresh(), fresh()
    got = cl.sample_uniform_streams(n, [a[j] for j in picks])
    want = [cl.sample_uniform(n, b[j]) for j in picks]
    assert [c.to_hex() for c in got] == [c.to_hex() for c in want]
    for ra, rb in zip(a, b):
        assert ra.integers(2) == rb.integers(2)
        assert ra.integers(1 << 62) == rb.integers(1 << 62)


def test_n31_batch_is_symplectic():
    mats = cl.sample_symplectic_batch(31, np.random.default_rng(31), 256)
    assert all(cl.is_symplectic(s) for s in mats)


@pytest.mark.parametrize("n", [0, -1, cl.MAX_SAMPLED_N + 1, 64])
def test_sampler_refuses_n_out_of_range(n):
    with pytest.raises(ValueError, match=f"n <= {cl.MAX_SAMPLED_N}"):
        cl.sample_symplectic_batch(n, np.random.default_rng(0), 2)
    with pytest.raises(ValueError, match=f"n <= {cl.MAX_SAMPLED_N}"):
        cl.symplectic_from_index(0, n)


def test_to_dense_round_trips_symplectic_action():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        c = cl.sample_uniform(n, rng)
        u = c.to_dense()
        assert is_unitary(u)
        # read the symplectic/phase data back off the dense conjugation
        for j in range(2 * n):
            bits = np.zeros(2 * n, dtype=np.uint8)
            bits[j] = 1
            p = PauliString(bits[:n], bits[n:], int(np.dot(bits[:n], bits[n:])))
            img = c.conjugate_pauli(p)
            assert np.allclose(u @ p.dense() @ u.conj().T, img.dense(), atol=1e-10)


def test_identity_and_hadamard_dense():
    assert np.allclose(cl.CliffordElement.identity(2).to_dense(), np.eye(4))
    h = cl.CliffordElement(np.array([[0, 1], [1, 0]], dtype=np.uint8),
                           np.zeros(2, dtype=np.uint8)).to_dense()
    phase = h[0, 0] / H[0, 0]
    assert np.allclose(h, phase * H, atol=1e-10)


def test_to_dense_at_n7_is_unitary():
    u = cl.sample_uniform(7, np.random.default_rng(9)).to_dense()
    assert u.shape == (128, 128) and is_unitary(u)


def test_compose_against_dense_product():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3):
        for _ in range(10):
            a, b = cl.sample_uniform(n, rng), cl.sample_uniform(n, rng)
            m = a.to_dense() @ b.to_dense() @ a.compose(b).to_dense().conj().T
            assert np.allclose(m, m[0, 0] * np.eye(2 ** n), atol=1e-9)
            assert abs(abs(m[0, 0]) - 1) < 1e-9


def test_compose_associativity_and_inverse():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c = (cl.sample_uniform(3, rng) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))
        assert a.compose(a.inverse()) == cl.CliffordElement.identity(3)
        assert a.inverse().compose(a) == cl.CliffordElement.identity(3)


@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_inverse_is_the_dense_adjoint(n, seed):
    """``inverse`` against the dense adjoint up to a global phase; a sign
    convention shared by ``compose`` and ``inverse`` would still give
    a.compose(a.inverse()) == identity."""
    a = cl.sample_uniform(n, np.random.default_rng(seed))
    got, want = a.inverse().to_dense(), a.to_dense().conj().T
    i = np.unravel_index(np.argmax(np.abs(want)), want.shape)
    phase = got[i] / want[i]
    assert abs(abs(phase) - 1) < 1e-9
    assert np.allclose(got, phase * want, atol=1e-9)


def test_hex_round_trip():
    rng = np.random.default_rng(8)
    for n in (1, 2, 5):
        c = cl.sample_uniform(n, rng)
        assert cl.CliffordElement.from_hex(n, c.to_hex()) == c


def test_conjugation_tableau_vs_dense_on_random_paulis():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            c = cl.sample_uniform(n, rng)
            p = PauliString.random(n, rng)
            img = c.conjugate_pauli(p)
            assert img.is_hermitian()
            if n <= 3:
                u = c.to_dense()
                assert np.allclose(u @ p.dense() @ u.conj().T, img.dense(), atol=1e-10)


@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 8), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_conjugate_rows_batch_is_per_element_conjugate_rows(n, count, rows, seed):
    """The batched kernel on stacked elements and row blocks gives the same
    integers as each element's ``conjugate_rows`` on its own block."""
    rng = np.random.default_rng(seed)
    elements = cl.sample_uniform_batch(n, rng, count)
    xs = rng.integers(2, size=(count, rows, n), dtype=np.uint8)
    zs = rng.integers(2, size=(count, rows, n), dtype=np.uint8)
    phases = rng.integers(4, size=(count, rows))
    got = cl.conjugate_rows_batch(elements, xs, zs, phases)
    for b, e in enumerate(elements):
        want = e.conjugate_rows(xs[b], zs[b], phases[b])
        for g, w in zip(got, want):
            assert g[b].dtype == w.dtype and np.array_equal(g[b], w)
