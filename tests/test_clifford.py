import hashlib

import numpy as np
import pytest
from scipy import stats

from shadowkit import clifford as cl
from shadowkit import dense
from shadowkit.stabilizer import PauliString


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


def test_to_dense_round_trips_symplectic_action():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        c = cl.sample_uniform(n, rng)
        u = c.to_dense()
        assert dense.is_unitary(u)
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
    phase = h[0, 0] / dense.H[0, 0]
    assert np.allclose(h, phase * dense.H, atol=1e-10)


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
