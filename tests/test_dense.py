import numpy as np
import pytest

from shadowkit import dense


def test_hs_inner_examples():
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    assert dense.hs_inner(np.eye(2), rho) == pytest.approx(1.0)
    assert dense.hs_inner(dense.Z, dense.Z) == pytest.approx(2.0)
    assert dense.hs_inner(dense.X, dense.Z) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        dense.hs_inner(np.eye(2), np.eye(4))


def test_conjugation_examples():
    rho = dense.basis_state(0, 1)
    assert np.allclose(dense.conjugation_apply(np.eye(2), rho), rho)
    assert np.allclose(dense.conjugation_apply(dense.X, rho), dense.basis_state(1, 1))
    assert np.allclose(dense.conjugation_apply(dense.H, dense.Z), dense.X)
    with pytest.raises(ValueError):
        dense.conjugation_apply(np.array([[1, 1], [0, 1]], dtype=complex), rho)


def test_tensor_power():
    assert np.allclose(dense.tensor_power(np.eye(2), 3), np.eye(8))
    assert np.allclose(dense.tensor_power(dense.Z, 2), np.diag([1, -1, -1, 1]))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for t in (2, 3):
        assert np.trace(dense.tensor_power(x, t)) == pytest.approx(np.trace(x) ** t)
    with pytest.raises(ValueError, match="over the budget of 2\\^24"):
        dense.tensor_power(np.eye(2 ** 7), 2)


def test_vectorize_round_trip_and_inner_product():
    rng = np.random.default_rng(2)
    for d in (2, 4, 8):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.allclose(dense.devectorize(dense.vectorize(a)), a)
        lhs = np.vdot(dense.vectorize(a), dense.vectorize(b))
        assert abs(lhs - dense.hs_inner(a, b)) < 1e-12


def test_conjugation_superop_is_conj_kron():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        z = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
        u, _ = np.linalg.qr(z)
        x = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
        lhs = dense.vectorize(dense.conjugation_apply(u, x))
        rhs = dense.conjugation_superop(u) @ dense.vectorize(x)
        assert np.allclose(lhs, rhs, atol=1e-10)
