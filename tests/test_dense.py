import numpy as np
import pytest

from shadowkit import dense

from dense_oracle import devectorize, tensor_power, vectorize


def test_tensor_power():
    assert np.allclose(tensor_power(np.eye(2), 3), np.eye(8))
    assert np.allclose(tensor_power(dense.Z, 2), np.diag([1, -1, -1, 1]))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for t in (2, 3):
        assert np.trace(tensor_power(x, t)) == pytest.approx(np.trace(x) ** t)
    with pytest.raises(ValueError, match="over the budget of 2\\^24"):
        tensor_power(np.eye(2 ** 7), 2)


def test_vectorize_round_trip_and_inner_product():
    rng = np.random.default_rng(2)
    for d in (2, 4, 8):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.allclose(devectorize(vectorize(a)), a)
        lhs = np.vdot(vectorize(a), vectorize(b))
        # the Hilbert-Schmidt inner product tr(a^dag b)
        assert abs(lhs - np.trace(a.conj().T @ b)) < 1e-12
