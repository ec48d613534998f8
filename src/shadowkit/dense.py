"""Dense operators on n qubits in the vectorized (Liouville) picture.

Conventions used throughout the package:

* Qubit 0 is the *leftmost* tensor factor, so a computational basis state
  ``|x_0 x_1 ... x_{n-1}>`` has the index whose most significant bit is x_0.
* Operators are plain complex numpy arrays of shape ``(2**n, 2**n)``.
* Vectorization is column-major: ``vectorize(A)[i + d*j] = A[i, j]``.
  With this choice ``vectorize(U @ X @ U.conj().T) == np.kron(U.conj(), U)
  @ vectorize(X)``.
"""

import numpy as np

ATOL_UNITARY = 1e-10

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])

# The one dense-size budget (256 MiB as complex128), checked by check_entries.
MAX_ENTRIES = 2 ** 24


def check_entries(entries, what):
    """Refuse, before allocating, a dense array of more than MAX_ENTRIES entries."""
    if entries > MAX_ENTRIES:
        raise ValueError(f"{what} needs {entries} dense entries, over the "
                         f"budget of 2^24 = {MAX_ENTRIES}")


def kron_all(factors):
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def basis_state(x, n):
    """Density matrix |x><x| for an integer outcome x."""
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[x, x] = 1.0
    return rho


def is_unitary(u, atol=ATOL_UNITARY):
    d = u.shape[0]
    return np.allclose(u.conj().T @ u, np.eye(d), atol=atol)


def hs_inner(a, b):
    """Hilbert-Schmidt inner product tr(a^dag b)."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.trace(a.conj().T @ b))


def conjugation_apply(u, x):
    """u x u^dag for unitary u; preserves trace and Hermiticity."""
    if u.shape != x.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {x.shape}")
    if not is_unitary(u):
        raise ValueError("operator is not unitary to tolerance")
    return u @ x @ u.conj().T


def tensor_power(x, t):
    if t < 1:
        raise ValueError("tensor power needs t >= 1")
    d = x.shape[0]
    check_entries((d ** t) ** 2, f"tensor power {d}^{t}")
    out = x
    for _ in range(t - 1):
        out = np.kron(out, x)
    return out


def vectorize(a):
    """Column-major stacking of an operator into a length d**2 vector."""
    return np.asarray(a, dtype=complex).flatten(order="F")


def devectorize(v):
    d = round(len(v) ** 0.5)
    if d * d != len(v):
        raise ValueError("vector length is not a perfect square")
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


def conjugation_superop(u):
    """Matrix of rho -> u rho u^dag acting on vectorized operators."""
    return np.kron(u.conj(), u)
