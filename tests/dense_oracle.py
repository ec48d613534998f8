"""Dense oracles for the circuit and estimator paths.

The library never builds the unitary of a T-gate circuit; these helpers do,
as the product of its Clifford segments and T gates, so the branch paths can
be checked against plain 2^n x 2^n linear algebra.  They also hold the
vectorized (Liouville) picture: vectorization is column-major,
``vectorize(A)[i + d*j] = A[i, j]``, so that ``vectorize(U @ X @ U.conj().T)
== np.kron(U.conj(), U) @ vectorize(X)``, and the frame operators act on
vectorized operators.
"""

import numpy as np

from shadowkit import clifford as cl
from shadowkit.dense import check_entries
from shadowkit.ensembles import sample_circuit

ATOL_UNITARY = 1e-10

Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])


def basis_state(x, n):
    """Density matrix |x><x| for an integer outcome x."""
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[x, x] = 1.0
    return rho


def is_unitary(u, atol=ATOL_UNITARY):
    d = u.shape[0]
    return np.allclose(u.conj().T @ u, np.eye(d), atol=atol)


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


# Frame operator: F = sum_x E_U U^dag|x><x|U (x) conj, as a matrix acting on
# vectorized operators.

def _frame_contribution(u, out):
    dim = u.shape[0]
    for x in range(dim):
        a = u.conj().T @ basis_state(x, dim.bit_length() - 1) @ u
        v = vectorize(a)
        out += np.outer(v, v.conj())


def frame_operator_empirical(spec, samples, rng):
    """Monte-Carlo estimate of the frame operator, 4^n x 4^n."""
    check_entries(16 ** spec.n, f"the frame operator on {spec.n} qubits")
    dim = 2 ** spec.n
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for _ in range(samples):
        _frame_contribution(sample_circuit(spec, rng).dense(), out)
    return out / samples


def frame_operator_exact_clifford(n):
    """Exact frame operator by enumerating C_n (n <= 2)."""
    dim = 2 ** n
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    count = 0
    for c in cl.enumerate_group(n):
        _frame_contribution(c.to_dense(), out)
        count += 1
    return out / count


def frame_operator_depolarizing(n):
    """The 2-design frame operator (rho + tr(rho) I) / (2^n + 1) as a matrix."""
    dim = 2 ** n
    vec_i = vectorize(np.eye(dim, dtype=complex))
    return (np.eye(dim * dim, dtype=complex) + np.outer(vec_i, vec_i.conj())) / (dim + 1)


def t_gate_dense(n):
    """T on qubit 0 (the leftmost qubit) of n."""
    idx = np.arange(2 ** n)
    msb = (idx >> (n - 1)) & 1
    return np.diag(np.where(msb, np.exp(1j * np.pi / 4), 1.0 + 0j))


def circuit_unitary(circuit):
    """The dense unitary of any sampled circuit: C_k T ... C_1 T C_0 for a
    T-gate circuit, the circuit's own ``dense`` otherwise."""
    if circuit.kind != "homeopathic":
        return circuit.dense()
    tg = t_gate_dense(circuit.n)
    u = circuit.segments[0].to_dense()
    for seg in circuit.segments[1:]:
        u = seg.to_dense() @ tg @ u
    return u


def single_shot_dense(o, circuit, x):
    """X = (2^n + 1) <x|U O U^dag|x> - tr O from the dense unitary."""
    row = circuit_unitary(circuit)[int(x, 2), :]
    return (2 ** o.n + 1) * float(np.real(row @ o.dense() @ row.conj())) - float(o.trace())


def conditional_mean_dense(o, circuit, state):
    """E_x[X | U] from the dense unitary, contracted over all 2^n outcomes."""
    u = circuit_unitary(circuit)
    p = np.abs(u @ state.statevector()) ** 2
    b = np.real(np.diag(u @ o.dense() @ u.conj().T))
    return float((2 ** o.n + 1) * np.dot(p, b) - float(o.trace()))
