"""Dense oracles for the circuit and estimator paths.

The library builds no dense operator but a Haar circuit's unitary.  These
helpers build the rest: Pauli and observable matrices, the unitary of a
Clifford element, and that of a T-gate circuit as the product of its
Clifford segments and T gates, so the tableau and branch paths can be
checked against plain 2^n x 2^n linear algebra.  They also hold the
vectorized (Liouville) picture: vectorization is column-major,
``vectorize(A)[i + d*j] = A[i, j]``, so that ``vectorize(U @ X @ U.conj().T)
== np.kron(U.conj(), U) @ vectorize(X)``, and the frame operators act on
vectorized operators.
"""

import numpy as np

from shadowkit.dense import check_entries
from shadowkit.ensembles import sample_circuit
from shadowkit.stabilizer import StabilizerTableau

from clifford_oracle import enumerate_group

ATOL_UNITARY = 1e-10

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])


def kron_all(factors):
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def pauli_dense(p):
    """The matrix i^phase X^x Z^z of a PauliString, qubit 0 the leftmost factor."""
    n, w = p.n, p.word
    return (1j ** p.phase) * kron_all([(X if w >> 2 * n - 1 - j & 1 else I2) @
                                       (Z if w >> n - 1 - j & 1 else I2) for j in range(n)])


def observable_dense(o):
    """The matrix of an ObservableSpec: |S><S| - I/2^n or its Pauli."""
    if o.kind == "pauli":
        return pauli_dense(o.payload)
    d, v = 2 ** o.n, o.payload.statevector()
    return np.outer(v, v.conj()) - np.eye(d) / d


def clifford_unitary(c):
    """A unitary realizing a CliffordElement (global phase arbitrary).

    Column x is the image of X^x applied to the rotated zero state:
    U|x> = (U X^x U^dag) U|0^n>.
    """
    n = c.n
    check_entries(4 ** n, f"a dense Clifford on {n} qubits")
    psi0 = StabilizerTableau.zero_state(n).apply_clifford(c).statevector()
    dim = 2 ** n
    idx = np.arange(dim)
    images, phases = c.conjugate_rows(idx << n, np.zeros(dim, dtype=np.int64))   # of X^x
    a_int, b_int = images >> n, images & dim - 1   # image X- and Z-bit patterns
    src = idx[:, None] ^ a_int[None, :]        # source index per (row, col)
    signs = 1 - 2 * (np.bitwise_count(src & b_int[None, :]) & 1).astype(np.int64)
    i_pow = np.array([1, 1j, -1, -1j])[phases]
    return i_pow[None, :] * signs * psi0[src]


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
        _frame_contribution(circuit_unitary(sample_circuit(spec, rng)), out)
    return out / samples


def frame_operator_exact_clifford(n):
    """Exact frame operator by enumerating C_n (n <= 2)."""
    dim = 2 ** n
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    count = 0
    for c in enumerate_group(n):
        _frame_contribution(clifford_unitary(c), out)
        count += 1
    return out / count


def frame_operator_depolarizing(n):
    """The 2-design frame operator (rho + tr(rho) I) / (2^n + 1) as a matrix."""
    dim = 2 ** n
    vec_i = vectorize(np.eye(dim, dtype=complex))
    return (np.eye(dim * dim, dtype=complex) + np.outer(vec_i, vec_i.conj())) / (dim + 1)


def inverse_frame_apply(n, x):
    """(2^n + 1) x - tr(x) I: inverse of the 2-design frame operator, which
    every ensemble here has."""
    return (2 ** n + 1) * x - np.trace(x) * np.eye(2 ** n, dtype=complex)


def t_gate_dense(n):
    """T on qubit 0 (the leftmost qubit) of n."""
    idx = np.arange(2 ** n)
    msb = (idx >> (n - 1)) & 1
    return np.diag(np.where(msb, np.exp(1j * np.pi / 4), 1.0 + 0j))


def circuit_unitary(circuit):
    """The dense unitary of any sampled circuit: a Haar circuit's own
    ``dense``, a Clifford circuit's element, and C_k T ... C_1 T C_0 for a
    T-gate circuit."""
    if circuit.kind == "haar":
        return circuit.dense()
    if circuit.kind == "clifford":
        return clifford_unitary(circuit.element)
    tg = t_gate_dense(circuit.n)
    u = clifford_unitary(circuit.segments[0])
    for seg in circuit.segments[1:]:
        u = clifford_unitary(seg) @ tg @ u
    return u


def single_shot_dense(o, circuit, x):
    """X = (2^n + 1) <x|U O U^dag|x> - tr O from the dense unitary."""
    row = circuit_unitary(circuit)[int(x, 2), :]
    value = float(np.real(row @ observable_dense(o) @ row.conj()))
    return (2 ** o.n + 1) * value - float(o.trace())


def conditional_mean_dense(o, circuit, state):
    """E_x[X | U] from the dense unitary, contracted over all 2^n outcomes."""
    u = circuit_unitary(circuit)
    p = np.abs(u @ state.statevector()) ** 2
    b = np.real(np.diag(u @ observable_dense(o) @ u.conj().T))
    return float((2 ** o.n + 1) * np.dot(p, b) - float(o.trace()))
