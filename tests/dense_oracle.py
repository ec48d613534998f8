"""Dense oracles for the circuit and estimator paths.

The library never builds the unitary of a T-gate circuit; these helpers do,
as the product of its Clifford segments and T gates, so the branch paths can
be checked against plain 2^n x 2^n linear algebra.
"""

import numpy as np


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
