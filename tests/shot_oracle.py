"""The per-circuit single-shot evaluator, as an oracle for ``protocol.shot_values``.

``shot_evaluator`` does one circuit's work once and returns x -> X for an
int outcome x, one closure per (circuit kind, observable kind) pair: a
Clifford projector is two exact Fractions, on and off the rotated support,
picked by a scalar membership test; a Pauli on a Clifford or T-gate circuit
is a Python sum over its branch parities; a Haar or T-gate projector reads
the Born vector, and a Pauli on a Haar circuit one row of the unitary.  The
library evaluates a chunk of circuits at once and must give the same floats.
"""

import math
from fractions import Fraction

import numpy as np

from shadowkit.ensembles import push_rows
from shadowkit.protocol import act
from shadowkit.stabilizer import halves


def in_support(tab, x):
    """Whether outcome x lies in the tableau's Z-basis support, reducing
    x0 ^ x by the basis rows one pivot at a time."""
    x0, basis, pivots = tab.z_support()
    y = x0 ^ x
    for row, c in zip(basis, pivots):
        if y >> (tab.n - 1 - c) & 1:
            y ^= row
    return not y


def shot_evaluator(o, circuit, action=None):
    """The map x -> X for one circuit and an int outcome x.  ``action`` is
    the circuit's ``act`` on o.payload when the caller already holds it."""
    if circuit.n != o.n:
        raise ValueError("circuit and observable act on different qubit counts")
    d = 2 ** o.n
    if o.kind == "pauli":
        return _pauli_evaluator(o, circuit)
    acted = next(act([circuit], o.payload))[1] if action is None else action
    if circuit.kind == "clifford":
        on, off = ((d + 1) * (p - Fraction(1, d))
                   for p in (Fraction(1, 2 ** len(acted.z_support()[2])), Fraction(0)))
        return lambda x: on if in_support(acted, x) else off
    return lambda x: (d + 1) * (float(acted[x]) - 2.0 ** -o.n)


def _pauli_evaluator(o, circuit):
    d, tr = 2 ** o.n, o.trace()
    if circuit.kind == "haar":
        u, p, tr = circuit.dense(), o.payload, float(tr)
        return lambda x: (d + 1) * float(np.real(u[x] @ p.apply(u[x].conj()))) - tr
    parities = pauli_parities(o, circuit)
    return lambda x: (d + 1) * sum(w * (-1) ** (z & x).bit_count()
                                   for z, w in parities) - tr


def pauli_parities(o, circuit):
    """<x|U P U^dag|x> = sum of w (-1)^(z.x) over the (z, w) returned, for a
    Pauli P on one Clifford or T-gate circuit: the branches of C P C^dag
    through the T-gate factors, kept in a dict."""
    p = o.payload
    rows, phases = (a[0].tolist() for a in push_rows([circuit], [p.word], [p.phase]))
    branches = {halves(rows[0], o.n): 1j ** phases[0]}
    for b, phase in zip(rows[1:], phases[1:]):
        (bx, bz), split = halves(b, o.n), {}
        for (x, z), c in branches.items():
            if ((x & bz).bit_count() + (z & bx).bit_count()) % 2:
                c *= math.sqrt(0.5)
                key, a = (x ^ bx, z ^ bz), 1 + phase + 2 * (bz & x).bit_count()
                split[key] = split.get(key, 0) - 1j ** a * c
            split[x, z] = split.get((x, z), 0) + c
        branches = split
    return [(z, c.real) for (x, z), c in branches.items() if x == 0]


def mean_values(o, circuit, outcomes):
    """The per-circuit mean of X over int outcomes, as the library once took
    it: ``np.mean`` of the list of float values."""
    value = shot_evaluator(o, circuit)
    return np.mean([float(value(x)) for x in outcomes])
