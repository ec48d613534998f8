"""Shadow estimation with and without circuit reuse.

The single-shot estimator for a circuit U and outcome x is

    X = (2^n + 1) <x| U O U^dag |x> - tr(O),

which is the inverse-frame-operator estimator for any of the supported
ensembles (all have the 2-design frame operator).  A record holds one
circuit and its R outcomes, so X is evaluated per circuit: ``shot_evaluator``
does the circuit's work once and returns x -> X.  A stabilizer projector is
read off the circuit's ``act`` on its state: the rotated tableau's Z-basis
support on a Clifford (two exact dyadic values per circuit, on and off the
support, so a shot costs one membership test), else the Born vector
|U psi'|^2.  A Pauli is a sum of parities over at most 2^k signed Pauli
branches on a Clifford or T-gate circuit (one exact parity on a Clifford),
and on a Haar circuit row x of its unitary u gives Re(u[x] . P u[x]^*), in
O(2^n) per shot.  No observable is ever made dense.

States are stabilizer tableaux.  Acquisition draws N/R circuits and
measures each one R times.  Every circuit index owns a deterministic rng
substream derived from (seed, index), so circuits are drawn a chunk at a
time, from their own streams, and built in one batch, and transcripts are
reproducible bit for bit regardless of chunking or evaluation order.
``act`` is the one place where circuits act on a state, a list of same-spec
circuits at a time: a Clifford circuit gives the rotated tableau, its
Z-basis support found with the whole list's, any other circuit the Born
vector |U psi|^2.  A circuit's R shots are drawn from that action in one draw
(``measure``), ``estimate`` reuses it to evaluate the projector of the state
itself, and the ``tails`` pair samplers read it on |0^n>.
Records are grouped into K batches and estimates are medians of batch means.
``estimate`` evaluates each circuit while it is in memory; ``record_values``
evaluates records read back from their descriptors, to the same values.
``conditional_means`` is the one place where E_x[X|U] is computed, over
``act``: exactly and in poly(n) on Clifford circuits, from the Born vector
otherwise.  ``conditional_mean``, ``estimate_vstar`` (V*) and the ``tails``
pair conditional means call it.

An outcome x is an int, qubit 0 its most significant bit.  Only a shadow
record holds it as a bitstring of exactly n characters 0/1: ``_record``
writes it and ``parse_outcome`` reads it back, refusing anything else.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import clifford as cl
from . import stabilizer
from .ensembles import (EnsembleSpec, SampledCircuit, push_rows, require_at_least,
                        sample_circuits, statevectors, substream)
from .stabilizer import StabilizerTableau, halves


@dataclass(frozen=True)
class ObservableSpec:
    """Observable in one of two forms: stabilizer projector minus identity
    (traceless by construction) or a Hermitian Pauli string."""
    kind: str
    payload: object
    n: int

    @classmethod
    def stabilizer_projector(cls, tab):
        """O = |S><S| - I/2^n."""
        return cls("stab_projector", tab, tab.n)

    @classmethod
    def pauli(cls, p):
        if not p.is_hermitian():
            raise ValueError(f"Pauli {p.label()} is not Hermitian")
        return cls("pauli", p, p.n)

    def trace(self):
        p = self.payload
        if self.kind == "stab_projector" or p.word:
            return Fraction(0)
        return Fraction(p.hermitian_sign() * 2 ** self.n)


@dataclass(frozen=True)
class RunConfig:
    ensemble: EnsembleSpec
    measurements: int              # N: total measurements
    reuse: int = 1                 # R: shots per circuit
    batches: int = 1               # K: median-of-means batches
    seed: int = 0

    def __post_init__(self):
        for name in ("measurements", "reuse", "batches"):
            require_at_least(name, getattr(self, name))
        require_at_least("seed", self.seed, 0)
        if self.measurements % (self.reuse * self.batches):
            raise ValueError("N must be a multiple of R*K")

    @property
    def circuits(self):
        return self.measurements // self.reuse


@dataclass
class ShadowRecord:
    circuit: str                   # serialized descriptor
    outcomes: list

    def to_json(self):
        return json.dumps({"circuit": self.circuit, "outcomes": self.outcomes})

    @classmethod
    def from_json(cls, line):
        """The record of one records-file line: a JSON object with a string
        ``circuit`` and a non-empty list ``outcomes``."""
        obj = json.loads(line)
        if not (isinstance(obj, dict) and isinstance(obj.get("circuit"), str)
                and isinstance(obj.get("outcomes"), list) and obj["outcomes"]):
            raise ValueError(f"record {line.strip()[:80]!r} is not an object with a "
                             f"string circuit and a non-empty list of outcomes")
        return cls(circuit=obj["circuit"], outcomes=obj["outcomes"])


def write_records(records, path):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


def read_records(path):
    with open(path) as fh:
        return [ShadowRecord.from_json(line) for line in fh if line.strip()]


def _record(circuit, outcomes):
    """The record of a circuit and its int outcomes, each as n characters 0/1."""
    return ShadowRecord(circuit.descriptor(), [format(x, f"0{circuit.n}b") for x in outcomes])


def parse_outcome(x, n):
    """The int of a record's outcome, which must be exactly n characters 0/1."""
    if not (isinstance(x, str) and len(x) == n and not x.strip("01")):
        raise ValueError(f"outcome {x!r} is not a string of {n} characters 0/1")
    return int(x, 2)


# ---------------------------------------------------------------------------
# Single-shot estimator, evaluated once per circuit.

def shot_evaluator(o, circuit, action=None):
    """The map x -> X for one circuit and an int outcome x, with the
    per-circuit work done once: one path per (circuit kind, observable kind)
    pair, as listed above.  ``action`` is the circuit's ``act`` on o.payload
    when the caller already holds it."""
    if circuit.n != o.n:
        raise ValueError("circuit and observable act on different qubit counts")
    d = 2 ** o.n
    if o.kind == "pauli":
        return _pauli_evaluator(o, circuit)
    acted = next(act([circuit], o.payload))[1] if action is None else action
    if circuit.kind == "clifford":
        on, off = ((d + 1) * (p - Fraction(1, d))
                   for p in (Fraction(1, 2 ** len(acted.z_support()[2])), Fraction(0)))
        return lambda x: on if acted.in_z_support(x) else off
    return lambda x: (d + 1) * (float(acted[x]) - 2.0 ** -o.n)


def _pauli_evaluator(o, circuit):
    """X for a Pauli P: on a Haar circuit <x|U P U^dag|x> = u[x] . P u[x]^* from
    row x of its unitary u, O(2^n) per shot; else, with no 2^n term, a sum of
    ``_pauli_parities``."""
    d, tr = 2 ** o.n, o.trace()
    if circuit.kind == "haar":
        u, p, tr = circuit.dense(), o.payload, float(tr)
        return lambda x: (d + 1) * float(np.real(u[x] @ p.apply(u[x].conj()))) - tr
    parities = _pauli_parities(o, circuit)
    return lambda x: (d + 1) * sum(w * (-1) ** (z & x).bit_count()
                                   for z, w in parities) - tr


def _pauli_parities(o, circuit):
    """<x|U P U^dag|x> = sum of w (-1)^(z.x) over the (z, w) returned, for a
    Pauli P on a Clifford or T-gate circuit.

    With U ~ (c - is P_k)...(c - is P_1) C (``push_rows``), U P U^dag is
    Q = C P C^dag pushed through the factors: a branch Q that anticommutes
    with P_j becomes (Q - i P_j Q)/sqrt(2).  The Z-type ones of the at most
    2^k branches are the parities; a Clifford circuit has one branch.
    """
    p = o.payload
    rows, phases = (a[0].tolist() for a in push_rows([circuit], [p.word], [p.phase]))
    branches = {halves(rows[0], o.n): 1j ** phases[0]}
    for b, phase in zip(rows[1:], phases[1:]):
        (bx, bz), split = halves(b, o.n), {}
        for (x, z), c in branches.items():
            if ((x & bz).bit_count() + (z & bx).bit_count()) % 2:
                c *= math.sqrt(0.5)
                # -i P_j Q = -i^(1 + phase + 2 bz.x) X^(bx ^ x) Z^(bz ^ z)
                key, a = (x ^ bx, z ^ bz), 1 + phase + 2 * (bz & x).bit_count()
                split[key] = split.get(key, 0) - 1j ** a * c
            split[x, z] = split.get((x, z), 0) + c
        branches = split
    # <x|i^a Z^z|x> = i^a (-1)^(z.x), and the sum over branches is real
    return [(z, c.real) for (x, z), c in branches.items() if x == 0]


def single_shot(o, circuit, x):
    """The estimator value X for one classical shadow (circuit, x), with x a
    bitstring as in a record."""
    x = parse_outcome(x, o.n)
    return float(shot_evaluator(o, circuit)(x))


# ---------------------------------------------------------------------------
# Acquisition and estimation.

# Entries of the (circuits, 2^n) batch of T-gate Born vectors that ``act``
# holds at once: 256 circuits at n = 6, one at n >= 14.
BORN_BATCH_ENTRIES = 2 ** 14


def act(circuits, state):
    """Yield (circuit, action) for each of a list of same-spec circuits, in
    order: the rotated tableau of a Clifford circuit, else the Born vector
    |U psi|^2.  The whole Clifford list is rotated by one
    ``conjugate_rows_batch`` and its Z-basis supports found by one
    ``stabilizer.tableaux``; T-gate Born vectors come from ``statevectors``
    BORN_BATCH_ENTRIES entries at a time; a Haar circuit multiplies the
    state's statevector, made once.  The list is emptied as it is read, and
    a Haar circuit's unitary is dropped when the next circuit is asked for
    (``dense`` would build it again), so one unitary is alive at a time."""
    circuits.reverse()
    kind = circuits[-1].kind if circuits else None
    if kind == "clifford":
        rows = (np.broadcast_to(a, (len(circuits),) + a.shape) for a in (state.rows, state.phases))
        elements = [c.element for c in reversed(circuits)]
        for rotated in stabilizer.tableaux(*cl.conjugate_rows_batch(elements, *rows)):
            yield circuits.pop(), rotated
    elif kind == "haar":
        psi = state.statevector()
        while circuits:
            circuit = circuits.pop()
            yield circuit, np.abs(circuit.dense() @ psi) ** 2
            circuit._dense = None  # the caller has moved on: free U before the next is built
    elif kind:
        size = max(1, BORN_BATCH_ENTRIES >> state.n)
        while circuits:
            batch = [circuits.pop() for _ in range(min(size, len(circuits)))]
            yield from zip(batch, np.abs(statevectors(batch, state)) ** 2)


def measure(action, reuse, rng):
    """R Z-basis outcomes, as ints, drawn from an ``act`` result in one draw."""
    if isinstance(action, StabilizerTableau):
        return action.sample_z_basis(rng, reuse)
    return rng.choice(len(action), size=reuse, p=action / action.sum()).tolist()


# Circuits drawn and built per batch by ``_circuit_shots``: one Koenig-Smolin
# build, one conjugation and one ``z_supports`` serve the whole chunk.  Each
# circuit keeps its rng stream (about 12 KB, tracemalloc) until its shots are
# drawn.  The CLI's n = 10 Clifford estimate (500 circuits, R = 4, records
# written) peaks at 39.2 MB RSS at 64, against 38.5 MB at 16 and 40.4 MB at 128.
CIRCUIT_CHUNK = 64


def _circuit_shots(cfg, state):
    """Yield each of the N/R circuits of a run, in order, with its action on
    the state and its R outcomes.

    Circuit t owns substream(seed, t).  A chunk's circuits are drawn from
    their streams first, built in one batch and acted on the state in one
    ``act``; each stream then goes on to its circuit's shots, so the bytes
    do not depend on the chunk size.
    """
    for start in range(0, cfg.circuits, CIRCUIT_CHUNK):
        rngs = [substream(cfg.seed, t)
                for t in range(start, min(start + CIRCUIT_CHUNK, cfg.circuits))]
        for rng, (circuit, action) in zip(rngs, act(sample_circuits(cfg.ensemble, rngs), state)):
            yield circuit, action, measure(action, cfg.reuse, rng)


def acquire(cfg, state):
    """Run the data-acquisition loop: N/R records of R outcomes each."""
    return [_record(circuit, outcomes) for circuit, _, outcomes in _circuit_shots(cfg, state)]


def median_of_means(values, batches):
    """Median of K consecutive-batch means; even K takes the lower median."""
    require_at_least("batches", batches)
    values = np.asarray(values, dtype=float)
    if len(values) % batches:
        raise ValueError("value count must be divisible by the batch count")
    means = values.reshape(batches, -1).mean(axis=1)
    return float(np.sort(means)[(batches - 1) // 2])


def _mean_value(o, circuit, outcomes, action=None):
    value = shot_evaluator(o, circuit, action)
    return np.mean([float(value(x)) for x in outcomes])


def record_values(records, o):
    """Per-record means of the single-shot estimator."""
    out = np.empty(len(records))
    for i, rec in enumerate(records):
        circuit = SampledCircuit.from_descriptor(rec.circuit)
        out[i] = _mean_value(o, circuit, [parse_outcome(x, o.n) for x in rec.outcomes])
    return out


def estimate(cfg, state, o, records_out=None):
    """Full protocol: acquire, evaluate, median of K batch means; the
    records are also written, one JSON line each, to ``records_out`` when it
    is given, a text file open for writing.
    Each circuit is evaluated as sampled and then dropped, so no dense
    matrix outlives its circuit.  When O is the projector of the state's own
    tableau, the circuit's action on the state serves the evaluation too."""
    values = np.empty(cfg.circuits)
    shared = o.kind == "stab_projector" and o.payload is state
    for i, (circuit, action, outcomes) in enumerate(_circuit_shots(cfg, state)):
        if records_out:
            records_out.write(_record(circuit, outcomes).to_json() + "\n")
        values[i] = _mean_value(o, circuit, outcomes, action if shared else None)
    est = median_of_means(values, cfg.batches)
    return {"estimate": est, "K": cfg.batches, "R": cfg.reuse,
            "N": cfg.measurements, "seed": cfg.seed}


# ---------------------------------------------------------------------------
# Conditional means and the reuse-limit variance V*.

def conditional_means(circuits, state, o):
    """Yield E_x[X | U], a float, for each of a list of same-spec circuits on
    the state, in order; the list is emptied as ``act`` reads it.  With p (q)
    the Z-basis law of U|psi> (U|S'>, p itself when S' is the state), the
    projector gives (2^n + 1)(sum_x p_x q_x - 2^-n): exact on a Clifford
    circuit (``z_overlap``), else off the normalized Born vectors.  On a
    Clifford circuit p is uniform on x0 + V, so a Pauli parity (-1)^(z.x)
    averages to (-1)^(z.x0) if z is orthogonal to V, else to 0; other
    circuits sum p_x X(x) over the Born vector.
    """
    if circuits and circuits[0].n != o.n:
        raise ValueError("circuit and observable act on different qubit counts")
    d = 2 ** o.n
    others = None if o.kind == "pauli" or o.payload is state else act(list(circuits), o.payload)
    for circuit, p in act(circuits, state):
        q = p if others is None else next(others)[1]
        if o.kind == "stab_projector" and circuit.kind == "clifford":
            yield float((d + 1) * (p.z_overlap(q) - Fraction(1, d)))
        elif o.kind == "stab_projector":
            p = p / p.sum()
            q = p if others is None else q / q.sum()
            yield float((d + 1) * ((p * q).sum() - 2.0 ** -o.n))
        elif circuit.kind == "clifford":
            x0, basis, _ = p.z_support()
            mean = sum(w * (-1) ** (z & x0).bit_count() for z, w in _pauli_parities(o, circuit)
                       if not any((z & b).bit_count() % 2 for b in basis))
            yield float((d + 1) * mean - o.trace())
        else:
            value = shot_evaluator(o, circuit)
            yield float(sum(p[x] * float(value(x)) for x in np.flatnonzero(p).tolist()))


def conditional_mean(o, circuit, state):
    """E_x[X | U]: the one-circuit case of ``conditional_means``."""
    return next(conditional_means([circuit], state, o))


def estimate_vstar(spec, state, o, circuits, rng):
    """Sample variance over circuits of the exact conditional mean E_x[X|U].

    This is the variance floor of the estimator under unlimited reuse; the
    inner expectation is contracted exactly so no R -> infinity
    extrapolation or nested sampling is involved.  The circuits are drawn
    one after another from ``rng``.
    """
    require_at_least("circuits", circuits, 2)
    vals = np.fromiter(conditional_means(sample_circuits(spec, [rng] * circuits), state, o),
                       float, circuits)
    return float(np.var(vals, ddof=1))


def stabilizer_pair(n, scramble=None):
    """A stabilizer state and its traceless projector observable.

    The pair (rho = |S><S|, O = |S><S| - I/2^n) used by the plateau and
    tail analyses; ``scramble`` optionally rotates |0^n> by a Clifford.
    """
    tab = StabilizerTableau.zero_state(n)
    if scramble is not None:
        tab = tab.apply_clifford(scramble)
    return tab, ObservableSpec.stabilizer_projector(tab)
