"""Shadow estimation with and without circuit reuse.

The single-shot estimator for a circuit U and outcome x is

    X = (2^n + 1) <x| U O U^dag |x> - tr(O),

which is the inverse-frame-operator estimator for any of the supported
ensembles (all have the 2-design frame operator).  A record holds one
circuit and its R outcomes, so X is evaluated per circuit: ``shot_evaluator``
does the circuit's work once and returns x -> X.  A Haar circuit uses its
dense unitary.  On a Clifford or T-gate circuit a Pauli is a sum of parities
over at most 2^k signed Pauli branches (one exact parity on a Clifford), and
a stabilizer projector is read off the rotated tableau's Z-basis support on
a Clifford (exact dyadic rationals) or the Born vector of ``statevector``.

States are stabilizer tableaux.  Acquisition draws N/R circuits and
measures each one R times.  Every circuit index owns a deterministic rng
substream derived from (seed, index), so circuits are drawn a chunk at a
time, from their own streams, and built in one batch, and transcripts are
reproducible bit for bit regardless of chunking or evaluation order.  A
circuit acts on the state once (``act``): a Clifford circuit gives the
rotated tableau, any other circuit the Born vector |U psi|^2 of its
``statevector``.  Shots are drawn from that action (``measure``), and
``estimate`` reuses it to evaluate the projector of the state itself.
Records are grouped into K batches and estimates are medians of batch means.
``estimate`` evaluates each circuit while it is in memory; ``record_values``
evaluates records read back from their descriptors, to the same values.

An outcome x is an int, qubit 0 its most significant bit.  Only a shadow
record holds it as a bitstring of exactly n characters 0/1: ``_record``
writes it and ``parse_outcome`` reads it back, refusing anything else.
"""

import contextlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ensembles import (EnsembleSpec, SampledCircuit, push_rows, sample_circuit,
                        sample_circuits, substream)
from .stabilizer import PauliString, StabilizerTableau


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

    def dense(self):
        d = 2 ** self.n
        if self.kind == "stab_projector":
            v = self.payload.statevector()
            return np.outer(v, v.conj()) - np.eye(d) / d
        return self.payload.dense()

    def trace(self):
        p = self.payload
        if self.kind == "stab_projector" or p.x.any() or p.z.any():
            return Fraction(0)
        return Fraction(p.hermitian_sign() * 2 ** self.n)

    def hs_norm_sq(self):
        """tr(O^2); exact for the structured kinds."""
        if self.kind == "stab_projector":
            return Fraction(2 ** self.n - 1, 2 ** self.n)
        return Fraction(2 ** self.n)


@dataclass(frozen=True)
class RunConfig:
    ensemble: EnsembleSpec
    measurements: int              # N: total measurements
    reuse: int = 1                 # R: shots per circuit
    batches: int = 1               # K: median-of-means batches
    seed: int = 0

    def __post_init__(self):
        for name in ("measurements", "reuse", "batches"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
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
    pair, as listed above.  ``action`` is ``act(circuit, o.payload)`` when the
    caller already holds it."""
    if circuit.n != o.n:
        raise ValueError("circuit and observable act on different qubit counts")
    d = 2 ** o.n
    if circuit.kind == "haar":
        return _dense_evaluator(o, circuit)
    if o.kind == "pauli":
        return _pauli_evaluator(o, circuit)
    acted = act(circuit, o.payload) if action is None else action
    if circuit.kind == "clifford":
        return lambda x: (d + 1) * (acted.z_probability(x) - Fraction(1, d))
    return lambda x: (d + 1) * (float(acted[x]) - 2.0 ** -o.n)


def _pauli_evaluator(o, circuit):
    """X for a Pauli on a Clifford or T-gate circuit, with no 2^n term.

    With U ~ (c - is P_k)...(c - is P_1) C (``push_rows``), U P U^dag is
    Q = C P C^dag pushed through the factors: a branch Q that anticommutes
    with P_j becomes (Q - i P_j Q)/sqrt(2).  The Z-type ones of the at most
    2^k branches give <x|U P U^dag|x> as a sum of parities.
    """
    p = o.payload
    xs, zs, phases = push_rows([circuit], p.x[None], p.z[None], [p.phase])
    rows = [PauliString(*r) for r in zip(xs[0], zs[0], phases[0])]
    branches = {(rows[0].x_int(), rows[0].z_int()): 1j ** rows[0].phase}
    for b in rows[1:]:
        bx, bz, split = b.x_int(), b.z_int(), {}
        for (x, z), c in branches.items():
            if ((x & bz).bit_count() + (z & bx).bit_count()) % 2:
                c *= math.sqrt(0.5)
                # -i P_j Q = -i^(1 + phase + 2 bz.x) X^(bx ^ x) Z^(bz ^ z)
                key, a = (x ^ bx, z ^ bz), 1 + b.phase + 2 * (bz & x).bit_count()
                split[key] = split.get(key, 0) - 1j ** a * c
            split[x, z] = split.get((x, z), 0) + c
        branches = split
    # <x|i^a Z^z|x> = i^a (-1)^(z.x), and the sum over branches is real
    parities = [(z, c.real) for (x, z), c in branches.items() if x == 0]
    d, tr = 2 ** o.n, o.trace()
    return lambda x: (d + 1) * sum(w * (-1) ** (z & x).bit_count()
                                   for z, w in parities) - tr


def _dense_evaluator(o, circuit):
    u, mat = circuit.dense(), o.dense()
    tr = float(o.trace())

    def value(x):
        row = u[x, :]
        return (2 ** o.n + 1) * float(np.real(row @ mat @ row.conj())) - tr
    return value


def single_shot(o, circuit, x):
    """The estimator value X for one classical shadow (circuit, x), with x a
    bitstring as in a record."""
    x = parse_outcome(x, o.n)
    return float(shot_evaluator(o, circuit)(x))


# ---------------------------------------------------------------------------
# Acquisition and estimation.

def act(circuit, state):
    """The circuit's action on a tableau: the rotated tableau of a Clifford
    circuit, else the Born vector |U psi|^2 of ``statevector``."""
    if circuit.kind == "clifford":
        return state.apply_clifford(circuit.element)
    return np.abs(circuit.statevector(state)) ** 2


def measure(action, reuse, rng):
    """R Z-basis outcomes, as ints, drawn from an ``act`` result."""
    if isinstance(action, StabilizerTableau):
        return [action.sample_z_basis(rng) for _ in range(reuse)]
    return rng.choice(len(action), size=reuse, p=action / action.sum()).tolist()


# Circuits drawn and built per batch by ``_circuit_shots``.  Each keeps its rng
# stream (about 4 KB) until its shots are drawn; at 16 the build is batched
# and peak memory stays flat.
CIRCUIT_CHUNK = 16


def _circuit_shots(cfg, state):
    """Yield each of the N/R circuits of a run, in order, with its action on
    the state and its R outcomes.

    Circuit t owns substream(seed, t).  A chunk's circuits are drawn from
    their streams first and built in one batch; each stream then goes on to
    its circuit's shots, so the bytes do not depend on the chunk size.
    """
    for start in range(0, cfg.circuits, CIRCUIT_CHUNK):
        rngs = [substream(cfg.seed, t)
                for t in range(start, min(start + CIRCUIT_CHUNK, cfg.circuits))]
        circuits = sample_circuits(cfg.ensemble, rngs)
        circuits.reverse()
        for rng in rngs:
            # each circuit is dropped once used, so no Haar unitary outlives it
            circuit = circuits.pop()
            action = act(circuit, state)
            yield circuit, action, measure(action, cfg.reuse, rng)


def acquire(cfg, state):
    """Run the data-acquisition loop: N/R records of R outcomes each."""
    return [_record(circuit, outcomes) for circuit, _, outcomes in _circuit_shots(cfg, state)]


def median_of_means(values, batches):
    """Median of K consecutive-batch means; even K takes the lower median."""
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
    records are also written to the ``records_out`` path when one is given.
    Each circuit is evaluated as sampled and then dropped, so no dense
    matrix outlives its circuit.  When O is the projector of the state's own
    tableau, the circuit's action on the state serves the evaluation too."""
    values = np.empty(cfg.circuits)
    shared = o.kind == "stab_projector" and o.payload is state
    with (open(records_out, "w") if records_out else contextlib.nullcontext()) as sink:
        for i, (circuit, action, outcomes) in enumerate(_circuit_shots(cfg, state)):
            if sink:
                sink.write(_record(circuit, outcomes).to_json() + "\n")
            values[i] = _mean_value(o, circuit, outcomes, action if shared else None)
    est = median_of_means(values, cfg.batches)
    return {"estimate": est, "K": cfg.batches, "R": cfg.reuse,
            "N": cfg.measurements, "seed": cfg.seed}


# ---------------------------------------------------------------------------
# Conditional means and the reuse-limit variance V*.

def conditional_mean(o, circuit, state):
    """E_x[X | U] = sum_x p_x X(x), with p = |U psi|^2, exactly contracted
    over the outcomes of positive probability."""
    p = np.abs(circuit.statevector(state)) ** 2
    value = shot_evaluator(o, circuit)
    return float(sum(p[x] * float(value(x)) for x in np.flatnonzero(p).tolist()))


def estimate_vstar(spec, state, o, circuits, rng):
    """Sample variance over circuits of the exact conditional mean E_x[X|U].

    This is the variance floor of the estimator under unlimited reuse; the
    inner expectation is contracted exactly so no R -> infinity
    extrapolation or nested sampling is involved.
    """
    if circuits < 2:
        raise ValueError("need at least two circuits for a variance")
    vals = np.empty(circuits)
    for i in range(circuits):
        vals[i] = conditional_mean(o, sample_circuit(spec, rng), state)
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
