"""Shadow estimation with and without circuit reuse.

The single-shot estimator for a circuit U and outcome x is

    X = (2^n + 1) <x| U O U^dag |x> - tr(O),

which is the inverse-frame-operator estimator for any of the supported
ensembles (all have the 2-design frame operator).  A record holds one
circuit and its R outcomes, so X is evaluated per circuit: ``shot_evaluator``
does the circuit's work once and returns x -> X.  When the circuit is a
Clifford and the observable a stabilizer projector, X is read off the rotated
tableau's Z-basis support (``z_support``): (2^n + 1)(2^-d - 2^-n) on the
support and -(2^n + 1) 2^-n off it.  For a Pauli it is one parity of the
conjugated Pauli.  Both are exact dyadic rationals; the dense path serves
every other pair, and the two agree exactly.

States are stabilizer tableaux.  Acquisition draws N/R circuits and
measures each one R times: a Clifford circuit samples the rotated tableau,
any other circuit samples |U psi|^2 from its dense unitary.  Records are
grouped into K batches and estimates are medians of batch means.
``estimate`` evaluates each circuit while it is in memory; ``record_values``
evaluates records read back from their descriptors, to the same values.  Every
circuit index owns a deterministic rng substream derived from (seed, index),
so transcripts are reproducible bit for bit regardless of evaluation order.
"""

import contextlib
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dense
from .ensembles import EnsembleSpec, SampledCircuit, sample_circuit, substream
from .stabilizer import StabilizerTableau


@dataclass(frozen=True)
class ObservableSpec:
    """Observable in one of three forms: stabilizer projector minus identity
    (traceless by construction), a Pauli string, or a dense matrix."""
    kind: str
    payload: object
    n: int
    traceless: bool

    @classmethod
    def stabilizer_projector(cls, tab):
        """O = |S><S| - I/2^n."""
        return cls("stab_projector", tab, tab.n, traceless=True)

    @classmethod
    def pauli(cls, p):
        traceless = bool(p.x.any() or p.z.any())
        return cls("pauli", p, p.n, traceless=traceless)

    @classmethod
    def from_dense(cls, mat, atol=1e-10):
        n = dense.num_qubits(mat)
        traceless = abs(np.trace(mat)) <= atol
        return cls("dense", np.asarray(mat, dtype=complex), n, traceless)

    def dense(self):
        d = 2 ** self.n
        if self.kind == "stab_projector":
            v = self.payload.statevector()
            return np.outer(v, v.conj()) - np.eye(d) / d
        if self.kind == "pauli":
            return self.payload.dense()
        return self.payload

    def trace(self):
        if self.kind == "stab_projector":
            return Fraction(0)
        if self.kind == "pauli":
            p = self.payload
            if p.x.any() or p.z.any():
                return Fraction(0)
            return Fraction(p.hermitian_sign() * 2 ** self.n)
        return complex(np.trace(self.payload))

    def hs_norm_sq(self):
        """tr(O^2); exact for the structured kinds."""
        if self.kind == "stab_projector":
            return Fraction(2 ** self.n - 1, 2 ** self.n)
        if self.kind == "pauli":
            return Fraction(2 ** self.n)
        o = self.payload
        return float(np.real(np.trace(o @ o)))


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
        obj = json.loads(line)
        return cls(circuit=obj["circuit"], outcomes=list(obj["outcomes"]))


def write_records(records, path):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


def read_records(path):
    with open(path) as fh:
        return [ShadowRecord.from_json(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Single-shot estimator, evaluated once per circuit.

def shot_evaluator(o, circuit):
    """The map x -> X for one circuit, with the per-circuit work done once.

    On a Clifford circuit a stabilizer projector's value depends on x only
    through the rotated state's Z-basis support and a Pauli's through one
    parity of its conjugated image; both are exact Fractions.  Every other
    pair takes the dense path and gives floats.
    """
    if circuit.n != o.n:
        raise ValueError("circuit and observable act on different qubit counts")
    d = 2 ** o.n
    if circuit.kind == "clifford" and o.kind == "stab_projector":
        rotated = o.payload.apply_clifford(circuit.element)
        return lambda x: (d + 1) * (rotated.z_probability(x) - Fraction(1, d))
    if circuit.kind == "clifford" and o.kind == "pauli":
        img = circuit.element.conjugate_pauli(o.payload)
        tr = o.trace()
        sign = 0 if img.x.any() else img.hermitian_sign()  # <x|P|x> = 0 unless Z-type
        z = img.z_int()
        return lambda x: (d + 1) * Fraction(sign * (-1) ** (z & int(x, 2)).bit_count()) - tr
    return _dense_evaluator(o, circuit)


def _dense_evaluator(o, circuit):
    u, mat = circuit.dense(), o.dense()
    tr = float(np.real(o.trace()))

    def value(x):
        row = u[int(x, 2), :]
        return (2 ** o.n + 1) * float(np.real(row @ mat @ row.conj())) - tr
    return value


def single_shot_dense(o, circuit, x):
    """Dense-matrix value of X for any circuit: the oracle for the exact paths."""
    return _dense_evaluator(o, circuit)(x)


def _check_outcomes(o, outcomes):
    if any(len(x) != o.n for x in outcomes):
        raise ValueError("outcome length does not match observable qubits")


def single_shot(o, circuit, x):
    """The estimator value X for one classical shadow (circuit, x)."""
    _check_outcomes(o, [x])
    return float(shot_evaluator(o, circuit)(x))


# ---------------------------------------------------------------------------
# Acquisition and estimation.

def _measure_circuit(circuit, state, reuse, rng):
    if circuit.kind == "clifford":
        rotated = state.apply_clifford(circuit.element)
        return [rotated.sample_z_basis(rng) for _ in range(reuse)]
    p = np.abs(circuit.dense() @ state.statevector()) ** 2
    outcomes = rng.choice(len(p), size=reuse, p=p / p.sum())
    return [dense.index_to_bits(int(x), circuit.n) for x in outcomes]


def _circuit_shots(cfg, state):
    """Yield each of the N/R circuits of a run with its R outcomes, in order."""
    for t in range(cfg.circuits):
        rng = substream(cfg.seed, t)
        circuit = sample_circuit(cfg.ensemble, rng)
        yield circuit, _measure_circuit(circuit, state, cfg.reuse, rng)


def acquire(cfg, state):
    """Run the data-acquisition loop: N/R records of R outcomes each."""
    return [ShadowRecord(circuit.descriptor(), outcomes)
            for circuit, outcomes in _circuit_shots(cfg, state)]


def median_of_means(values, batches):
    """Median of K consecutive-batch means; even K takes the lower median."""
    values = np.asarray(values, dtype=float)
    if len(values) % batches:
        raise ValueError("value count must be divisible by the batch count")
    means = values.reshape(batches, -1).mean(axis=1)
    return float(np.sort(means)[(batches - 1) // 2])


def _mean_value(o, circuit, outcomes):
    _check_outcomes(o, outcomes)
    value = shot_evaluator(o, circuit)
    return np.mean([float(value(x)) for x in outcomes])


def record_values(records, o):
    """Per-record means of the single-shot estimator."""
    out = np.empty(len(records))
    for i, rec in enumerate(records):
        out[i] = _mean_value(o, SampledCircuit.from_descriptor(rec.circuit), rec.outcomes)
    return out


def estimate(cfg, state, o, records_out=None):
    """Full protocol: acquire, evaluate, median of K batch means; the
    records are also written to the ``records_out`` path when one is given.
    Each circuit is evaluated as sampled and then dropped, so no dense
    matrix outlives its circuit."""
    values = np.empty(cfg.circuits)
    with (open(records_out, "w") if records_out else contextlib.nullcontext()) as sink:
        for i, (circuit, outcomes) in enumerate(_circuit_shots(cfg, state)):
            if sink:
                sink.write(ShadowRecord(circuit.descriptor(), outcomes).to_json() + "\n")
            values[i] = _mean_value(o, circuit, outcomes)
    est = median_of_means(values, cfg.batches)
    return {"estimate": est, "K": cfg.batches, "R": cfg.reuse,
            "N": cfg.measurements, "seed": cfg.seed}


def estimate_from_records(records, o, batches):
    return median_of_means(record_values(records, o), batches)


# ---------------------------------------------------------------------------
# Conditional means and the reuse-limit variance V*.

def conditional_mean(o, circuit, state):
    """E_x[X | U], exactly contracted over the 2^n outcomes."""
    n = o.n
    u = circuit.dense()
    p = np.abs(u @ state.statevector()) ** 2
    b = np.real(np.diag(u @ o.dense() @ u.conj().T))
    tr_o = float(np.real(o.trace()))
    return float((2 ** n + 1) * np.dot(p, b) - tr_o)


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
