"""Shadow estimation with and without circuit reuse.

The single-shot estimator for a circuit U and outcome x is

    X = (2^n + 1) <x| U O U^dag |x> - tr(O),

which is the inverse-frame-operator estimator for any of the supported
ensembles (all have the 2-design frame operator).  When the circuit is a
Clifford and the observable is a stabilizer projector or a Pauli, the value
is computed through the tableau machinery as an exact dyadic rational; the
dense path exists for everything else and the two agree exactly.

Acquisition draws N/R circuits and measures each one R times; records are
grouped into K batches and estimates are medians of batch means.  Every
circuit index owns a deterministic rng substream derived from (seed, index),
so transcripts are reproducible bit for bit regardless of evaluation order.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dense
from .clifford import CliffordElement
from .ensembles import EnsembleSpec, SampledCircuit, sample_circuit
from .stabilizer import StabilizerTableau, overlap_sq


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


def substream(seed, index):
    """Deterministic per-circuit rng stream."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


# ---------------------------------------------------------------------------
# Single-shot estimator.

def _pauli_z_expectation(p, x_index):
    """<x|P|x> for a signed Pauli: 0 unless P is Z-type."""
    if p.x.any():
        return Fraction(0)
    parity = int(np.bitwise_count(np.int64(p.z_int() & x_index)) & 1)
    return Fraction(p.hermitian_sign() * (1 - 2 * parity))


def single_shot_exact(o, circuit, x):
    """Exact Fraction value on the tableau fast path (Clifford circuits)."""
    n = o.n
    d = 2 ** n
    x_index = int(x, 2)
    c = circuit.element
    if o.kind == "stab_projector":
        rotated = o.payload.apply_clifford(c)
        p = overlap_sq(rotated, StabilizerTableau.basis_state(x))
        return (d + 1) * (p - Fraction(1, d))
    if o.kind == "pauli":
        img = c.conjugate_pauli(o.payload)
        return (d + 1) * _pauli_z_expectation(img, x_index) - o.trace()
    raise TypeError("exact path needs a stabilizer projector or Pauli observable")


def single_shot_dense(o, circuit, x):
    n = o.n
    u = circuit.dense()
    row = u[int(x, 2), :]
    val = float(np.real(row @ o.dense() @ row.conj()))
    return (2 ** n + 1) * val - float(np.real(o.trace()))


def single_shot(o, circuit, x):
    """The estimator value X for one classical shadow (circuit, x)."""
    if len(x) != o.n:
        raise ValueError("outcome length does not match observable qubits")
    if circuit.kind == "clifford" and o.kind in ("stab_projector", "pauli"):
        return float(single_shot_exact(o, circuit, x))
    if circuit.kind == "identity" and o.kind in ("stab_projector", "pauli"):
        ident = SampledCircuit("clifford", o.n, element=CliffordElement.identity(o.n))
        return float(single_shot_exact(o, ident, x))
    return single_shot_dense(o, circuit, x)


# ---------------------------------------------------------------------------
# Acquisition and estimation.

def _measure_circuit(circuit, state, reuse, rng):
    if circuit.kind == "clifford" and isinstance(state, StabilizerTableau):
        rotated = state.apply_clifford(circuit.element)
        return [rotated.sample_z_basis(rng) for _ in range(reuse)]
    rho = state_density(state)
    evolved = circuit.dense() @ rho @ circuit.dense().conj().T
    outcomes = dense.born_sample(evolved, rng, shots=reuse)
    n = circuit.n
    return [dense.index_to_bits(int(x), n) for x in outcomes]


def state_density(state):
    if isinstance(state, StabilizerTableau):
        v = state.statevector()
        return np.outer(v, v.conj())
    return np.asarray(state, dtype=complex)


def acquire(cfg, state):
    """Run the data-acquisition loop: N/R records of R outcomes each."""
    records = []
    for t in range(cfg.circuits):
        rng = substream(cfg.seed, t)
        circuit = sample_circuit(cfg.ensemble, rng)
        outcomes = _measure_circuit(circuit, state, cfg.reuse, rng)
        records.append(ShadowRecord(circuit.descriptor(), outcomes))
    return records


def median_of_means(values, batches):
    """Median of K consecutive-batch means; even K takes the lower median."""
    values = np.asarray(values, dtype=float)
    if len(values) % batches:
        raise ValueError("value count must be divisible by the batch count")
    means = values.reshape(batches, -1).mean(axis=1)
    return float(np.sort(means)[(batches - 1) // 2])


def record_values(records, o):
    """Per-record means of the single-shot estimator."""
    out = np.empty(len(records))
    for i, rec in enumerate(records):
        circuit = SampledCircuit.from_descriptor(rec.circuit)
        out[i] = np.mean([single_shot(o, circuit, x) for x in rec.outcomes])
    return out


def estimate(cfg, state, o, records_out=None):
    """Full protocol: acquire, evaluate, median of K batch means; the
    records are also written to the ``records_out`` path when one is given."""
    records = acquire(cfg, state)
    if records_out:
        write_records(records, records_out)
    values = record_values(records, o)
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
    rho = state_density(state)
    p = np.real(np.diag(u @ rho @ u.conj().T))
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
