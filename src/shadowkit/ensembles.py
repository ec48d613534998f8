"""Circuit ensembles: Haar unitaries, uniform Cliffords, and the family of
Clifford circuits interleaved with k T-gates, behind one sampling interface.
The ``identity`` control ensemble draws the identity Clifford, so its
circuits run on the tableau path and serialize as ``clifford:n:<hex>``.

A T-gate circuit is never made dense: pushing Pauli rows through its
Clifford segments (``push_rows``) writes it as k Pauli-branch factors after
one Clifford, so it acts on a stabilizer state in O(k 2^n).  Both work on a
list of same-(n, k) circuits at once: ``push_rows`` conjugates every
circuit's rows by its j-th segment in one batched call, and ``statevectors``
gives a (circuits, 2^n) array; ``SampledCircuit.statevector`` is its
one-circuit case.  Only Clifford and Haar circuits have a ``dense`` unitary,
and Haar circuits act one at a time.
"""

from dataclasses import dataclass, field

import numpy as np

from . import clifford as cl
from . import dense
from . import stabilizer
from .stabilizer import StabilizerTableau, apply_paulis

KINDS = ("haar", "clifford", "homeopathic", "identity")


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    n: int
    k: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        for name in ("n", "k"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"ensemble {name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValueError(f"ensemble n must be at least 1, got {self.n}")
        if self.k < 0:
            raise ValueError("T-gate count must be >= 0")
        if self.k and self.kind != "homeopathic":
            raise ValueError("only the homeopathic ensemble takes a T-gate count")
        # largest n: the tableau sampler's, or the dense budget for one 2^n
        # statevector (T-gate) or one 2^n x 2^n unitary (Haar)
        if self.kind in ("clifford", "identity") and self.n > cl.MAX_SAMPLED_N:
            raise ValueError(f"{self.kind} circuits are sampled for n <= "
                             f"{cl.MAX_SAMPLED_N}, got n = {self.n}")
        if self.kind == "homeopathic":
            dense.check_entries(2 ** self.n, f"a T-gate statevector on {self.n} qubits")
        if self.kind == "haar":
            dense.check_entries(4 ** self.n, f"a haar circuit on {self.n} qubits")

    def to_json(self):
        return {"kind": self.kind, "n": self.n, "k": self.k}

    @classmethod
    def from_json(cls, obj):
        missing = [key for key in ("kind", "n") if key not in obj]
        if missing:
            raise ValueError(f"ensemble is missing {missing}")
        return cls(kind=obj["kind"], n=obj["n"], k=obj.get("k", 0))


def substream(seed, *index):
    """Deterministic rng stream for (seed, index...); no index is the seed's own stream."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=index))


def haar_unitary(dim, rng):
    """Exactly Haar-distributed unitary: QR of a complex Gaussian matrix
    with the R-diagonal phase correction."""
    dense.check_entries(dim * dim, f"a {dim}x{dim} Haar unitary")
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


_DESCRIPTOR_PARTS = {"identity": 2, "clifford": 3, "haar": 3, "homeopathic": 4}


@dataclass
class SampledCircuit:
    """One draw from an ensemble, with a serializable identity.

    Clifford draws carry a tableau-side element; homeopathic draws carry
    their k+1 Clifford segments (a T-gate sits between consecutive
    segments); Haar draws carry the child seed they were generated from.
    """
    kind: str
    n: int
    element: "cl.CliffordElement | None" = None
    segments: "list[cl.CliffordElement] | None" = None
    haar_seed: "int | None" = None
    _dense: "np.ndarray | None" = field(default=None, repr=False)

    @property
    def k(self):
        return len(self.segments) - 1 if self.segments is not None else 0

    def dense(self):
        if self.kind not in ("clifford", "haar"):
            raise ValueError(f"no dense unitary is built for a {self.kind} circuit")
        if self._dense is None:
            if self.kind == "clifford":
                self._dense = self.element.to_dense()
            else:
                self._dense = haar_unitary(2 ** self.n, substream(self.haar_seed))
        return self._dense

    def statevector(self, state):
        """U|S> for a stabilizer tableau S (global phase arbitrary): through the
        Haar unitary, else the count-1 case of ``statevectors``."""
        if self.kind == "haar":
            return self.dense() @ state.statevector()
        return statevectors([self], state)[0]

    def descriptor(self):
        if self.kind == "clifford":
            return f"clifford:{self.n}:{self.element.to_hex()}"
        if self.kind == "haar":
            return f"haar:{self.n}:{self.haar_seed:016x}"
        segs = ";".join(seg.to_hex() for seg in self.segments)
        return f"homeopathic:{self.n}:{self.k}:{segs}"

    @classmethod
    def from_descriptor(cls, desc):
        """Inverse of ``descriptor``; also reads the ``identity:n`` of older records."""
        parts = desc.split(":")
        if len(parts) != _DESCRIPTOR_PARTS.get(parts[0]):
            raise ValueError(f"malformed circuit descriptor {desc!r}")
        kind, n = parts[0], int(parts[1])
        spec = EnsembleSpec(kind, n, k=int(parts[2]) if kind == "homeopathic" else 0)
        if kind == "identity":
            return sample_circuit(spec, None)
        if kind == "clifford":
            return cls(kind, n, element=cl.CliffordElement.from_hex(n, parts[2]))
        if kind == "haar":
            return cls(kind, n, haar_seed=int(parts[2], 16))
        segs = [cl.CliffordElement.from_hex(n, h) for h in parts[3].split(";")]
        if len(segs) != spec.k + 1:
            raise ValueError("segment count does not match T-gate count")
        return cls(kind, n, segments=segs)


def push_rows(circuits, xs, zs, phases):
    """Conjugate the Pauli rows (r, n) by C = C_k...C_0 of each of B same-(n, k)
    Clifford (k = 0) or T-gate circuits, in one batched conjugation per
    segment; returns rows (B, r + k, n) and phases (B, r + k): block b is the
    rows through circuit b, then its k branch Paulis P_j.

    Up to phase T = cos(pi/8) I - i sin(pi/8) Z_0, so pushing each T through
    the later segments gives U ~ (c - is P_k)...(c - is P_1) C with
    P_j = (C_k...C_j) Z_0 (C_k...C_j)^dag: a Z_0 row joins before segment j.
    """
    rows, (n, k) = len(xs), (circuits[0].n, circuits[0].k)
    shape = (len(circuits), rows + k)
    out_x, out_z = np.zeros(shape + (n,), dtype=np.uint8), np.zeros(shape + (n,), dtype=np.uint8)
    out_x[:, :rows], out_z[:, :rows], out_z[:, rows:, 0] = xs, zs, 1
    out_phases = np.zeros(shape, dtype=np.int64)
    out_phases[:, :rows] = phases
    for j in range(k + 1):
        # row rows + j - 1, the Z_0 of the T before segment j, joins here
        r = rows + j
        segments = [c.segments[j] if c.kind == "homeopathic" else c.element for c in circuits]
        out_x[:, :r], out_z[:, :r], out_phases[:, :r] = cl.conjugate_rows_batch(
            segments, out_x[:, :r], out_z[:, :r], out_phases[:, :r])
    return out_x, out_z, out_phases


def statevectors(circuits, state):
    """U|S> (B, 2^n) for B same-(n, k) Clifford or T-gate circuits and one
    stabilizer tableau S (global phases arbitrary): the stabilizer
    statevectors of C|S> from one ``push_rows``, times the k branch factors
    c - is P_j, O(B k 2^n) with no dense Clifford.  Haar circuits act one at a
    time through ``SampledCircuit.statevector``."""
    m = state.n
    xs, zs, phases = push_rows(circuits, state.xs, state.zs, state.phases)
    v = stabilizer.statevectors([StabilizerTableau(*t) for t in
                                 zip(xs[:, :m], zs[:, :m], phases[:, :m])])
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    for j in range(m, xs.shape[1]):
        # v <- c v - is P_j v in place; w is freed before the next ``apply_paulis``
        w = apply_paulis(xs[:, j], zs[:, j], phases[:, j], v)
        np.multiply(1j * s, w, out=w)
        np.multiply(c, v, out=v)
        np.subtract(v, w, out=v)
        del w
    return v


def sample_circuits(spec, rngs):
    """One circuit of ``spec`` per entry of ``rngs``, drawn from the entries in
    list order; every Clifford element of them is built in one batch.  A T-gate
    circuit draws its k+1 segments one after another from its entry."""
    n = spec.n
    if spec.kind == "identity":
        element = cl.CliffordElement.identity(n)
        return [SampledCircuit("clifford", n, element=element) for _ in rngs]
    if spec.kind == "haar":
        return [SampledCircuit("haar", n, haar_seed=int(rng.integers(1 << 62))) for rng in rngs]
    if spec.kind == "clifford":
        return [SampledCircuit("clifford", n, element=c)
                for c in cl.sample_uniform_streams(n, rngs)]
    per = spec.k + 1
    segments = cl.sample_uniform_streams(n, [rng for rng in rngs for _ in range(per)])
    return [SampledCircuit("homeopathic", n, segments=segments[i:i + per])
            for i in range(0, len(segments), per)]


def sample_circuit(spec, rng):
    return sample_circuits(spec, [rng])[0]


# ---------------------------------------------------------------------------
# Every ensemble here has the 2-design frame operator (rho + tr(rho) I) / (2^n + 1).

def inverse_frame_apply(n, x):
    """(2^n + 1) x - tr(x) I: inverse of the 2-design frame operator."""
    return (2 ** n + 1) * x - np.trace(x) * np.eye(2 ** n, dtype=complex)
