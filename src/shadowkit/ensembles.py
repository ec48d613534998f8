"""Circuit ensembles: Haar unitaries, uniform Cliffords, and the family of
Clifford circuits interleaved with k T-gates, behind one sampling interface.
The ``identity`` control ensemble draws the identity Clifford, so its
circuits run on the tableau path and serialize as ``clifford:n:<hex>``.

A T-gate circuit is never made dense: pushing Pauli rows through its
Clifford segments (``SampledCircuit.push_rows``) writes it as k Pauli-branch
factors after one Clifford, so it acts on a stabilizer state in O(k 2^n).
Only Clifford and Haar circuits have a ``dense`` unitary.
"""

from dataclasses import dataclass, field

import numpy as np

from . import clifford as cl
from . import dense
from .stabilizer import PauliString, StabilizerTableau

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

    def push_rows(self, xs, zs, phases):
        """Conjugate Pauli rows by C = C_k...C_0 of a Clifford (k = 0) or T-gate
        circuit; returns the rows, then the k branch Paulis P_j.

        Up to phase T = cos(pi/8) I - i sin(pi/8) Z_0, so pushing each T through
        the later segments gives U ~ (c - is P_k)...(c - is P_1) C with
        P_j = (C_k...C_j) Z_0 (C_k...C_j)^dag: a Z_0 row joins before segment j.
        """
        segments = self.segments if self.kind == "homeopathic" else [self.element]
        rows, k = len(xs), len(segments) - 1
        xs = np.concatenate([xs, np.zeros((k, self.n), dtype=np.uint8)])
        zs = np.concatenate([zs, np.zeros((k, self.n), dtype=np.uint8)])
        zs[rows:, 0] = 1
        phases = np.concatenate([phases, np.zeros(k, dtype=np.int64)])
        for j, seg in enumerate(segments):
            # row rows + j - 1, the Z_0 of the T before segment j, joins here
            r = rows + j
            xs[:r], zs[:r], phases[:r] = seg.conjugate_rows(xs[:r], zs[:r], phases[:r])
        return xs, zs, phases

    def statevector(self, state):
        """U|S> for a stabilizer tableau S (global phase arbitrary): through the
        Haar unitary, else one stabilizer statevector of C|S> times the k
        branch factors c - is P_j of ``push_rows``, O(k 2^n) with no dense
        Clifford."""
        if self.kind == "haar":
            return self.dense() @ state.statevector()
        m = 2 * self.n
        xs, zs, phases = self.push_rows(state.xs, state.zs, state.phases)
        v = StabilizerTableau(xs[:m], zs[:m], phases[:m]).statevector()
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        for j in range(m, len(xs)):
            # v <- c v - is P_j v in place; w is freed before the next ``apply``
            w = PauliString(xs[j], zs[j], phases[j]).apply(v)
            np.multiply(1j * s, w, out=w)
            np.multiply(c, v, out=v)
            np.subtract(v, w, out=v)
            del w
        return v

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
