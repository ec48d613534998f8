"""Circuit ensembles: Haar unitaries, uniform Cliffords, and the family of
Clifford circuits interleaved with k T-gates, behind one sampling interface.
The ``identity`` control ensemble draws the identity Clifford, so its
circuits run on the tableau path and serialize as ``clifford:n:<hex>``.

A T-gate circuit is never made dense: pushing (x|z) row words through its
Clifford segments (``push_rows``) writes it as k Pauli-branch factors after
one Clifford, so it acts on a stabilizer state in O(k 2^n).  Both work on a
list of same-(n, k) circuits at once: ``push_rows`` conjugates every
circuit's rows by its j-th segment in one batched call, and ``statevectors``
gives a (circuits, 2^n) array.  Only a Haar circuit has a ``dense`` unitary,
the one 2^n x 2^n array the package builds.  ``protocol.act`` is where any
circuit acts on a state.  ``require_at_least`` is the one int check of the
library's inputs.
"""

from dataclasses import dataclass, field

import numpy as np

from . import clifford as cl
from . import dense
from . import stabilizer
from .stabilizer import apply_paulis

KINDS = ("haar", "clifford", "homeopathic", "identity")


def require_at_least(name, value, low=1):
    """Refuse anything but an int (not a bool) of at least ``low``; a low of
    None checks the type alone."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    n: int
    k: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        require_at_least("ensemble n", self.n)
        require_at_least("ensemble k", self.k, None)
        if self.k < 0:      # the bound's message names the T-gate count
            raise ValueError("T-gate count must be >= 0")
        if self.k and self.kind != "homeopathic":
            raise ValueError("only the homeopathic ensemble takes a T-gate count")
        # largest n: the tableau sampler's, or the dense budget for one 2^n
        # statevector (T-gate) or one 2^n x 2^n unitary (Haar), whose entry
        # count is refused unbuilt past 64 bits
        if self.kind in ("clifford", "identity") and self.n > cl.MAX_SAMPLED_N:
            raise ValueError(f"{self.kind} circuits are sampled for n <= "
                             f"{cl.MAX_SAMPLED_N}, got n = {self.n}")
        if self.kind in ("homeopathic", "haar"):
            bits = self.n if self.kind == "homeopathic" else 2 * self.n
            what = "a T-gate statevector" if self.kind == "homeopathic" else "a haar circuit"
            dense.check_entries(1 << bits if bits <= 64 else f"2^{bits}",
                                f"{what} on {self.n} qubits")

    def to_json(self):
        return {"kind": self.kind, "n": self.n, "k": self.k}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError(f"ensemble must be a JSON object, got {obj!r:.80}")
        unknown = [key for key in obj if key not in ("kind", "n", "k")]
        if unknown:
            raise ValueError(f"ensemble has unknown keys {unknown}")
        missing = [key for key in ("kind", "n") if key not in obj]
        if missing:
            raise ValueError(f"ensemble is missing {missing}")
        return cls(**obj)


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
        """The unitary of a Haar circuit, built once and kept until ``protocol.act``
        moves past the circuit; no other kind is made dense."""
        if self.kind != "haar":
            raise ValueError(f"no dense unitary is built for a {self.kind} circuit")
        if self._dense is None:
            self._dense = haar_unitary(2 ** self.n, substream(self.haar_seed))
        return self._dense

    def descriptor(self):
        """The count-1 case of ``descriptors``."""
        return descriptors([self])[0]

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


def descriptors(circuits):
    """The serialized identities of a list of same-spec circuits, every
    Clifford element's hex from one ``clifford.hex_strings`` call."""
    first = circuits[0]
    if first.kind == "haar":
        return [f"haar:{c.n}:{c.haar_seed:016x}" for c in circuits]
    elements = [c.element for c in circuits] if first.kind == "clifford" else \
        [seg for c in circuits for seg in c.segments]
    hexes = cl.hex_strings(np.array([e.images for e in elements]),
                           np.array([e.alpha for e in elements]))
    if first.kind == "clifford":
        return [f"clifford:{first.n}:{h}" for h in hexes]
    per = first.k + 1
    return [f"homeopathic:{first.n}:{first.k}:" + ";".join(hexes[i:i + per])
            for i in range(0, len(hexes), per)]


def push_rows(circuits, rows, phases):
    """Conjugate the Pauli row words (r,) by C = C_k...C_0 of each of B
    same-(n, k) Clifford (k = 0) or T-gate circuits, in one batched
    conjugation per segment; returns row words and phases (B, r + k): block b
    is the rows through circuit b, then its k branch Paulis P_j.

    Up to phase T = cos(pi/8) I - i sin(pi/8) Z_0, so pushing each T through
    the later segments gives U ~ (c - is P_k)...(c - is P_1) C with
    P_j = (C_k...C_j) Z_0 (C_k...C_j)^dag: a Z_0 row joins before segment j.
    """
    r, (n, k) = len(rows), (circuits[0].n, circuits[0].k)
    out = np.full((len(circuits), r + k), 1 << n - 1, dtype=np.int64)   # Z_0
    out_phases = np.zeros(out.shape, dtype=np.int64)
    out[:, :r], out_phases[:, :r] = rows, phases
    for j in range(k + 1):
        # row r + j - 1, the Z_0 of the T before segment j, joins here
        segments = [c.segments[j] if c.kind == "homeopathic" else c.element for c in circuits]
        out[:, :r + j], out_phases[:, :r + j] = cl.conjugate_rows_batch(
            segments, out[:, :r + j], out_phases[:, :r + j])
    return out, out_phases


def statevectors(circuits, state):
    """U|S> (B, 2^n) for B same-(n, k) Clifford or T-gate circuits and one
    stabilizer tableau S (global phases arbitrary): the stabilizer
    statevectors of C|S> from one ``push_rows``, times the k branch factors
    c - is P_j, O(B k 2^n) with no dense Clifford."""
    m = state.n
    rows, phases = push_rows(circuits, state.rows, state.phases)
    v = stabilizer.statevectors(rows[:, :m], phases[:, :m])
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    for j in range(m, rows.shape[1]):
        # v <- c v - is P_j v in place; w is freed before the next ``apply_paulis``
        w = apply_paulis(rows[:, j], phases[:, j], v)
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
