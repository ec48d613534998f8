"""Circuit ensembles: Haar unitaries, uniform Cliffords, and the family of
Clifford circuits interleaved with k T-gates, behind one sampling interface.
"""

from dataclasses import dataclass, field

import numpy as np

from . import clifford as cl
from . import dense

KINDS = ("haar", "clifford", "homeopathic", "identity")


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    n: int
    k: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"ensemble n must be at least 1, got {self.n}")
        if self.k < 0:
            raise ValueError("T-gate count must be >= 0")
        if self.k and self.kind != "homeopathic":
            raise ValueError("only the homeopathic ensemble takes a T-gate count")

    def to_json(self):
        return {"kind": self.kind, "n": self.n, "k": self.k}

    @classmethod
    def from_json(cls, obj):
        return cls(kind=obj["kind"], n=int(obj["n"]), k=int(obj.get("k", 0)))


def t_gate_dense(n):
    """T on qubit 0 (the leftmost qubit) of n."""
    idx = np.arange(2 ** n)
    msb = (idx >> (n - 1)) & 1
    return np.diag(np.where(msb, np.exp(1j * np.pi / 4), 1.0 + 0j))


def haar_unitary(dim, rng):
    """Exactly Haar-distributed unitary: QR of a complex Gaussian matrix
    with the R-diagonal phase correction."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


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
        if self._dense is None:
            if self.kind == "identity":
                self._dense = np.eye(2 ** self.n, dtype=complex)
            elif self.kind == "clifford":
                self._dense = self.element.to_dense()
            elif self.kind == "haar":
                sub = np.random.default_rng(np.random.SeedSequence(self.haar_seed))
                self._dense = haar_unitary(2 ** self.n, sub)
            else:
                tg = t_gate_dense(self.n)
                u = self.segments[0].to_dense()
                for seg in self.segments[1:]:
                    u = seg.to_dense() @ tg @ u
                self._dense = u
        return self._dense

    def descriptor(self):
        if self.kind == "identity":
            return f"identity:{self.n}"
        if self.kind == "clifford":
            return f"clifford:{self.n}:{self.element.to_hex()}"
        if self.kind == "haar":
            return f"haar:{self.n}:{self.haar_seed:016x}"
        segs = ";".join(seg.to_hex() for seg in self.segments)
        return f"homeopathic:{self.n}:{self.k}:{segs}"

    @classmethod
    def from_descriptor(cls, desc):
        parts = desc.split(":")
        kind, n = parts[0], int(parts[1])
        if kind == "identity":
            return cls(kind, n)
        if kind == "clifford":
            return cls(kind, n, element=cl.CliffordElement.from_hex(n, parts[2]))
        if kind == "haar":
            return cls(kind, n, haar_seed=int(parts[2], 16))
        if kind == "homeopathic":
            segs = [cl.CliffordElement.from_hex(n, h) for h in parts[3].split(";")]
            if len(segs) != int(parts[2]) + 1:
                raise ValueError("segment count does not match T-gate count")
            return cls(kind, n, segments=segs)
        raise ValueError(f"bad circuit descriptor {desc!r}")


def sample_circuit(spec, rng):
    if spec.kind == "identity":
        return SampledCircuit("identity", spec.n)
    if spec.kind == "clifford":
        return SampledCircuit("clifford", spec.n, element=cl.sample_uniform(spec.n, rng))
    if spec.kind == "haar":
        seed = int(rng.integers(1 << 62))
        return SampledCircuit("haar", spec.n, haar_seed=seed)
    segments = [cl.sample_uniform(spec.n, rng) for _ in range(spec.k + 1)]
    return SampledCircuit("homeopathic", spec.n, segments=segments)


# ---------------------------------------------------------------------------
# Frame operator: F = sum_x E_U U^dag|x><x|U (x) conj, as a matrix acting on
# vectorized operators.

def _frame_contribution(u, out):
    dim = u.shape[0]
    for x in range(dim):
        a = u.conj().T @ dense.basis_state(x, dim.bit_length() - 1) @ u
        v = dense.vectorize(a)
        out += np.outer(v, v.conj())


def frame_operator_empirical(spec, samples, rng):
    """Monte-Carlo estimate of the frame operator, 4^n x 4^n."""
    if spec.n > 4:
        raise MemoryError("empirical frame operator capped at n <= 4")
    dim = 2 ** spec.n
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for _ in range(samples):
        _frame_contribution(sample_circuit(spec, rng).dense(), out)
    return out / samples


def frame_operator_exact_clifford(n):
    """Exact frame operator by enumerating C_n (n <= 2)."""
    dim = 2 ** n
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    count = 0
    for c in cl.enumerate_group(n):
        _frame_contribution(c.to_dense(), out)
        count += 1
    return out / count


def frame_operator_depolarizing(n):
    """The 2-design frame operator (rho + tr(rho) I) / (2^n + 1) as a matrix."""
    dim = 2 ** n
    vec_i = dense.vectorize(np.eye(dim, dtype=complex))
    return (np.eye(dim * dim, dtype=complex) + np.outer(vec_i, vec_i.conj())) / (dim + 1)


def inverse_frame_apply(n, x):
    """(2^n + 1) x - tr(x) I: inverse of the 2-design frame operator."""
    return (2 ** n + 1) * x - np.trace(x) * np.eye(2 ** n, dtype=complex)
