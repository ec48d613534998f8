"""Signed Pauli strings and tableau-based stabilizer simulation.

A Pauli is stored as ``i**phase * X^x Z^z`` with ``x, z`` bit vectors over
the qubits (qubit 0 leftmost) and ``phase`` an exponent mod 4.  A tableau
is a state's n stabilizer generator rows, with full mod-4 phase tracking so
Born probabilities and estimator values come out as exact dyadic rationals;
it keeps no destabilizer rows, since no measurement here needs them.  A
tableau's Z-basis outcomes are uniform on an affine subspace x0 + span(B)
(Aaronson-Gottesman), derived from the generators alone and read by shot
sampling (R shots from one draw), Born probabilities and the dense
statevector.  Supports, like dense statevectors, are made by kernels over a
batch: ``z_supports`` runs one packed-word Gauss-Jordan over a stack of
tableaux (``tableaux`` builds a stack's tableaux with their supports),
``statevectors`` takes a list of tableaux and ``apply_paulis`` one Pauli per
row of a (B, 2^n) array; ``StabilizerTableau.z_support``, ``.statevector``
and ``PauliString.apply`` are their count-1 cases.  An outcome is an int with
qubit 0 the most significant bit; bitstrings exist only in shadow records.
"""

from fractions import Fraction

import numpy as np

from .dense import check_entries

_PAULI_BITS = {"I": (0, 0, 0), "X": (1, 0, 0), "Z": (0, 1, 0), "Y": (1, 1, 1)}
_SIGNS = {0: "+", 1: "+i", 2: "-", 3: "-i"}


def _bits_to_int(bits):
    """The bit vector as an int, entry 0 the most significant bit."""
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-len(bits) % 8)


class PauliString:
    """A signed n-qubit Pauli operator ``i**phase * X^x Z^z``."""

    __slots__ = ("x", "z", "phase")

    def __init__(self, x, z, phase=0):
        self.x = np.asarray(x, dtype=np.uint8) & 1
        self.z = np.asarray(z, dtype=np.uint8) & 1
        self.phase = int(phase) % 4

    @property
    def n(self):
        return len(self.x)

    @classmethod
    def from_label(cls, label):
        """Parse e.g. '-XIZ' or '+iYY'. Letters use qubit order left to right."""
        phase = 0
        for prefix, ph in (("-i", 3), ("+i", 1), ("i", 1), ("-", 2), ("+", 0)):
            if label.startswith(prefix):
                phase, label = ph, label[len(prefix):]
                break
        x = np.zeros(len(label), dtype=np.uint8)
        z = np.zeros(len(label), dtype=np.uint8)
        for j, ch in enumerate(label):
            if ch not in _PAULI_BITS:
                raise ValueError(f"unknown Pauli letter {ch!r} in {label!r}")
            xj, zj, pj = _PAULI_BITS[ch]
            x[j], z[j] = xj, zj
            phase += pj
        return cls(x, z, phase)

    @classmethod
    def random(cls, n, rng, signed=True):
        x = rng.integers(2, size=n, dtype=np.uint8)
        z = rng.integers(2, size=n, dtype=np.uint8)
        base = int(np.dot(x, z)) % 2          # keep it Hermitian
        phase = base + (2 * int(rng.integers(2)) if signed else 0)
        return cls(x, z, phase)

    def is_hermitian(self):
        return (self.phase + int(np.dot(self.x, self.z))) % 2 == 0

    def hermitian_sign(self):
        """+1 or -1 for a Hermitian Pauli (sign in front of the IXYZ word)."""
        s = (self.phase - int(np.dot(self.x, self.z))) % 4
        if s % 2:
            raise ValueError("Pauli is not Hermitian")
        return 1 if s == 0 else -1

    def label(self):
        word = []
        for xj, zj in zip(self.x, self.z):
            word.append("IXZY"[xj + 2 * zj])
        s = (self.phase - int(np.dot(self.x, self.z))) % 4
        return _SIGNS[s] + "".join(word)

    def key(self):
        return (self.x.tobytes(), self.z.tobytes(), self.phase)

    def __eq__(self, other):
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"PauliString({self.label()})"

    def x_int(self):
        return _bits_to_int(self.x)

    def z_int(self):
        return _bits_to_int(self.z)

    def apply(self, vec):
        """Apply to a dense statevector: the count-1 case of ``apply_paulis``."""
        return apply_paulis(self.x[None], self.z[None], [self.phase], vec[None])[0]

    def dense(self):
        from .dense import kron_all, I2, X, Z
        factors = []
        for xj, zj in zip(self.x, self.z):
            f = I2
            if xj:
                f = X
            if zj:
                f = f @ Z
            factors.append(f)
        return (1j ** self.phase) * kron_all(factors)


class StabilizerTableau:
    """Pure stabilizer state as its n stabilizer generator rows."""

    def __init__(self, xs, zs, phases):
        self.xs = np.asarray(xs, dtype=np.uint8)
        self.zs = np.asarray(zs, dtype=np.uint8)
        self.phases = np.asarray(phases, dtype=np.int64) % 4
        self.n = self.xs.shape[1]
        if self.xs.shape != (self.n, self.n):
            raise ValueError("tableau must have n rows")
        self._z_support = None

    @classmethod
    def zero_state(cls, n):
        """|0...0>: stabilizers Z_j."""
        return cls(np.zeros((n, n), dtype=np.uint8), np.eye(n, dtype=np.uint8),
                   np.zeros(n, dtype=np.int64))

    def row(self, i):
        return PauliString(self.xs[i], self.zs[i], self.phases[i])

    def apply_clifford(self, c):
        """Return the tableau of C|S>; delegates phase algebra to c."""
        if c.n != self.n:
            raise ValueError("qubit count mismatch")
        xs, zs, phases = c.conjugate_rows(self.xs, self.zs, self.phases)
        return StabilizerTableau(xs, zs, phases)

    def z_support(self):
        """(x0, basis, pivots), computed once: Z-basis outcomes are x0 + span(basis).

        The count-1 case of ``z_supports``.  Cached: no method changes a tableau
        once built.
        """
        if self._z_support is None:
            self._z_support = z_supports(self.xs[None], self.zs[None], self.phases[None])[0]
        return self._z_support

    def sample_z_basis(self, rng, count):
        """count Z-basis outcomes, ints, drawn from |<x|S>|^2: one fair bit per
        pivot, in qubit order, as qubit-by-qubit collapse draws them (q random iff
        a pivot), from one (count, d) draw."""
        x0, basis, _ = self.z_support()
        bits = rng.integers(2, size=(count, len(basis)))
        return (np.bitwise_xor.reduce(bits * np.array(basis, dtype=np.int64), axis=1)
                ^ x0).tolist()

    def in_z_support(self, x):
        """Whether outcome x (an int) lies in the support x0 + span(basis)."""
        x0, basis, pivots = self.z_support()
        y = x0 ^ x
        for row, c in zip(basis, pivots):
            if y >> (self.n - 1 - c) & 1:
                y ^= row
        return not y

    def z_probability(self, x):
        """Exact Born probability of outcome x (an int) as a Fraction."""
        if not self.in_z_support(x):
            return Fraction(0)
        return Fraction(1, 2 ** len(self.z_support()[2]))

    def z_overlap(self, other):
        """Exact sum_x p_x q_x of this and another tableau's Z-basis laws, as a
        Fraction: both are uniform on x0 + V and y0 + W, so it is 2^-dim(V+W) when
        x0 ^ y0 is in V + W, and 0 otherwise."""
        (x0, basis, _), (y0, others, _) = self.z_support(), other.z_support()
        span = []       # a basis of V + W with distinct leading bits, largest first

        def reduced(v):
            for b in span:
                v = min(v, v ^ b)   # clears b's leading bit
            return v
        for row in basis + others:
            if row := reduced(row):
                span = sorted(span + [row], reverse=True)
        return Fraction(0) if reduced(x0 ^ y0) else Fraction(1, 2 ** len(span))

    def statevector(self):
        """Dense statevector (arbitrary global phase): the count-1 case of
        ``statevectors``."""
        return statevectors([self])[0]


# i^phase * (+1 or -1), indexed [phase, sign bit] as ``apply_paulis`` reads it.
_SIGNED_PHASES = np.array([(1j ** a) * np.array([1, -1]) for a in range(4)])


def _ints(bits):
    """Rows of bit vectors as int64, entry 0 the most significant bit."""
    return bits.astype(np.int64) @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


def z_supports(xs, zs, phases):
    """(x0, basis, pivots) of each tableau of (B, n, n) stacks xs, zs and (B, n)
    phases: its Z-basis outcomes are x0 + span(basis).

    ``basis`` is the stabilizer X-parts in reduced row-echelon form, with pivot
    columns ``pivots``; ``x0`` is 0 on every pivot.  Bit vectors are ints, qubit
    0 the most significant bit.  One Gauss-Jordan runs over the whole stack: a
    row (x|z) is one 64-bit word, column c at bit 2n - 1 - c (2n <= 62), and
    rows are multiplied as Paulis, phases mod 4, so signs stay exact.
    """
    count, n = len(xs), np.shape(xs)[-1]
    if n > 31:
        raise ValueError(f"z_supports holds a 2n-bit row in one 64-bit word, so n <= 31; "
                         f"got n = {n}")
    words = _ints(np.concatenate([xs, zs], axis=-1).reshape(count, n, 2 * n))
    phases = np.asarray(phases, dtype=np.int64).reshape(count, n) % 4
    rank = np.zeros(count, dtype=np.int64)
    pivots = np.full((count, n), -1)
    x_pivot = np.zeros((count, n), dtype=bool)
    batch, rows = np.arange(count), np.arange(n)
    # X-parts end in RREF, and the pure-Z rows (which commute with them) pivot
    # on the other qubits, so x0 is 0 on the X pivots
    for col in range(2 * n):
        if (rank == n).all():
            break
        shift = 2 * n - 1 - col
        free = (words >> shift & 1).astype(bool) & (rows >= rank[:, None])
        p = free.argmax(axis=1)
        take = free[batch, p]
        if col < n:
            x_pivot[:, col] = take
        else:
            take &= ~x_pivot[:, col - n]
        if not take.any():
            continue
        # the pivot row moves up to row r = rank (a no-op where nothing is taken)
        r = np.minimum(rank, n - 1)
        p = np.where(take, p, r)
        for m in (words, phases):
            m[batch, r], m[batch, p] = m[batch, p], m[batch, r]
        word, phase = words[batch, r], phases[batch, r]
        hit = (words >> shift & 1).astype(bool) & take[:, None] & (rows != r[:, None])
        phases += hit * (phase[:, None] + 2 * np.bitwise_count(words & (word >> n)[:, None]))
        phases &= 3
        words ^= hit * word[:, None]
        pivots[batch[take], rank[take]] = col
        rank += take
    # a pure-Z row Z^a with sign (-1)^b asks a.x = b: x = b on its pivot
    x0 = ((phases >> 1 & 1) * (pivots >= n) << 2 * n - 1 - pivots).sum(axis=1)
    return [(x, basis[:d], piv[:d]) for x, basis, piv, d in
            zip(x0.tolist(), (words >> n).tolist(), pivots.tolist(), x_pivot.sum(axis=1).tolist())]


def tableaux(xs, zs, phases):
    """The tableaux of (B, n, n) stacks xs, zs and (B, n) phases, their Z-basis
    supports found by one ``z_supports`` call."""
    out = [StabilizerTableau(*t) for t in zip(xs, zs, phases)]
    for tab, support in zip(out, z_supports(xs, zs, phases)):
        tab._z_support = support
    return out


def apply_paulis(xs, zs, phases, vecs):
    """Row b of vecs (B, 2^n) times the Pauli i^phases[b] X^xs[b] Z^zs[b]
    (signed permutations, O(B 2^n)): entry j is i^phase (-1)^(z.s) vec[s] with
    s = j ^ x, from one gather and one in-place complex multiply by
    i^phase * (+1 or -1)."""
    # flat index b 2^n + s = (b 2^n + j) ^ x, since x < 2^n; z masks the b bits
    src = np.arange(vecs.size).reshape(vecs.shape) ^ _ints(xs)[:, None]
    neg = np.bitwise_count(src & _ints(zs)[:, None]) & 1
    out = vecs.reshape(-1)[src]
    del src                 # so at most out, vecs and the factors are held
    signed = _SIGNED_PHASES[np.asarray(phases) % 4]
    np.multiply(np.where(neg.view(bool), signed[:, 1, None], signed[:, 0, None]), out, out=out)
    return out


def statevectors(tableaux):
    """Dense statevectors (B, 2^n) of same-n tableaux (arbitrary global phases):
    the stabilizer projectors (1 + g)/2 applied to |x0> (the whole batch's x0
    from one ``z_supports``), added and halved in place, so at most three
    batches are held (two and ``apply_paulis``' factors).  Every entry is
    i^a 2^-j, so the row sums of squares, and with them the norms, are exact."""
    n, count = tableaux[0].n, len(tableaux)
    what = f"{count} statevectors" if count > 1 else "a statevector"
    check_entries(count * 2 ** n, f"{what} on {n} qubits")
    xs, zs, phases = (np.stack([getattr(t, a) for t in tableaux])
                      for a in ("xs", "zs", "phases"))
    v = np.zeros((count, 2 ** n), dtype=complex)
    v[np.arange(count), [x0 for x0, _, _ in z_supports(xs, zs, phases)]] = 1.0
    for i in range(n):
        w = apply_paulis(xs[:, i], zs[:, i], phases[:, i], v)
        np.add(v, w, out=w)
        w /= 2
        v = w
    norm = np.sqrt(np.square(v.view(float)).sum(axis=1))
    if (norm < 1e-9).any():
        raise RuntimeError("invalid tableau: no support found")
    v /= norm[:, None]
    return v
