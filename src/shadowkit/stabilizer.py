"""Signed Pauli strings and tableau-based stabilizer simulation.

Every F2 row of the package is one (x|z) word: X^x Z^z on n <= 31 qubits is
an int (int64 in arrays) with x in its high n bits and z in its low n bits,
qubit 0 the most significant bit of each half (entry c of (x|z) is bit
2n-1-c; ``halves`` splits it).  A Pauli ``i**phase * X^x Z^z`` is its word and
``phase`` mod 4.  A tableau is a state's n stabilizer row words, with full
mod-4 phase tracking so Born probabilities and estimator values come out as
exact dyadic rationals; it keeps no destabilizer rows, since no measurement
here needs them.  A tableau's Z-basis outcomes are uniform on an affine
subspace x0 + span(B) (Aaronson-Gottesman), derived from the generators alone
and read by shot sampling (R shots from one draw), Born probabilities and the
dense statevector.  Supports, like dense statevectors, are made by kernels
over a batch: ``z_support_arrays`` runs one word Gauss-Jordan over a stack of
tableaux and hands out (B, n) arrays (``tableaux`` builds a stack's tableaux
with their supports, ``stack_supports`` stacks tableaux' supports again),
``sample_z_bases`` draws shots and ``in_z_supports`` tests outcomes against a
stack of supports, ``statevectors`` takes the same stacks and
``apply_paulis`` one Pauli per row of a (B, 2^n) array;
``StabilizerTableau.z_support``, ``.sample_z_basis``, ``.in_z_support``,
``.statevector`` and ``PauliString.apply`` are their count-1 cases.  An
outcome is an int with qubit 0 the most significant bit; bitstrings exist
only in shadow records.
"""

from fractions import Fraction

import numpy as np

from .dense import check_entries

_PAULI_BITS = {"I": (0, 0, 0), "X": (1, 0, 0), "Z": (0, 1, 0), "Y": (1, 1, 1)}
_SIGNS = {0: "+", 1: "+i", 2: "-", 3: "-i"}


def halves(words, n):
    """(x, z) of n-qubit (x|z) row words, ints or int64 arrays."""
    return words >> n, words & (1 << n) - 1


class PauliString:
    """A signed n-qubit Pauli operator ``i**phase * X^x Z^z``, (x|z) one word."""

    __slots__ = ("n", "word", "phase")

    def __init__(self, n, word, phase=0):
        self.n, self.word, self.phase = n, int(word), int(phase) % 4

    @classmethod
    def from_label(cls, label):
        """Parse e.g. '-XIZ' or '+iYY'. Letters use qubit order left to right."""
        phase = 0
        for prefix, ph in (("-i", 3), ("+i", 1), ("i", 1), ("-", 2), ("+", 0)):
            if label.startswith(prefix):
                phase, label = ph, label[len(prefix):]
                break
        n, word = len(label), 0
        for j, ch in enumerate(label):
            if ch not in _PAULI_BITS:
                raise ValueError(f"unknown Pauli letter {ch!r} in {label!r}")
            xj, zj, pj = _PAULI_BITS[ch]
            word |= xj << 2 * n - 1 - j | zj << n - 1 - j
            phase += pj
        return cls(n, word, phase)

    def _y_count(self):
        """x.z, the number of Y letters."""
        return (self.word >> self.n & self.word).bit_count()

    def is_hermitian(self):
        return (self.phase + self._y_count()) % 2 == 0

    def hermitian_sign(self):
        """+1 or -1 for a Hermitian Pauli (sign in front of the IXYZ word)."""
        s = (self.phase - self._y_count()) % 4
        if s % 2:
            raise ValueError("Pauli is not Hermitian")
        return 1 if s == 0 else -1

    def label(self):
        n, w = self.n, self.word
        word = ["IXZY"[(w >> 2 * n - 1 - j & 1) + 2 * (w >> n - 1 - j & 1)] for j in range(n)]
        return _SIGNS[(self.phase - self._y_count()) % 4] + "".join(word)

    def key(self):
        return (self.n, self.word, self.phase)

    def __eq__(self, other):
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"PauliString({self.label()})"

    def apply(self, vec):
        """Apply to a dense statevector: the count-1 case of ``apply_paulis``."""
        return apply_paulis([self.word], [self.phase], vec[None])[0]


class StabilizerTableau:
    """Pure stabilizer state as its n stabilizer generator row words."""

    def __init__(self, rows, phases, support=None):
        self.rows = np.asarray(rows, dtype=np.int64)
        self.phases = np.asarray(phases, dtype=np.int64) % 4
        self.n = len(self.rows)
        if self.rows.shape != (self.n,) or self.phases.shape != (self.n,):
            raise ValueError("tableau must have n rows and n phases")
        self._support = support     # its entry of ``z_support_arrays``, once found
        self._z_support = None

    @classmethod
    def zero_state(cls, n):
        """|0...0>: stabilizers Z_j."""
        return cls(1 << np.arange(n - 1, -1, -1), np.zeros(n, dtype=np.int64))

    def row(self, i):
        return PauliString(self.n, self.rows[i], self.phases[i])

    def apply_clifford(self, c):
        """Return the tableau of C|S>; delegates phase algebra to c."""
        if c.n != self.n:
            raise ValueError("qubit count mismatch")
        return StabilizerTableau(*c.conjugate_rows(self.rows, self.phases))

    def support_arrays(self):
        """Its (x0, basis, pivots, dim) entry of ``z_support_arrays``, found once
        (cached: no method changes a tableau once built); ``stack_supports``
        stacks these."""
        if self._support is None:
            self._support = tuple(a[0] for a in z_support_arrays(self.rows[None],
                                                                 self.phases[None]))
        return self._support

    def z_support(self):
        """(x0, basis, pivots) as an int and lists: Z-basis outcomes are
        x0 + span(basis).  Its entry of ``z_support_arrays``, cut to its
        dimension."""
        if self._z_support is None:
            x0, basis, pivots, dim = self.support_arrays()
            self._z_support = (int(x0), basis[:dim].tolist(), pivots[:dim].tolist())
        return self._z_support

    def sample_z_basis(self, rng, count):
        """count Z-basis outcomes, ints, drawn from |<x|S>|^2: the count-1 case
        of ``sample_z_bases``."""
        return sample_z_bases(stack_supports([self]), [rng], count)[0].tolist()

    def in_z_support(self, x):
        """Whether outcome x (an int) lies in the support x0 + span(basis): the
        count-1 case of ``in_z_supports``."""
        return bool(in_z_supports(stack_supports([self]), np.array([[x]]))[0, 0])

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
        return statevectors(self.rows[None], self.phases[None])[0]


# i^phase * (+1 or -1), indexed [phase, sign bit] as ``apply_paulis`` reads it.
_SIGNED_PHASES = np.array([(1j ** a) * np.array([1, -1]) for a in range(4)])


def z_support_arrays(rows, phases):
    """(x0, basis, pivots, dims) of each tableau of (B, n) stacks of row words
    and phases: tableau b's Z-basis outcomes are x0[b] + span(basis[b, :dims[b]]).

    ``basis`` (B, n) is the stabilizer X-parts in reduced row-echelon form,
    with pivot columns ``pivots`` (B, n); its rows past ``dims`` are those of
    the pure-Z stabilizers, whose X-parts are 0.  ``x0`` is 0 on every pivot.
    Bit vectors are int64, qubit 0 the most significant bit.  One Gauss-Jordan
    runs over the whole stack on a copy of the words (2n <= 62 bits), and rows
    are multiplied as Paulis, phases mod 4, so signs stay exact.
    """
    count, n = np.shape(rows)
    if n > 31:
        raise ValueError(f"z_support_arrays holds a 2n-bit row in one 64-bit word, so n <= 31; "
                         f"got n = {n}")
    words = np.array(rows, dtype=np.int64)
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
    return x0, words >> n, pivots, x_pivot.sum(axis=1)


def stack_supports(tabs):
    """The ``z_support_arrays`` of a list of tableaux, stacked from each one's
    own (``tableaux`` hands them out already found)."""
    return tuple(np.array(a) for a in zip(*(t.support_arrays() for t in tabs)))


def sample_z_bases(supports, rngs, count):
    """(B, count) Z-basis outcomes, ints, of the B tableaux of stacked
    ``z_support_arrays``, tableau b's drawn from |<x|S_b>|^2 with rngs[b]: one
    fair bit per pivot, in qubit order, as qubit-by-qubit collapse draws them
    (q random iff a pivot), from one (count, dim) draw per tableau."""
    x0, basis, _, dims = supports
    bits = np.zeros((len(rngs), count, basis.shape[1]), dtype=np.int64)
    for b, (rng, dim) in enumerate(zip(rngs, dims.tolist())):
        bits[b, :, :dim] = rng.integers(2, size=(count, dim))
    return np.bitwise_xor.reduce(bits * basis[:, None], axis=2) ^ x0[:, None]


def in_z_supports(supports, outcomes):
    """(B, R) bools: whether outcome outcomes[b, r] lies in the support
    x0 + span(basis) of tableau b of stacked ``z_support_arrays``.  The basis
    is in reduced row-echelon form, so y = x0 ^ x is in the span exactly when
    it equals the XOR of the basis rows whose pivot bits it holds; the rows
    past a tableau's dimension are 0 and select nothing."""
    x0, basis, pivots, _ = supports
    n = basis.shape[1]
    y = x0[:, None] ^ outcomes
    held = y[..., None] >> np.maximum(n - 1 - pivots, 0)[:, None] & 1
    return np.bitwise_xor.reduce(held * basis[:, None], axis=2) == y


def tableaux(rows, phases):
    """The tableaux of (B, n) stacks of row words and phases, their Z-basis
    supports found by one ``z_support_arrays`` call."""
    return [StabilizerTableau(r, p, support) for r, p, *support in
            zip(rows, phases, *z_support_arrays(rows, phases))]


def apply_paulis(words, phases, vecs):
    """Row b of vecs (B, 2^n) times the Pauli i^phases[b] X^x Z^z of row word
    words[b] (signed permutations, O(B 2^n)): entry j is i^phase (-1)^(z.s)
    vec[s] with s = j ^ x, from one gather and one in-place complex multiply
    by i^phase * (+1 or -1)."""
    x, z = halves(np.asarray(words, dtype=np.int64)[:, None], vecs.shape[-1].bit_length() - 1)
    # flat index b 2^n + s = (b 2^n + j) ^ x, since x < 2^n; z masks the b bits
    src = np.arange(vecs.size).reshape(vecs.shape) ^ x
    neg = np.bitwise_count(src & z) & 1
    out = vecs.reshape(-1)[src]
    del src                 # so at most out, vecs and the factors are held
    signed = _SIGNED_PHASES[np.asarray(phases) % 4]
    np.multiply(np.where(neg.view(bool), signed[:, 1, None], signed[:, 0, None]), out, out=out)
    return out


def statevectors(rows, phases):
    """Dense statevectors (B, 2^n), arbitrary global phases, of the tableaux of
    (B, n) stacks of row words and phases: the stabilizer projectors
    (1 + g)/2 applied to |x0> (the whole batch's x0 from one ``z_support_arrays``),
    added and halved in place, so at most three batches are held (two and
    ``apply_paulis``' factors).  Every entry is i^a 2^-j, so the row sums of
    squares, and with them the norms, are exact."""
    count, n = np.shape(rows)
    what = f"{count} statevectors" if count > 1 else "a statevector"
    check_entries(count * 2 ** n, f"{what} on {n} qubits")
    v = np.zeros((count, 2 ** n), dtype=complex)
    v[np.arange(count), z_support_arrays(rows, phases)[0]] = 1.0
    for i in range(n):
        w = apply_paulis(rows[:, i], phases[:, i], v)
        np.add(v, w, out=w)
        w /= 2
        v = w
    norm = np.sqrt(np.square(v.view(float)).sum(axis=1))
    if (norm < 1e-9).any():
        raise RuntimeError("invalid tableau: no support found")
    v /= norm[:, None]
    return v
