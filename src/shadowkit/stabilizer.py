"""Signed Pauli strings and tableau-based stabilizer simulation.

A Pauli is stored as ``i**phase * X^x Z^z`` with ``x, z`` bit vectors over
the qubits (qubit 0 leftmost) and ``phase`` an exponent mod 4.  A tableau
holds n destabilizer rows followed by n stabilizer rows, in the usual
Aaronson-Gottesman layout, with full mod-4 phase tracking so overlaps and
estimator values come out as exact dyadic rationals.  A tableau's Z-basis
outcomes are uniform on an affine subspace x0 + span(B), derived once
(``z_support``) and read by shot sampling, Born probabilities and the dense
statevector.
"""

from fractions import Fraction

import numpy as np

from . import bits as f2

_PAULI_BITS = {"I": (0, 0, 0), "X": (1, 0, 0), "Z": (0, 1, 0), "Y": (1, 1, 1)}
_SIGNS = {0: "+", 1: "+i", 2: "-", 3: "-i"}


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
    def identity(cls, n):
        return cls(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

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

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("Pauli size mismatch")
        phase = self.phase + other.phase + 2 * int(np.dot(self.z, other.x))
        return PauliString(self.x ^ other.x, self.z ^ other.z, phase)

    def commutes(self, other):
        return (int(np.dot(self.x, other.z)) + int(np.dot(self.z, other.x))) % 2 == 0

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
        return int("".join(map(str, self.x)), 2) if self.n else 0

    def z_int(self):
        return int("".join(map(str, self.z)), 2) if self.n else 0

    def apply(self, vec):
        """Apply to a dense statevector (signed permutation, O(2^n))."""
        n = self.n
        xi, zi = self.x_int(), self.z_int()
        idx = np.arange(len(vec))
        signs = 1 - 2 * (np.bitwise_count(idx & zi) & 1).astype(np.int64)
        out = np.empty_like(vec, dtype=complex)
        out[idx ^ xi] = (1j ** self.phase) * signs * vec
        return out

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
    """Pure stabilizer state as destabilizer/stabilizer generator rows."""

    def __init__(self, xs, zs, phases):
        self.xs = np.asarray(xs, dtype=np.uint8)
        self.zs = np.asarray(zs, dtype=np.uint8)
        self.phases = np.asarray(phases, dtype=np.int64) % 4
        self.n = self.xs.shape[1]
        if self.xs.shape != (2 * self.n, self.n):
            raise ValueError("tableau must have 2n rows")
        self._z_support = None

    @classmethod
    def zero_state(cls, n):
        """|0...0>: destabilizers X_j, stabilizers Z_j."""
        xs = np.zeros((2 * n, n), dtype=np.uint8)
        zs = np.zeros((2 * n, n), dtype=np.uint8)
        for j in range(n):
            xs[j, j] = 1
            zs[n + j, j] = 1
        return cls(xs, zs, np.zeros(2 * n, dtype=np.int64))

    @classmethod
    def basis_state(cls, x):
        """|x> for a bitstring like '010'."""
        zero = cls.zero_state(len(x))
        return cls(zero.xs, zero.zs, [0] * len(x) + [2 * int(b) for b in x])

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

        ``basis`` is the stabilizer X-parts in reduced row-echelon form, with pivot
        columns ``pivots``; ``x0`` is 0 on every pivot.  Bit vectors are ints, qubit
        0 the most significant bit.  Cached: no method changes a tableau once built.
        """
        if self._z_support is None:
            n = self.n
            packed = np.packbits(np.hstack([self.xs[n:], self.zs[n:]]), axis=1)
            rows = [int.from_bytes(r.tobytes(), "big") >> (-2 * n % 8) for r in packed]
            phases = self.phases[n:].tolist()
            # Gauss-Jordan on the 2n-bit rows (x|z), multiplied as Paulis so phases
            # stay exact: X-parts end in RREF, and the pure-Z rows (which commute
            # with them) pivot on the other qubits, so x0 is 0 on the X pivots.
            pivots = []
            for col in range(2 * n):
                bit, r = 1 << (2 * n - 1 - col), len(pivots)
                p = next((i for i in range(r, n) if rows[i] & bit), None)
                if p is None or col - n in pivots:
                    continue
                for m in (rows, phases):
                    m[r], m[p] = m[p], m[r]
                for i in range(n):
                    if i != r and rows[i] & bit:
                        phases[i] += phases[r] + 2 * (rows[i] & rows[r] >> n).bit_count()
                        rows[i] ^= rows[r]
                pivots.append(col)
            # a pure-Z row Z^a with sign (-1)^b asks a.x = b: x = b on its pivot
            x0 = sum((s >> 1 & 1) << (2 * n - 1 - c)
                     for s, c in zip(phases, pivots) if c >= n)
            d = sum(c < n for c in pivots)
            self._z_support = x0, [row >> n for row in rows[:d]], pivots[:d]
        return self._z_support

    def sample_z_basis(self, rng):
        """One Z-basis outcome drawn from |<x|S>|^2: one fair bit per pivot, in
        qubit order, as qubit-by-qubit collapse draws them (q random iff a pivot)."""
        x, basis, _ = self.z_support()
        for row in basis:
            if rng.integers(2):
                x ^= row
        return format(x, f"0{self.n}b")

    def z_support_dim(self):
        """Dimension of the affine support of the Z-basis distribution."""
        return len(self.z_support()[2])

    def z_probability(self, x):
        """Exact Born probability of bitstring x as a Fraction."""
        x0, basis, pivots = self.z_support()
        y = x0 ^ int(x, 2)
        for row, c in zip(basis, pivots):
            if y >> (self.n - 1 - c) & 1:
                y ^= row
        return Fraction(0) if y else Fraction(1, 2 ** len(pivots))

    def statevector(self):
        """Dense statevector (oracle path; arbitrary global phase)."""
        v = np.zeros(2 ** self.n, dtype=complex)
        v[self.z_support()[0]] = 1.0
        for g in map(self.row, range(self.n, 2 * self.n)):
            v = (v + g.apply(v)) / 2
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            raise RuntimeError("invalid tableau: no support found")
        return v / norm


def _group_product(tab, coeffs):
    """Product of the selected stabilizer generators of tab (they commute)."""
    acc = PauliString.identity(tab.n)
    for j in np.nonzero(coeffs)[0]:
        acc = acc * tab.row(tab.n + int(j))
    return acc


def overlap_sq(a, b):
    """|<S_a|S_b>|^2, exactly, as a dyadic Fraction (0 or 2**-k).

    The stabilizer groups intersect in a subgroup of dimension d.  If the
    signs agree on that subgroup the overlap is 2**(d-n), otherwise 0.
    """
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    n = a.n
    ga = np.concatenate([a.xs[n:], a.zs[n:]], axis=1)
    gb = np.concatenate([b.xs[n:], b.zs[n:]], axis=1)
    ker = f2.kernel_f2(np.concatenate([ga, gb], axis=0).T)
    d = len(ker)
    for coeff in ker:
        pa = _group_product(a, coeff[:n])
        pb = _group_product(b, coeff[n:])
        if pa.hermitian_sign() != pb.hermitian_sign():
            return Fraction(0)
    return Fraction(1, 2 ** (n - d))
