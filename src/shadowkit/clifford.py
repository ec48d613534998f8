"""The n-qubit Clifford group in binary-symplectic form.

An element is a pair ``(S, alpha)``: a 2n x 2n matrix over F2 that is
symplectic for the standard form ``J = [[0, I], [I, 0]]``, plus 2n sign
bits.  Column j of S gives the X/Z bits of the conjugated generator
(X_0..X_{n-1}, Z_0..Z_{n-1} in that order) and ``alpha[j]`` its sign, the
image being the Hermitian Pauli ``(-1)**alpha[j] * i**(x.z) * X^x Z^z``.
This pair determines the unitary up to global phase, and every choice of
``(S, alpha)`` is a valid element, so the group order is
``2**(n**2 + 2n) * prod_{j=1..n} (4**j - 1)``.

Uniform sampling builds the symplectic factor by the transvection
construction of Koenig and Smolin, which is an explicit bijection from
mixed-radix index tuples onto the symplectic group; sampling the tuple
uniformly is therefore exactly uniform, and iterating it enumerates the
group without repetition.
"""

import numpy as np

from . import bits as f2
from .stabilizer import PauliString, StabilizerTableau


def symplectic_order(n):
    order = 1
    for j in range(1, n + 1):
        order *= (4 ** j - 1) * 2 ** (2 * j - 1)
    return order


def clifford_order(n):
    """|C_n| modulo global phase: one element per (S, alpha) pair."""
    return 4 ** n * symplectic_order(n)


def symplectic_form(n):
    j = np.zeros((2 * n, 2 * n), dtype=np.uint8)
    j[:n, n:] = np.eye(n, dtype=np.uint8)
    j[n:, :n] = np.eye(n, dtype=np.uint8)
    return j


def is_symplectic(s):
    n = s.shape[0] // 2
    j = symplectic_form(n)
    return (f2.mat_mul_f2(f2.mat_mul_f2(s.T, j), s) == j).all()


# ---------------------------------------------------------------------------
# Koenig-Smolin construction.  A symplectic matrix is indexed by per-level
# components (k_l, free_l), l = 1..n, with 1 <= k_l < 4**l and
# 0 <= free_l < 2**(2l - 1).  Level l embeds the level-(l-1) matrix as the
# lower-right block of a 2l x 2l identity and multiplies it by four
# transvections read off (k_l, free_l).  Internally coordinates come in
# (x_i, z_i) pairs (the "direct sum" convention); the result is permuted
# into the standard block convention at the end.

def _bits(values, width):
    """Little-endian binary digits of nonnegative integers below 2**63."""
    raw = np.asarray(values, dtype="<i8")[..., None].view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=width, bitorder="little")


def _swap_pairs(v):
    """Exchange x_i and z_i in direct-sum coordinates."""
    return v.reshape(v.shape[:-1] + (-1, 2))[..., ::-1].reshape(v.shape)


def _transvect(v, h):
    """Z_h v = v + <v, h> h for stacks of vectors."""
    inner = (v & _swap_pairs(h)).sum(axis=-1, dtype=np.uint8) & 1
    return v ^ (inner[..., None] * h)


def _level_transvections(k, free, nn):
    """The four transvection vectors (t0, t1, h0, f1) of every level.

    ``k`` and ``free`` have shape (n, count), row l - 1 holding level l.
    Returns shape (n, 4, count, nn), level l's vectors in the first 2l
    coordinates.  t0 and t1 satisfy Z_t1 Z_t0 e1 = f1, f1 holding the bits
    of k (Koenig and Smolin's find_transvection with x = e1).
    """
    f1 = _bits(k, nn)
    # <e1, f1> = 1, or f1 = e1: one transvection, by f1 + e1
    easy = ((f1[..., 1] == 1) | (k == 1))[..., None]
    # otherwise go through z with <e1, z> = <f1, z> = 1: z_1 = 1, and at the
    # first nonzero pair (a, b) of f1, z takes (b & ~a, a), plus z_0 = f1_0
    pairs = f1.reshape(f1.shape[:-1] + (-1, 2))
    nonzero = pairs.any(axis=-1)
    first = nonzero & (np.cumsum(nonzero, axis=-1, dtype=np.uint8) == 1)
    a, b = pairs[..., 0], pairs[..., 1]
    z = (np.stack([b & ~a, a], axis=-1) * first[..., None]).reshape(f1.shape)
    z[..., 0] |= f1[..., 0]
    z[..., 1] = 1
    t0 = np.where(easy, f1, z)
    t0[..., 0] ^= 1
    t1 = (f1 ^ z) * ~easy
    # e1 with the high bits of free in coordinates 2.., carried through t0, t1
    h0 = _transvect(_transvect(_bits((free >> 1 << 2) | 1, nn), t0), t1)
    return np.stack([t0, t1, h0, f1 * ((free & 1) == 0)[..., None]], axis=1)


def _build_symplectic(k, free):
    """Standard-convention symplectic matrices from index components.

    ``k`` and ``free`` have shape (n, count), row l - 1 holding level l.
    This is the only construction: sampling and enumeration both feed it.
    """
    n, count = k.shape
    nn = 2 * n
    vectors = _level_transvections(k, free, nn)
    g = np.zeros((count, nn, nn), dtype=np.uint8)
    g[:, np.arange(nn), np.arange(nn)] = 1
    # Only bit 0 of an entry matters: in bit 0, uint8 sums, products and XORs
    # are F2 arithmetic, so g is reduced mod 2 once, at the end.
    for level in range(1, n + 1):
        m = 2 * level
        # level l acts on the lower-right 2l x 2l block; the rest is identity
        block = g[:, nn - m:, nn - m:]
        hs = vectors[level - 1, :, :, :m]
        swapped = _swap_pairs(hs)[..., None]
        for h, h_swapped in zip(hs, swapped):
            # each row gains <row, h> h
            block ^= np.matmul(block, h_swapped) * h[:, None, :]
    g &= 1
    # standard position i reads direct-sum position 2i (x_i) or 2i+1 (z_i)
    gather = np.concatenate([np.arange(0, nn, 2), np.arange(1, nn, 2)])
    return g[:, gather][:, :, gather]


def _components_from_index(index, n):
    k = np.empty((n, 1), dtype=np.int64)
    free = np.empty((n, 1), dtype=np.int64)
    for level in range(n, 0, -1):
        s = 4 ** level - 1
        k[level - 1] = index % s + 1
        index //= s
        free[level - 1] = index % 2 ** (2 * level - 1)
        index >>= 2 * level - 1
    return k, free


def sample_symplectic_batch(n, rng, count):
    """count standard-convention symplectic matrices, exactly uniform."""
    k = np.empty((n, count), dtype=np.int64)
    free = np.empty((n, count), dtype=np.int64)
    for level in range(1, n + 1):
        k[level - 1] = rng.integers(1, 4 ** level, size=count)
        free[level - 1] = rng.integers(0, 2 ** (2 * level - 1), size=count)
    return _build_symplectic(k, free)


def symplectic_from_index(index, n):
    """Standard-convention symplectic matrix with canonical index ``index``."""
    if not 0 <= index < symplectic_order(n):
        raise ValueError("symplectic index out of range")
    return _build_symplectic(*_components_from_index(index, n))[0]


# ---------------------------------------------------------------------------

class CliffordElement:
    __slots__ = ("symplectic", "alpha", "n", "_phase_cache")

    def __init__(self, symplectic, alpha):
        self.symplectic = np.asarray(symplectic, dtype=np.uint8) & 1
        self.alpha = np.asarray(alpha, dtype=np.uint8) & 1
        self.n = self.symplectic.shape[0] // 2
        self._phase_cache = None

    @classmethod
    def identity(cls, n):
        return cls(np.eye(2 * n, dtype=np.uint8), np.zeros(2 * n, dtype=np.uint8))

    def _column_data(self):
        """Per-generator image phases q_j and the reordering form M."""
        if self._phase_cache is None:
            s = self.symplectic.astype(np.int64)
            n = self.n
            xz = (s[:n] * s[n:]).sum(axis=0)       # x.z per column
            q = (xz + 2 * self.alpha.astype(np.int64)) % 4
            m = np.triu((s[n:].T @ s[:n]) % 2, 1)  # m[j,j'] = z_j . x_j', j<j'
            self._phase_cache = (q, m)
        return self._phase_cache

    def conjugate_rows(self, xs, zs, phases):
        """Conjugate a batch of Pauli rows: returns new (xs, zs, phases)."""
        n = self.n
        v = np.concatenate([xs, zs], axis=1).astype(np.int64)
        q, m = self._column_data()
        new_bits = (v @ self.symplectic.T.astype(np.int64)) % 2
        quad = ((v @ m) * v).sum(axis=1) % 2
        new_phases = (np.asarray(phases) + v @ q + 2 * quad) % 4
        return (new_bits[:, :n].astype(np.uint8),
                new_bits[:, n:].astype(np.uint8), new_phases)

    def conjugate_pauli(self, p):
        xs, zs, phases = self.conjugate_rows(p.x.reshape(1, -1),
                                             p.z.reshape(1, -1), [p.phase])
        return PauliString(xs[0], zs[0], int(phases[0]))

    def compose(self, other):
        """Element implementing 'apply other, then self'."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        n = self.n
        s = f2.mat_mul_f2(self.symplectic, other.symplectic).astype(np.uint8)
        ob = other.symplectic.astype(np.int64)
        oq = (ob[:n] * ob[n:]).sum(axis=0) + 2 * other.alpha.astype(np.int64)
        xs, zs, phases = self.conjugate_rows(other.symplectic[:n].T,
                                             other.symplectic[n:].T, oq % 4)
        sx = s.astype(np.int64)
        target_xz = (sx[:n] * sx[n:]).sum(axis=0)
        alpha = ((phases - target_xz) // 2) % 2
        if ((phases - target_xz) % 2).any():
            raise AssertionError("composition produced a non-Hermitian image")
        return CliffordElement(s, alpha.astype(np.uint8))

    def inverse(self):
        n = self.n
        j = symplectic_form(n)
        s_inv = f2.mat_mul_f2(f2.mat_mul_f2(j, self.symplectic.T), j).astype(np.uint8)
        xs, zs, phases = self.conjugate_rows(s_inv[:n].T, s_inv[n:].T,
                                             (s_inv[:n] * s_inv[n:]).sum(axis=0) % 4)
        # self applied to the unsigned inverse images must give back the
        # generators; the leftover sign is the inverse's alpha
        alpha = (np.asarray(phases) // 2) % 2
        return CliffordElement(s_inv, alpha.astype(np.uint8))

    def to_dense(self):
        """A unitary realizing this element (global phase arbitrary).

        Column x is the image of X^x applied to the rotated zero state:
        U|x> = (U X^x U^dag) U|0^n>.
        """
        n = self.n
        if n > 6:
            raise ValueError("dense Clifford capped at n <= 6")
        psi0 = StabilizerTableau.zero_state(n).apply_clifford(self).statevector()
        dim = 2 ** n
        idx = np.arange(dim)
        xbits = ((idx[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
        imgs, img_z, phases = self.conjugate_rows(
            xbits, np.zeros((dim, n), dtype=np.uint8), np.zeros(dim, dtype=np.int64))
        weights = 1 << np.arange(n - 1, -1, -1)
        a_int = imgs @ weights                     # image X-bit patterns
        b_int = img_z @ weights
        src = idx[:, None] ^ a_int[None, :]        # source index per (row, col)
        signs = 1 - 2 * (np.bitwise_count(src & b_int[None, :]) & 1).astype(np.int64)
        i_pow = np.array([1, 1j, -1, -1j])[phases]
        return i_pow[None, :] * signs * psi0[src]

    def key(self):
        return (self.n, self.symplectic.tobytes(), self.alpha.tobytes())

    def __eq__(self, other):
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def to_hex(self):
        bits = np.concatenate([self.symplectic.reshape(-1), self.alpha])
        return np.packbits(bits).tobytes().hex()

    @classmethod
    def from_hex(cls, n, hexstr):
        """Inverse of ``to_hex``; rejects any payload ``to_hex`` cannot produce."""
        need = 4 * n * n + 2 * n
        raw = np.unpackbits(np.frombuffer(bytes.fromhex(hexstr), dtype=np.uint8))
        if len(raw) != 8 * ((need + 7) // 8) or raw[need:].any():
            raise ValueError(f"hex payload {hexstr!r} is not an n={n} Clifford element")
        s = raw[:4 * n * n].reshape(2 * n, 2 * n)
        if not is_symplectic(s):
            raise ValueError(f"hex payload {hexstr!r} is not symplectic")
        return cls(s, raw[4 * n * n:need])

    def __repr__(self):
        return f"CliffordElement(n={self.n}, {self.to_hex()[:16]}...)"


def sample_uniform(n, rng):
    """Exactly uniform element of C_n (modulo global phase)."""
    return sample_uniform_batch(n, rng, 1)[0]


def sample_uniform_batch(n, rng, count):
    """count independent uniform elements of C_n."""
    mats = sample_symplectic_batch(n, rng, count)
    alphas = rng.integers(2, size=(count, 2 * n), dtype=np.uint8)
    return [CliffordElement(s, a) for s, a in zip(mats, alphas)]


def enumerate_group(n):
    """All of C_n (mod phase), each element exactly once.  n <= 2 only."""
    if n not in (1, 2):
        raise ValueError("exhaustive enumeration supported for n in {1, 2}")
    for index in range(symplectic_order(n)):
        s = symplectic_from_index(index, n)
        for abits in range(4 ** n):
            alpha = _bits(abits, 2 * n)
            yield CliffordElement(s, alpha)


def random_stabilizer_tableau(n, rng):
    """Uniformly random pure stabilizer state, as a tableau."""
    return StabilizerTableau.zero_state(n).apply_clifford(sample_uniform(n, rng))
