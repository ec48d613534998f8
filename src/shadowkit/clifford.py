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

Pauli rows are conjugated by one kernel with an optional leading batch
axis: ``conjugate_rows_batch`` stacks a list of elements, and
``CliffordElement.conjugate_rows`` is its one-element case.
"""

import functools

import numpy as np

from . import bits as f2
from . import dense
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
# (x_i, z_i) pairs (the "direct sum" convention), and a vector or matrix row
# is one uint64 word whose bit i is direct-sum coordinate i (2n <= 62 at
# MAX_SAMPLED_N), so a transvection is AND, popcount and XOR.  The result is
# unpacked and permuted into the standard block convention at the end.

def _bits(values, width):
    """Little-endian binary digits of nonnegative integers below 2**63."""
    raw = np.asarray(values, dtype="<i8")[..., None].view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=width, bitorder="little")


_X_BITS = np.uint64(0x5555555555555555)


def _swap(v):
    """Exchange each x_i and z_i bit of direct-sum words."""
    return (v & _X_BITS) << 1 | (v >> 1) & _X_BITS


def _parity(v, mask):
    """Parity of v & mask; with mask = _swap(h) it is the symplectic <v, h>."""
    return np.bitwise_count(v & mask) & 1


def _build_symplectic(k, free):
    """Standard-convention symplectic matrices from index components.

    ``k`` and ``free`` have shape (n, count), row l - 1 holding level l.
    This is the only construction: sampling and enumeration both feed it.
    Level l's four transvection words (t0, t1, h0, f1) satisfy
    Z_t1 Z_t0 e1 = f1, f1 holding the bits of k (Koenig and Smolin's
    find_transvection with x = e1).
    """
    n, count = k.shape
    nn = 2 * n
    f1 = k.astype(np.uint64)
    free = free.astype(np.uint64)
    # <e1, f1> = 1, or f1 = e1: one transvection, by f1 + e1
    easy = (f1 & 2 != 0) | (f1 == 1)
    # otherwise go through z with <e1, z> = <f1, z> = 1: z_1 = 1, and at the
    # first nonzero pair (a, b) of f1, z takes (b & ~a, a), which is the
    # swapped lowest set bit, plus z_0 = f1_0
    z = _swap(f1 & (~f1 + 1)) | f1 & 1 | 2
    t0 = np.where(easy, f1, z) ^ 1
    t1 = np.where(easy, 0, f1 ^ z)
    # e1 with the high bits of free in coordinates 2.., carried through t0, t1
    h0 = free >> 1 << 2 | 1
    h0 ^= _parity(h0, _swap(t0)) * t0
    h0 ^= _parity(h0, _swap(t1)) * t1
    f1 = np.where(free & 1 == 0, f1, 0)
    # level l acts on the last 2l rows and columns: shift its words there
    shift = (nn - 2 * np.arange(1, n + 1, dtype=np.uint64))[:, None, None, None]
    vectors = np.stack([t0, t1, h0, f1], axis=1)[..., None] << shift
    swapped = _swap(vectors)
    g = np.tile(np.uint64(1) << np.arange(nn, dtype=np.uint64), (count, 1))
    for level in range(1, n + 1):
        # the rows above the last 2l are e_i, i < nn - 2l, fixed by level l
        block = g[:, nn - 2 * level:]
        for h, h_swapped in zip(vectors[level - 1], swapped[level - 1]):
            block ^= _parity(block, h_swapped) * h
    # standard position i reads direct-sum position 2i (x_i) or 2i+1 (z_i)
    gather = np.concatenate([np.arange(0, nn, 2), np.arange(1, nn, 2)])
    g = g.take(gather, axis=1).astype("<u8", copy=False).view(np.uint8)
    g = np.unpackbits(g.reshape(count, nn, 8), axis=-1, count=nn, bitorder="little")
    return g.take(gather, axis=2)


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


# Level l draws k_l below 4**l as an int64, and a row of the 2n x 2n
# matrix is one 64-bit word, so sampling stops at n = 31.
MAX_SAMPLED_N = 31


def _check_sampled_n(n):
    if not 1 <= n <= MAX_SAMPLED_N:
        raise ValueError(f"the Clifford sampler needs 1 <= n <= {MAX_SAMPLED_N}, got n = {n}")


@functools.cache
def _component_bounds(n):
    """Half-open bounds of the rows k_1, free_1, k_2, ... as read-only (2n, 1)
    columns, shared by every call."""
    level = np.arange(1, n + 1, dtype=np.int64)
    lo = np.stack([np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)], axis=1)
    hi = np.stack([4 ** level, 2 ** (2 * level - 1)], axis=1)
    lo, hi = lo.reshape(-1, 1), hi.reshape(-1, 1)
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


def _draw_components(n, rng, count):
    """(k, free) of count matrices, each of shape (n, count), in one draw.

    The rows k_1, free_1, k_2, ... come out in the order of 2n separate
    per-row draws and consume the stream as those would: every bounded draw
    below 2**32 takes one 32-bit half-word, which PCG64 buffers in its state.
    The sampler pins guard this.
    """
    lo, hi = _component_bounds(n)
    draws = rng.integers(lo, hi, size=(2 * n, count))
    return draws[0::2], draws[1::2]


def sample_symplectic_batch(n, rng, count):
    """count standard-convention symplectic matrices, exactly uniform."""
    _check_sampled_n(n)
    return _build_symplectic(*_draw_components(n, rng, count))


def symplectic_from_index(index, n):
    """Standard-convention symplectic matrix with canonical index ``index``."""
    _check_sampled_n(n)
    if not 0 <= index < symplectic_order(n):
        raise ValueError("symplectic index out of range")
    return _build_symplectic(*_components_from_index(index, n))[0]


# ---------------------------------------------------------------------------
# Conjugating Pauli rows.  Both functions take an optional leading batch axis:
# element b of a stack acts on row block b.

def _conjugate(s, alpha, xs, zs, phases):
    """Pauli rows (xs, zs, phases) conjugated by the elements (s, alpha): the
    images' phases q_j and the reordering form M are read off the columns."""
    n = xs.shape[-1]
    s = s.astype(np.int64)
    xz = (s[..., :n, :] * s[..., n:, :]).sum(axis=-2)     # x.z per column
    q = (xz + 2 * alpha.astype(np.int64)) % 4
    m = np.triu((s[..., n:, :].swapaxes(-1, -2) @ s[..., :n, :]) % 2, 1)  # z_j . x_j', j<j'
    v = np.concatenate([xs, zs], axis=-1).astype(np.int64)
    new_bits = (v @ s.swapaxes(-1, -2)) % 2
    quad = ((v @ m) * v).sum(axis=-1) % 2
    new_phases = (np.asarray(phases) + (v @ q[..., None])[..., 0] + 2 * quad) % 4
    return (new_bits[..., :n].astype(np.uint8),
            new_bits[..., n:].astype(np.uint8), new_phases)


def conjugate_rows_batch(elements, xs, zs, phases):
    """Rows (B, r, n) and phases (B, r), block b conjugated by elements[b]:
    the same integers as ``elements[b].conjugate_rows`` on that block."""
    return _conjugate(np.stack([e.symplectic for e in elements]),
                      np.stack([e.alpha for e in elements]), xs, zs, phases)


class CliffordElement:
    __slots__ = ("symplectic", "alpha", "n")

    def __init__(self, symplectic, alpha):
        self.symplectic = np.asarray(symplectic, dtype=np.uint8) & 1
        self.alpha = np.asarray(alpha, dtype=np.uint8) & 1
        self.n = self.symplectic.shape[0] // 2

    @classmethod
    def identity(cls, n):
        return cls(np.eye(2 * n, dtype=np.uint8), np.zeros(2 * n, dtype=np.uint8))

    def conjugate_rows(self, xs, zs, phases):
        """Conjugate a batch of Pauli rows: returns new (xs, zs, phases); the
        one-element case of ``conjugate_rows_batch``."""
        return _conjugate(self.symplectic, self.alpha, xs, zs, phases)

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
        dense.check_entries(4 ** n, f"a dense Clifford on {n} qubits")
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


def sample_uniform_streams(n, rngs):
    """One exactly uniform element of C_n per entry of ``rngs``.

    Entries draw in list order, each its components then its sign bits, and
    all of them are built in one batch.  Entry i draws what ``sample_uniform(n,
    rngs[i])`` would, so a stream listed m times gives m consecutive elements.
    """
    _check_sampled_n(n)
    k = np.empty((n, len(rngs)), dtype=np.int64)
    free = np.empty((n, len(rngs)), dtype=np.int64)
    alphas = np.empty((len(rngs), 2 * n), dtype=np.uint8)
    for i, rng in enumerate(rngs):
        k[:, i:i + 1], free[:, i:i + 1] = _draw_components(n, rng, 1)
        alphas[i] = rng.integers(2, size=2 * n, dtype=np.uint8)
    return [CliffordElement(s, a) for s, a in zip(_build_symplectic(k, free), alphas)]


def sample_uniform(n, rng):
    """Exactly uniform element of C_n (modulo global phase)."""
    return sample_uniform_streams(n, [rng])[0]


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
