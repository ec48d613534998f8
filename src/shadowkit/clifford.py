"""The n-qubit Clifford group in binary-symplectic form.

An element is a pair ``(S, alpha)``: a 2n x 2n matrix over F2 that is
symplectic for the standard form ``J = [[0, I], [I, 0]]``, plus 2n sign
bits.  Column j of S gives the X/Z bits of the conjugated generator
(X_0..X_{n-1}, Z_0..Z_{n-1} in that order) and ``alpha[j]`` its sign, the
image being the Hermitian Pauli ``(-1)**alpha[j] * i**(x.z) * X^x Z^z``.
This pair determines the unitary up to global phase, and every choice of
``(S, alpha)`` is a valid element.  An element holds the 2n columns of S as
(x|z) row words, the layout of ``stabilizer``; only the hex descriptor
(``to_hex``/``from_hex``) spells S out as a 0/1 matrix.

Uniform sampling builds the symplectic factor by the transvection
construction of Koenig and Smolin, which is an explicit bijection from
mixed-radix index tuples onto the symplectic group; sampling the tuple
uniformly is therefore exactly uniform.

Pauli row words are conjugated by one XOR and popcount kernel with an
optional leading batch axis: ``conjugate_rows_batch`` stacks a list of
elements, and ``CliffordElement.conjugate_rows`` is its one-element case.
An element is never made dense: states and T-gate circuits are evolved by
conjugating Pauli rows, and the tests build Clifford unitaries as an oracle.
"""

import functools

import numpy as np


def is_symplectic(images):
    """Whether 2n column words are the columns of a symplectic S (S^T J S = J):
    the symplectic product of columns i and j is 1 exactly when |i - j| = n."""
    images = np.asarray(images, dtype=np.int64)
    n = len(images) // 2
    swapped = images >> n | (images & (1 << n) - 1) << n
    product = np.bitwise_count(images[:, None] & swapped) & 1
    j = np.arange(2 * n)
    return bool((product == (abs(j[:, None] - j) == n)).all())


# ---------------------------------------------------------------------------
# Koenig-Smolin construction.  A symplectic matrix is indexed by per-level
# components (k_l, free_l), l = 1..n, with 1 <= k_l < 4**l and
# 0 <= free_l < 2**(2l - 1).  Level l embeds the level-(l-1) matrix as the
# lower-right block of a 2l x 2l identity and multiplies it by four
# transvections read off (k_l, free_l).  Internally coordinates come in
# (x_i, z_i) pairs (the "direct sum" convention), and a vector or matrix row
# is one uint64 word whose bit i is direct-sum coordinate i (2n <= 62 at
# MAX_SAMPLED_N), so a transvection is AND, popcount and XOR.  The result is
# transposed into the standard block convention's column words at the end.

_X_BITS = np.uint64(0x5555555555555555)


def _swap(v):
    """Exchange each x_i and z_i bit of direct-sum words."""
    return (v & _X_BITS) << 1 | (v >> 1) & _X_BITS


def _parity(v, mask):
    """Parity of v & mask; with mask = _swap(h) it is the symplectic <v, h>."""
    return np.bitwise_count(v & mask) & 1


def _build_symplectic(k, free):
    """Column words (count, 2n) of standard-convention symplectic matrices
    from index components.

    ``k`` and ``free`` have shape (n, count), row l - 1 holding level l.
    This is the only construction: every sampler feeds it.
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
    shift = (nn - 2 * np.arange(1, n + 1, dtype=np.uint64))[:, None, None]
    vectors = np.stack([t0, t1, h0, f1], axis=1) << shift
    swapped = _swap(vectors)
    # row i of the matrix is g[i], so level l's last 2l rows are one slice,
    # transformed in place through the buffer t
    g = np.repeat(np.uint64(1) << np.arange(nn, dtype=np.uint64)[:, None], count, axis=1)
    buffer = np.empty_like(g)
    for level in range(1, n + 1):
        # the rows above the last 2l are e_i, i < nn - 2l, fixed by level l
        block, t = g[nn - 2 * level:], buffer[nn - 2 * level:]
        for h, h_swapped in zip(vectors[level - 1], swapped[level - 1]):
            np.bitwise_and(block, h_swapped, out=t)
            np.bitwise_count(t, out=t)
            np.bitwise_and(t, 1, out=t)
            np.multiply(t, h, out=t)
            block ^= t
    del buffer, t
    # standard position i is direct-sum position 2i (x_i) or 2i+1 (z_i); column
    # word j holds S[c, j] = bit gather[j] of row gather[c] at bit 2n-1-c
    gather = np.concatenate([np.arange(0, nn, 2), np.arange(1, nn, 2)])
    width = 1 << (nn - 1).bit_length()
    square = np.zeros((count, width), dtype=np.uint64)
    square[:, :nn] = g[gather[::-1]].T
    return _transpose(square).take(gather, axis=1).view(np.int64)


def _transpose(square):
    """Bit transposes of (count, w) uint64 words in place, w a power of two at
    most 64, bit i of word r to bit r of word i: each of the log2 w steps swaps
    the off-diagonal blocks of every 2j x 2j block (Hacker's Delight, section
    7-3)."""
    count, width = square.shape
    j = width // 2
    while j:
        low = np.uint64(sum((1 << j) - 1 << i for i in range(0, width, 2 * j)))
        top, bottom = np.moveaxis(square.reshape(count, width // (2 * j), 2, j), 2, 0)
        swap = (top >> np.uint64(j) ^ bottom) & low
        bottom ^= swap
        top ^= swap << np.uint64(j)
        j //= 2
    return square


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
    """The column words (count, 2n) of count standard-convention symplectic
    matrices, exactly uniform."""
    _check_sampled_n(n)
    return _build_symplectic(*_draw_components(n, rng, count))


# ---------------------------------------------------------------------------
# Conjugating Pauli rows.  Both functions take an optional leading batch axis:
# element b of a stack acts on row block b.

def _conjugate(images, alpha, rows, phases):
    """Pauli row words and their phases conjugated by the elements (images,
    alpha).  Row v maps to the XOR of the images j it selects (v_j = 1), in
    order: each adds its phase q_j = x.z + 2 alpha_j, plus 2 when its x-half
    meets the z-halves of the images selected before it an odd number of
    times, which reorders the product of X^x Z^z factors."""
    nn = images.shape[-1]
    n = nn // 2
    q = np.bitwise_count(images >> n & images) + 2 * alpha.astype(np.int64)
    rows, phases = np.asarray(rows, dtype=np.int64), np.array(phases, dtype=np.int64)
    out = np.zeros(rows.shape, dtype=np.int64)
    for j in range(nn):
        image = images[..., j, None]
        selected = rows >> nn - 1 - j & 1
        # out's z-half is the XOR of the z-halves selected so far
        phases += selected * (q[..., j, None] + 2 * np.bitwise_count(out & image >> n))
        out ^= selected * image
    return out, phases & 3


def conjugate_rows_batch(elements, rows, phases):
    """Row words (B, r) and phases (B, r), block b conjugated by elements[b]:
    the same integers as ``elements[b].conjugate_rows`` on that block."""
    return _conjugate(np.array([e.images for e in elements]),
                      np.array([e.alpha for e in elements]), rows, phases)


def hex_strings(images, alpha):
    """``to_hex`` of each of B elements, given as (B, 2n) column words and sign
    bits: one unpack, transpose and pack for the whole stack."""
    count, nn = images.shape
    # bit 2n-1-c of column word j, S[c, j], is column 64-2n+c of its bits
    cols = np.unpackbits(images.astype(">i8").view(np.uint8).reshape(count, nn, 8), axis=2)
    rows = cols[:, :, 64 - nn:].transpose(0, 2, 1).reshape(count, nn * nn)
    packed = np.packbits(np.concatenate([rows, alpha], axis=1), axis=1)
    text, width = packed.tobytes().hex(), 2 * packed.shape[1]
    return [text[i:i + width] for i in range(0, len(text), width)]


class CliffordElement:
    """(S, alpha) as the 2n column words of S, ``images``, and 2n sign bits."""
    __slots__ = ("images", "alpha", "n")

    def __init__(self, images, alpha):
        self.images = np.asarray(images, dtype=np.int64)
        self.alpha = np.asarray(alpha, dtype=np.uint8) & 1
        self.n = len(self.images) // 2

    @classmethod
    def identity(cls, n):
        return cls(1 << np.arange(2 * n - 1, -1, -1), np.zeros(2 * n, dtype=np.uint8))

    def conjugate_rows(self, rows, phases):
        """Conjugate Pauli row words and their phases: returns new (rows,
        phases); the one-element case of ``conjugate_rows_batch``."""
        return _conjugate(self.images, self.alpha, rows, phases)

    def key(self):
        return (self.n, self.images.tobytes(), self.alpha.tobytes())

    def __eq__(self, other):
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def to_hex(self):
        """S row by row, then alpha, as packed bits in hex: the count-1 case of
        ``hex_strings``."""
        return hex_strings(self.images[None], self.alpha[None])[0]

    @classmethod
    def from_hex(cls, n, hexstr):
        """Inverse of ``to_hex``; rejects any payload ``to_hex`` cannot produce."""
        need = 4 * n * n + 2 * n
        raw = np.unpackbits(np.frombuffer(bytes.fromhex(hexstr), dtype=np.uint8))
        if len(raw) != 8 * ((need + 7) // 8) or raw[need:].any():
            raise ValueError(f"hex payload {hexstr!r} is not an n={n} Clifford element")
        s = raw[:4 * n * n].reshape(2 * n, 2 * n)
        # column word j holds S[c, j] at bit 2n-1-c
        images = s.T.astype(np.int64) @ (1 << np.arange(2 * n - 1, -1, -1))
        if not is_symplectic(images):
            raise ValueError(f"hex payload {hexstr!r} is not symplectic")
        return cls(images, raw[4 * n * n:need])

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
