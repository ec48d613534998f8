"""Clifford and Pauli oracles that only the tests use.

The library holds every F2 row as one (x|z) int64 word (``stabilizer``).
Here the same objects are spelled out as 0/1 uint8 matrices: the
conversions between words and bits, the uint8 conjugation kernel that the
word kernel replaced (the reference it is checked against), exhaustive
enumeration of C_n for n <= 2 through the Koenig-Smolin index bijection,
composition, and random Paulis and stabilizer states.
"""

import numpy as np

from shadowkit import clifford as cl
from shadowkit.stabilizer import PauliString, StabilizerTableau


def bits(words, width):
    """The 0/1 uint8 entries (..., width) of words, entry c at bit width-1-c."""
    raw = np.asarray(words, dtype=">i8")[..., None].view(np.uint8)
    return np.unpackbits(raw, axis=-1)[..., 64 - width:]


def words(entries):
    """Inverse of ``bits``: int64 words of 0/1 entries (..., width <= 63)."""
    entries = np.asarray(entries, dtype=np.int64)
    return entries @ (1 << np.arange(entries.shape[-1] - 1, -1, -1))


def matrices(images):
    """The 2n x 2n uint8 matrices S (..., 2n, 2n) of column words (..., 2n)."""
    return bits(images, np.shape(images)[-1]).swapaxes(-1, -2).copy()


def conjugate_reference(s, alpha, xs, zs, phases):
    """The uint8 conjugation kernel: Pauli rows (xs, zs, phases) conjugated by
    the elements (s, alpha), with an optional leading batch axis; the images'
    phases q_j and the reordering form M are read off the columns."""
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


def symplectic_order(n):
    order = 1
    for j in range(1, n + 1):
        order *= (4 ** j - 1) * 2 ** (2 * j - 1)
    return order


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


def symplectic_from_index(index, n):
    """Column words of the symplectic matrix with Koenig-Smolin index ``index``."""
    cl._check_sampled_n(n)
    if not 0 <= index < symplectic_order(n):
        raise ValueError("symplectic index out of range")
    return cl._build_symplectic(*_components_from_index(index, n))[0]


def enumerate_group(n):
    """All of C_n (mod phase), each element exactly once.  n <= 2 only."""
    if n not in (1, 2):
        raise ValueError("exhaustive enumeration supported for n in {1, 2}")
    for index in range(symplectic_order(n)):
        s = symplectic_from_index(index, n)
        for abits in range(4 ** n):
            yield cl.CliffordElement(s, abits >> np.arange(2 * n) & 1)


def compose(a, b):
    """The element 'apply b, then a': a conjugates each signed image of b."""
    n = b.n
    q = np.bitwise_count(b.images >> n & b.images) + 2 * b.alpha.astype(np.int64)
    images, phases = a.conjugate_rows(b.images, q)
    sign = phases - np.bitwise_count(images >> n & images)
    if (sign % 2).any():
        raise AssertionError("composition produced a non-Hermitian image")
    return cl.CliffordElement(images, sign // 2 % 2)


def random_pauli(n, rng, signed=True):
    """A uniformly random Hermitian n-qubit Pauli, signed or with sign +1."""
    x = rng.integers(2, size=n, dtype=np.uint8)
    z = rng.integers(2, size=n, dtype=np.uint8)
    base = int(np.dot(x, z)) % 2          # keep it Hermitian
    phase = base + (2 * int(rng.integers(2)) if signed else 0)
    return PauliString(n, words(np.concatenate([x, z])), phase)


def random_stabilizer_tableau(n, rng):
    """Uniformly random pure stabilizer state, as a tableau."""
    return StabilizerTableau.zero_state(n).apply_clifford(cl.sample_uniform(n, rng))
