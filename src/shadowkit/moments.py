"""Exact moment machinery for random-circuit averages up to fourth order.

The t-th moment operator of a circuit ensemble projects onto the commutant
of the t-fold tensor-power action.  For Haar unitaries the commutant is
spanned by copy permutations R_pi; for the Clifford group it is spanned by
operators R_T labeled by a family of t-dimensional subspaces T of F2^(2t)
(the "stochastic Lagrangian" subspaces: they contain the all-ones vector
and satisfy weight(x) = weight(y) mod 4 on every element (x, y)).  For
t <= 3 the two families coincide; at t = 4 there are 30 subspaces, the 24
permutations plus six extra elements of the form R_pi * Pi4 with pi in S3.

Everything here is exact: subspaces are enumerated over F2, Gram matrices
are integer, Weingarten matrices are rational, and the closed-form
variance/moment predictions are evaluated in Fraction arithmetic with a
float conversion only at the API boundary.  No operator R_T is ever built:
Gram entries are intersection dimensions of the subspaces.  The sparse
4^(tn)-entry operators that check these identities live with the tests.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bits as f2
from . import exact
from .stabilizer import StabilizerTableau


# ---------------------------------------------------------------------------
# Permutations of the t copies.

class Permutation:
    """Permutation of {0..t-1}; composition is left-to-right (apply self,
    then other), which makes pi -> R_pi a homomorphism."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {images}")

    @classmethod
    def identity(cls, t):
        return cls(range(t))

    def __len__(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def compose(self, other):
        return Permutation(other.images[self.images[i]] for i in range(len(self)))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def cycle_count(self):
        seen, cycles = set(), 0
        for start in range(len(self.images)):
            if start in seen:
                continue
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = self.images[i]
        return cycles

    def cycle_label(self):
        seen, parts = set(), []
        for start in range(len(self.images)):
            if start in seen:
                continue
            cyc, i = [], start
            while i not in seen:
                seen.add(i)
                cyc.append(i)
                i = self.images[i]
            if len(cyc) > 1:
                parts.append("(" + "".join(str(c + 1) for c in cyc) + ")")
        return "".join(parts) or "e"

    def key(self):
        return self.images

    def __eq__(self, other):
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


def symmetric_group(t):
    return [Permutation(p) for p in itertools.permutations(range(t))]


# ---------------------------------------------------------------------------
# Subspaces of F2^(2t) labeling the Clifford commutant.

class SubspaceT:
    """t-dimensional subspace of F2^(2t), stored as a canonical RREF basis."""

    __slots__ = ("basis", "t")

    def __init__(self, basis):
        basis = np.asarray(basis, dtype=np.uint8) & 1
        rref, _ = f2.rref_f2(basis)
        self.basis = rref
        self.t = basis.shape[1] // 2
        if self.basis.shape[0] != self.t:
            raise ValueError("basis does not have rank t")

    def elements(self):
        """All 2^t vectors of the subspace, shape (2^t, 2t)."""
        t = self.t
        combos = ((np.arange(2 ** t)[:, None] >> np.arange(t)) & 1).astype(np.uint8)
        return (combos @ self.basis) % 2

    def key(self):
        return self.basis.tobytes()

    def __eq__(self, other):
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"SubspaceT(t={self.t}, {[''.join(map(str, r)) for r in self.basis]})"


def perm_subspace(pi):
    """T_pi = {(pi x, x)}: row k is (e_{pi^-1(k)} | e_k)."""
    t = len(pi)
    inv = pi.inverse()
    basis = np.zeros((t, 2 * t), dtype=np.uint8)
    for k in range(t):
        basis[k, inv(k)] = 1
        basis[k, t + k] = 1
    return SubspaceT(basis)


# Defining subspace of Pi4: pairs (y, y) with even-weight y, plus the
# antidiagonal family (y + 1111, y).  tests/test_moments.py checks R_{T4}
# against 2^-n sum_P P^{(x)4} (test_pi4_dual_construction_and_algebra).
T4_BASIS = np.array([
    [1, 1, 0, 0, 1, 1, 0, 0],
    [0, 1, 1, 0, 0, 1, 1, 0],
    [0, 0, 1, 1, 0, 0, 1, 1],
    [1, 1, 1, 1, 0, 0, 0, 0],
], dtype=np.uint8)


def permute_subspace(pi, sub):
    """{(pi x, y) : (x, y) in sub}."""
    t = sub.t
    basis = sub.basis.copy()
    basis[:, :t] = basis[:, [pi(j) for j in range(t)]]
    return SubspaceT(basis)


def sigma_tt_enumerate(t):
    """All defining subspaces of the Clifford commutant at order t <= 4.

    Enumerates RREF bases of t-dimensional subspaces of F2^(2t) and keeps
    those containing the all-ones vector with weight(x) = weight(y) mod 4
    throughout; the count is prod_{l=0}^{t-2} (2^l + 1).
    """
    if t > 4:
        raise ValueError("commutant machinery implemented for t <= 4")
    cols = 2 * t
    combos = ((np.arange(2 ** t)[:, None] >> np.arange(t)) & 1).astype(np.int64)
    found = []
    for pivots in itertools.combinations(range(cols), t):
        free_pos = [(r, c) for r in range(t) for c in range(cols)
                    if c not in pivots and c > pivots[r]]
        nfree = len(free_pos)
        pats = ((np.arange(2 ** nfree)[:, None] >> np.arange(max(nfree, 1))) & 1)
        mats = np.zeros((2 ** nfree, t, cols), dtype=np.int64)
        for r, p in enumerate(pivots):
            mats[:, r, p] = 1
        for i, (r, c) in enumerate(free_pos):
            mats[:, r, c] = pats[:, i]
        span = np.einsum("kt,ptc->pkc", combos, mats) % 2
        stochastic = (span == 1).all(axis=2).any(axis=1)
        wx = span[:, :, :t].sum(axis=2)
        wy = span[:, :, t:].sum(axis=2)
        lagrangian = ((wx - wy) % 4 == 0).all(axis=1)
        for m in mats[stochastic & lagrangian]:
            found.append(SubspaceT(m.astype(np.uint8)))
    expected = 1
    for ell in range(t - 1):
        expected *= 2 ** ell + 1
    if len(found) != expected:
        raise AssertionError(f"found {len(found)} subspaces, expected {expected}")
    return sorted(found, key=lambda s: s.key())


def intersection_dim(a, b):
    stacked = np.concatenate([a.basis, b.basis], axis=0)
    return a.t + b.t - f2.rank_f2(stacked)


# ---------------------------------------------------------------------------
# Commutant basis labels at t = 4: S4 plus the six "hatted" S3 cosets.

@dataclass(frozen=True)
class CommutantLabel:
    perm: Permutation
    hat: bool = False

    def __post_init__(self):
        if self.hat and self.perm(3) != 3:
            raise ValueError("hatted labels take permutations fixing the last copy")

    def subspace(self):
        if self.hat:
            return permute_subspace(self.perm, SubspaceT(T4_BASIS))
        return perm_subspace(self.perm)

    def name(self):
        return self.perm.cycle_label() + (".T4" if self.hat else "")


def commutant_labels(t):
    """Labels for the Clifford commutant basis; 30 entries at t = 4."""
    if t > 4:
        raise ValueError("Clifford commutant machinery implemented for t <= 4")
    labels = [CommutantLabel(pi) for pi in symmetric_group(t)]
    if t == 4:
        labels += [CommutantLabel(Permutation(list(pi.images) + [3]), hat=True)
                   for pi in symmetric_group(3)]
    return labels


def hat_labels():
    return [lab for lab in commutant_labels(4) if lab.hat]


# ---------------------------------------------------------------------------
# Gram and Weingarten matrices, exact.

def group_labels(t, group):
    """The commutant basis of the t-th moment: permutations for the unitary
    group, ``commutant_labels(t)`` (t <= 4) for the Clifford group."""
    if group == "unitary":
        return [CommutantLabel(pi) for pi in symmetric_group(t)]
    if group == "clifford":
        return commutant_labels(t)
    raise ValueError(f"unknown group {group!r}")


def commutant_size(t, group):
    """len(group_labels(t, group)), without enumerating S_t for the unitary
    group; raises for an unknown group and for Clifford t > 4."""
    if group == "unitary":
        return math.factorial(t)
    return len(group_labels(t, group))


@functools.cache
def _intersection_dims(t, group):
    """dim(T cap T') for every pair of commutant labels; it does not depend on n."""
    subs = [lab.subspace() for lab in group_labels(t, group)]
    dims = [[t] * len(subs) for _ in subs]
    for i, j in itertools.combinations(range(len(subs)), 2):
        dims[i][j] = dims[j][i] = intersection_dim(subs[i], subs[j])
    return tuple(map(tuple, dims))


def gram_matrix(t, n, group):
    """G[T,T'] = 2^(dim(T cap T') n), an exact integer matrix."""
    return np.array([[2 ** (d * n) for d in row] for row in _intersection_dims(t, group)],
                    dtype=object)


def weingarten_matrix(t, n, group):
    """Exact rational inverse of the Gram matrix; the Gram matrix is singular
    (ZeroDivisionError) for 2^n < t (unitary) or n < t-1 (Clifford), which
    ``validate_config`` refuses."""
    return exact.inverse(gram_matrix(t, n, group))


def state_average_coefficient(t, n, group):
    """Uniform coefficient of the averaged t-th power of a pure state.

    Haar: prod_{l=0}^{t-1} 1/(2^n+l) on each permutation; Clifford (on a
    stabilizer state): 1/(2^n prod_{l=0}^{t-2} (2^n + 2^l)) on each R_T.
    """
    d = 2 ** n
    if group == "unitary":
        coeff = Fraction(1)
        for ell in range(t):
            coeff /= d + ell
        return coeff
    if group == "clifford":
        denom = d
        for ell in range(t - 1):
            denom *= d + 2 ** ell
        return Fraction(1, denom)
    raise ValueError(f"unknown group {group!r}")


def state_average(t, n, group, state=None):
    """Map label -> exact coefficient for the averaged |psi><psi|^{(x)t}."""
    if group == "clifford" and state is not None:
        if not isinstance(state, StabilizerTableau):
            raise TypeError("Clifford state averages hold for stabilizer states only")
    coeff = state_average_coefficient(t, n, group)
    return {lab: coeff for lab in group_labels(t, group)}


# ---------------------------------------------------------------------------
# Closed-form variance predictions.

def variance_formula(tr_o2, tr_rho_o2, tr_rho_o, n):
    """Single-shot variance for any 3-design ensemble, from the three traces."""
    d = 2 ** n
    return Fraction(d + 1, d + 2) * (Fraction(tr_o2) + 2 * Fraction(tr_rho_o2)) \
        - Fraction(tr_rho_o) ** 2


def variance_3design(o_dense, rho, atol=1e-10):
    """Float variance for a traceless dense observable and a state."""
    o = np.asarray(o_dense)
    if abs(np.trace(o)) > atol:
        raise ValueError("variance formula requires a traceless observable")
    n = o.shape[0].bit_length() - 1
    d = 2 ** n
    tr_o2 = float(np.real(np.trace(o @ o)))
    tr_rho_o2 = float(np.real(np.trace(rho @ o @ o)))
    tr_rho_o = float(np.real(np.trace(rho @ o)))
    return (d + 1) / (d + 2) * (tr_o2 + 2 * tr_rho_o2) - tr_rho_o ** 2


def stabilizer_pair_traces(n):
    """Exact traces for rho = |S><S| and O = |S><S| - I/2^n."""
    a = Fraction(2 ** n - 1, 2 ** n)
    return {"tr_o2": a, "tr_rho_o2": a * a, "tr_rho_o": a}


def stabilizer_pair_variance(n):
    tr = stabilizer_pair_traces(n)
    return variance_formula(tr["tr_o2"], tr["tr_rho_o2"], tr["tr_rho_o"], n)


def thrifty_variance_predict(v1, vstar, reuse):
    """V_R = V1/R + (R-1)/R * V*."""
    if reuse < 1:
        raise ValueError("reuse count must be >= 1")
    return v1 / reuse + (reuse - 1) / reuse * vstar


def vstar_interpolation_bound(tr_o2, k, n):
    """Upper bound on V* for the k-T-gate interpolating ensemble; 32 and the
    two 2s are the slack on its suppressed O(2^-n) terms."""
    eps = 2.0 ** -n
    return (32.0 * eps * tr_o2
            + 30.0 * tr_o2 * (1.0 + 2.0 * eps) * (0.75 + 2.0 * eps) ** k)


def reuse_excess_bound(tr_o2, reuse, k, n):
    """Bound on V_R - V1/R for the interpolating ensemble; 0 at R = 1."""
    if reuse < 1:
        raise ValueError("reuse count must be >= 1")
    return (reuse - 1) / reuse * vstar_interpolation_bound(tr_o2, k, n)


# ---------------------------------------------------------------------------
# Scalar overlap identities.

def tgate_sandwich(label_a, label_b, n):
    """<<R_T| T^{(x)4} |R_T'>> for hatted labels: (|T cap T'| - 4)|T cap T'|^(n-1)."""
    if not (label_a.hat and label_b.hat):
        raise ValueError("the T-gate sandwich formula applies to hatted labels")
    overlap = 2 ** intersection_dim(label_a.subspace(), label_b.subspace())
    return Fraction((overlap - 4) * overlap ** (n - 1))


_FREE_LABELS = {
    (Permutation((0, 1, 2, 3)).images, False),
    (Permutation((1, 0, 2, 3)).images, False),
    (Permutation((0, 1, 3, 2)).images, False),
    (Permutation((1, 0, 3, 2)).images, False),
    (Permutation((0, 1, 2, 3)).images, True),
    (Permutation((1, 0, 2, 3)).images, True),
}


def basis_overlap_rT(x, xhat, label):
    """<<x x xhat xhat | R_T>>: 1 for the six x-free labels, else delta_{x,xhat}.

    The x-free labels are e, (12), (34), (12)(34), T4 and (12)T4.
    """
    if (label.perm.images, label.hat) in _FREE_LABELS:
        return Fraction(1)
    return Fraction(1 if x == xhat else 0)
