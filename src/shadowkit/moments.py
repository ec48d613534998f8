"""Exact moment machinery for random-circuit averages up to fourth order.

The t-th moment operator of a circuit ensemble projects onto the commutant
of the t-fold tensor-power action.  For Haar unitaries the commutant is
spanned by copy permutations R_pi; for the Clifford group it is spanned by
operators R_T labeled by a family of t-dimensional subspaces T of F2^(2t)
(the "stochastic Lagrangian" subspaces: they contain the all-ones vector
and satisfy weight(x) = weight(y) mod 4 on every element (x, y)).  For
t <= 3 the two families coincide; at t = 4 there are 30 subspaces, the 24
permutations plus six extra elements of the form R_pi * Pi4 with pi in S3.

Everything here is exact: subspaces are F2 row-echelon bases, Gram
matrices are integer, Weingarten matrices are rational, and the closed-form
variance/moment predictions are evaluated in Fraction arithmetic with a
float conversion only at the API boundary.  No operator R_T is ever built:
Gram entries are intersection dimensions of the subspaces.  The sparse
4^(tn)-entry operators that check these identities, and a brute-force
enumeration of the subspaces, live with the tests.

Permuting the x half and the y half of F2^(2t) maps the labels to labels
and keeps every intersection dimension, so the Weingarten matrix is
constant on the orbitals of label pairs: it is solved as one small exact
system per (t, n, group), with one unknown per orbital (14 for Clifford and
5 for unitary at t = 4), never as the inverse of the whole Gram matrix.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bits as f2
from . import exact


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


def intersection_dim(a, b):
    stacked = np.concatenate([a.basis, b.basis], axis=0)
    return a.t + b.t - len(f2.rref_f2(stacked)[1])


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


@functools.cache
def _orbital_table(t, group):
    """Orbitals of label pairs under permuting the x half and the y half of
    F2^(2t), which leaves every dim(T cap T') unchanged.

    Returns (orb, reps): orb[i][j] is the orbital of the pair (i, j), and
    reps[e] is the first pair of orbital e in row-major order.  The pairs are
    flood-filled under the 2(t-1) adjacent transpositions of each half, so
    S_t x S_t is never enumerated; it does not depend on n.
    """
    subs = [lab.subspace() for lab in group_labels(t, group)]
    index = {sub.key(): i for i, sub in enumerate(subs)}
    gens = []
    for k in [*range(t - 1), *range(t, 2 * t - 1)]:
        cols = list(range(2 * t))
        cols[k], cols[k + 1] = k + 1, k
        gens.append([index[SubspaceT(sub.basis[:, cols]).key()] for sub in subs])
    orb = [[None] * len(subs) for _ in subs]
    reps = []
    for i, j in itertools.product(range(len(subs)), repeat=2):
        if orb[i][j] is not None:
            continue
        orb[i][j] = len(reps)
        stack = [(i, j)]
        while stack:
            a, b = stack.pop()
            for g in gens:
                c, d = g[a], g[b]
                if orb[c][d] is None:
                    orb[c][d] = len(reps)
                    stack.append((c, d))
        reps.append((i, j))
    return tuple(map(tuple, orb)), tuple(reps)


def weingarten_matrix(t, n, group):
    """Exact rational inverse of the Gram matrix, solved on its orbitals.

    G and so W = G^-1 are constant on the orbitals of ``_orbital_table``, so
    G W = I reduces to one equation per orbital representative (i, j):
    sum_k A[e, k] w_k = [i == j], with A[e, k] the sum of G[i, l] over the l
    with orb[l][j] = k.  The orbital indicators span an algebra that holds G,
    so A is singular exactly when G is: for 2^n < t (unitary) or n < t-1
    (Clifford), which ``validate_config`` refuses, ``exact.inverse`` raises
    ZeroDivisionError.
    """
    dims = _intersection_dims(t, group)
    orb, reps = _orbital_table(t, group)
    system = np.zeros((len(reps), len(reps)), dtype=object)
    for e, (i, j) in enumerate(reps):
        for dim, row in zip(dims[i], orb):
            system[e, row[j]] += 2 ** (dim * n)
    inv = exact.inverse(system)
    diagonal = [e for e, (i, j) in enumerate(reps) if i == j]
    w = [sum(inv[k, e] for e in diagonal) for k in range(len(reps))]
    return np.array([[w[k] for k in row] for row in orb], dtype=object)


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


# ---------------------------------------------------------------------------
# Closed-form variance predictions.

def variance_formula(tr_o2, tr_rho_o2, tr_rho_o, n):
    """Single-shot variance for any 3-design ensemble, from the three traces."""
    d = 2 ** n
    return Fraction(d + 1, d + 2) * (Fraction(tr_o2) + 2 * Fraction(tr_rho_o2)) \
        - Fraction(tr_rho_o) ** 2


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
