"""Closed forms of ``moments`` that only the tests use.

The library computes Gram and Weingarten values on label orbitals; these
helpers give the scalar identities the tests check them and the dense
operators against: the uniform coefficient of an averaged pure state, the
T-gate sandwich of two hatted labels, the basis overlaps of the fourth
moment labels, and a permutation's cycle count and identity.
"""

from fractions import Fraction

from shadowkit.moments import Permutation, intersection_dim


def identity(t):
    """The identity permutation of t copies."""
    return Permutation(range(t))


def cycle_count(pi):
    """The number of cycles of a permutation, fixed points included."""
    seen, cycles = set(), 0
    for start in range(len(pi.images)):
        if start in seen:
            continue
        cycles += 1
        i = start
        while i not in seen:
            seen.add(i)
            i = pi.images[i]
    return cycles


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


def tgate_sandwich(label_a, label_b, n):
    """<<R_T| T^{(x)4} |R_T'>> for hatted labels: (|T cap T'| - 4)|T cap T'|^(n-1)."""
    if not (label_a.hat and label_b.hat):
        raise ValueError("the T-gate sandwich formula applies to hatted labels")
    overlap = 2 ** intersection_dim(label_a.subspace(), label_b.subspace())
    return Fraction((overlap - 4) * overlap ** (n - 1))


_FREE_LABELS = {
    ((0, 1, 2, 3), False),
    ((1, 0, 2, 3), False),
    ((0, 1, 3, 2), False),
    ((1, 0, 3, 2), False),
    ((0, 1, 2, 3), True),
    ((1, 0, 2, 3), True),
}


def basis_overlap_rT(x, xhat, label):
    """<<x x xhat xhat | R_T>>: 1 for the six x-free labels, else delta_{x,xhat}.

    The x-free labels are e, (12), (34), (12)(34), T4 and (12)T4.
    """
    if (label.perm.images, label.hat) in _FREE_LABELS:
        return Fraction(1)
    return Fraction(1 if x == xhat else 0)
