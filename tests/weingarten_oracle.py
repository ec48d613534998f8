"""The unitary Weingarten function from characters of S_t (Collins-Sniady).

Wg(sigma, d) = (1/t!^2) sum_{lambda |- t, len(lambda) <= d}
               chi^lambda(e)^2 chi^lambda(sigma) / s_lambda(1^d),

with chi^lambda from the Murnaghan-Nakayama rule and
s_lambda(1^d) = prod over the cells of (d + content) / hook.  The Weingarten
matrix of the t! permutations is W[sigma, tau] = Wg(sigma^-1 tau, d), an
oracle for ``moments.weingarten_matrix(t, n, "unitary")`` at d = 2^n that
shares none of its code.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from shadowkit.moments import symmetric_group


def partitions(t, largest=None):
    """Partitions of t as non-increasing tuples."""
    largest = t if largest is None else largest
    if t == 0:
        return [()]
    return [(first,) + rest for first in range(min(t, largest), 0, -1)
            for rest in partitions(t - first, first)]


@functools.cache
def character(shape, cycle_type):
    """chi^shape on the class of cycle_type, by removing a border strip of the
    first cycle's length in every way (beads on the beta-set abacus)."""
    if not cycle_type:
        return 1
    r, rest = cycle_type[0], cycle_type[1:]
    beta = [part + len(shape) - 1 - i for i, part in enumerate(shape)]
    total = 0
    for i, b in enumerate(beta):
        if b - r < 0 or b - r in beta:
            continue
        sign = (-1) ** sum(b - r < other < b for other in beta)
        moved = sorted(beta[:i] + [b - r] + beta[i + 1:], reverse=True)
        smaller = tuple(x - (len(moved) - 1 - k) for k, x in enumerate(moved))
        total += sign * character(tuple(p for p in smaller if p), rest)
    return total


def cycle_type(perm):
    seen, parts = set(), []
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            length += 1
            i = perm(i)
        if length:
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


def schur_at_ones(shape, d):
    """s_shape(1^d) = prod over the cells (i, j) of (d + j - i) / hook."""
    value = Fraction(1)
    columns = [sum(part > j for part in shape) for j in range(shape[0])]
    for i, part in enumerate(shape):
        for j in range(part):
            hook = (part - j) + (columns[j] - i) - 1
            value *= Fraction(d + j - i, hook)
    return value


def weingarten_function(ctype, d):
    t = sum(ctype)
    identity = (1,) * t
    total = Fraction(0)
    for shape in partitions(t):
        if len(shape) <= d:
            total += Fraction(character(shape, identity) ** 2 * character(shape, ctype)) \
                / schur_at_ones(shape, d)
    return total / math.factorial(t) ** 2


def weingarten_unitary(t, n):
    """W[sigma, tau] = Wg(sigma^-1 tau, 2^n) over ``symmetric_group(t)``."""
    perms = symmetric_group(t)
    values = {}
    out = np.empty((len(perms), len(perms)), dtype=object)
    for i, a in enumerate(perms):
        inv = a.inverse()
        for j, b in enumerate(perms):
            ctype = cycle_type(inv.compose(b))
            if ctype not in values:
                values[ctype] = weingarten_function(ctype, 2 ** n)
            out[i, j] = values[ctype]
    return out
