"""Sparse realizations of the Clifford commutant operators, for small n.

The library computes with the commutant labels as F2 subspaces only; these
helpers build the operators R_T = r_T^{(x) n} and Pi4 themselves, so the
subspace identities can be checked against plain (sparse) linear algebra.
"""

import numpy as np
import scipy.sparse as sp

from shadowkit import dense as dn
from shadowkit.moments import perm_subspace


def _bit_index(bits):
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def r_single_copy(sub):
    """r_T = sum_{(x,y) in T} |x><y| on t qubits (one copy of each)."""
    t = sub.t
    dim = 2 ** t
    rows, cols = [], []
    for v in sub.elements():
        rows.append(_bit_index(v[:t]))
        cols.append(_bit_index(v[t:]))
    data = np.ones(len(rows))
    return sp.coo_matrix((data, (rows, cols)), shape=(dim, dim)).tocsr()


def _kron_power(m, n):
    out = m
    for _ in range(n - 1):
        out = sp.kron(out, m, format="csr")
    return out


def _interleave_table(t, n):
    """Index map from qubit-major (qubit, copy) to copy-major (copy, qubit).

    All multi-copy operators in this module use copy-major ordering: basis
    index bits are (copy 0: qubits 0..n-1)(copy 1: ...), MSB first, so that
    they act on plain Kronecker powers of n-qubit operators.
    """
    width = t * n
    table = np.zeros(2 ** width, dtype=np.int64)
    for q in range(n):
        for c in range(t):
            src = width - 1 - (q * t + c)        # bit position, LSB = 0
            dst = width - 1 - (c * n + q)
            sel = (np.arange(2 ** width) >> src) & 1
            table |= sel << dst
    return table


def r_T_matrix(sub, n, dense=False):
    """R_T = r_T^{(x) n} on t copies of n qubits, in copy-major ordering."""
    dn.check_entries(4 ** (sub.t * n), f"R_T on t={sub.t} copies of n={n} qubits")
    out = _kron_power(r_single_copy(sub), n).tocoo()
    if n > 1:
        table = _interleave_table(sub.t, n)
        out = sp.coo_matrix((out.data, (table[out.row], table[out.col])),
                            shape=out.shape)
    out = out.tocsr()
    return out.toarray() if dense else out


def r_pi_matrix(pi, n, dense=False):
    """Copy-permutation operator R_pi = r_pi^{(x) n}."""
    return r_T_matrix(perm_subspace(pi), n, dense=dense)


def pi4_matrix(n, dense=False):
    """2^-n sum_P P^{(x)4} over all 4^n unsigned Paulis; equals R_{T4}."""
    dn.check_entries(4 ** (4 * n), f"Pi4 on n={n} qubits")
    dim = 2 ** n
    idx = np.arange(dim)
    total = None
    for xb in range(dim):
        for zb in range(dim):
            # (X^x Z^z)^{(x)4}: the i-phases fourth-power away, entries are real
            signs = 1 - 2 * (np.bitwise_count(idx & zb) & 1).astype(np.int64)
            single = sp.coo_matrix((signs, (idx ^ xb, idx)), shape=(dim, dim)).tocsr()
            term = _kron_power(single, 4)
            total = term if total is None else total + term
    out = total.multiply(1.0 / dim).tocsr()
    return out.toarray() if dense else out


def rt_inner(sub, ops, matrix=None):
    """<<R_T | A_1 x ... x A_t>> without forming the big Kronecker product.

    Contracts the sparse entries of R_T against the per-copy factors; cost
    is O(|T|^n) = O(2^{tn}) regardless of the ambient 4^{tn} matrix size.
    Pass a prebuilt ``matrix`` (from r_T_matrix) to amortize construction.
    """
    t = sub.t
    if len(ops) != t:
        raise ValueError(f"expected {t} per-copy operators")
    n = ops[0].shape[0].bit_length() - 1
    coo = (r_T_matrix(sub, n) if matrix is None else matrix).tocoo()
    dim = 2 ** n
    total = np.asarray(coo.data, dtype=complex).copy()
    row, col = coo.row, coo.col
    for c in range(t - 1, -1, -1):
        r_blk, row = row % dim, row // dim
        c_blk, col = col % dim, col // dim
        total *= ops[c][r_blk, c_blk]
    return complex(total.sum())
