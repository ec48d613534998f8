from fractions import Fraction

import numpy as np
import pytest

from shadowkit import clifford as cl
from shadowkit import exact
from shadowkit import moments as mo
from shadowkit.stabilizer import statevectors

from clifford_oracle import enumerate_group, random_stabilizer_tableau
from commutant_oracle import (pi4_matrix, r_pi_matrix, r_T_matrix, rt_inner,
                              sigma_tt_enumerate)
from dense_oracle import T_GATE, X, Y, Z, basis_state, clifford_unitary, kron_all, tensor_power
from moments_oracle import (basis_overlap_rT, cycle_count, identity, state_average_coefficient,
                            tgate_sandwich)
from weingarten_oracle import weingarten_unitary


def test_sigma_counts():
    assert len(sigma_tt_enumerate(1)) == 1
    assert len(sigma_tt_enumerate(2)) == 2
    assert len(sigma_tt_enumerate(3)) == 6
    assert len(sigma_tt_enumerate(4)) == 30
    with pytest.raises(ValueError):
        sigma_tt_enumerate(5)


def test_dense_copy_budget_enforced():
    with pytest.raises(ValueError, match="over the budget"):
        pi4_matrix(4)
    with pytest.raises(ValueError, match="over the budget"):
        r_pi_matrix(mo.Permutation((1, 0, 2, 3)), 4)


def test_sigma_t3_is_permutations():
    for t in (2, 3):
        perm = {mo.perm_subspace(pi).key() for pi in mo.symmetric_group(t)}
        enum = {s.key() for s in sigma_tt_enumerate(t)}
        assert perm == enum


def test_labels_cover_sigma44():
    labels = mo.commutant_labels(4)
    assert len(labels) == 30 and sum(lab.hat for lab in labels) == 6
    assert {lab.subspace().key() for lab in labels} == \
        {s.key() for s in sigma_tt_enumerate(4)}


def test_r_pi_homomorphism_and_trace():
    rng = np.random.default_rng(0)
    for t in (2, 3, 4):
        perms = mo.symmetric_group(t)
        for _ in range(8):
            a = perms[rng.integers(len(perms))]
            b = perms[rng.integers(len(perms))]
            ra = r_pi_matrix(a, 1, dense=True)
            rb = r_pi_matrix(b, 1, dense=True)
            assert np.allclose(ra @ rb, r_pi_matrix(a.compose(b), 1, dense=True))
        for pi in perms:
            for n in (1, 2):
                tr = r_pi_matrix(pi, n).diagonal().sum()
                assert tr == 2 ** (cycle_count(pi) * n)


def test_r_identity_and_swap():
    e = identity(2)
    assert np.allclose(r_pi_matrix(e, 1, dense=True), np.eye(4))
    swap = r_pi_matrix(mo.Permutation((1, 0)), 1, dense=True)
    assert np.trace(swap) == 2
    a = np.arange(4).reshape(2, 2).astype(float)
    b = np.arange(4, 8).reshape(2, 2).astype(float)
    assert np.allclose(swap @ np.kron(a, b) @ swap.T, np.kron(b, a))


def test_pi4_dual_construction_and_algebra():
    for n in (1, 2):
        p4 = pi4_matrix(n, dense=True)
        rt4 = r_T_matrix(mo.SubspaceT(mo.T4_BASIS), n, dense=True)
        assert np.allclose(p4, rt4)
        assert np.allclose(p4 @ p4, 2 ** n * p4)
        for pi in mo.symmetric_group(4):
            r = r_pi_matrix(pi, n, dense=True)
            assert np.allclose(p4 @ r, r @ p4)
    n1 = pi4_matrix(1, dense=True)
    explicit = (np.eye(16) + tensor_power(X, 4)
                + tensor_power(Y, 4) + tensor_power(Z, 4)) / 2
    assert np.allclose(n1, explicit)
    assert np.trace(n1) == pytest.approx(8.0)


def test_hat_labels_product_route():
    for n in (1, 2):
        p4 = pi4_matrix(n)
        for lab in [lab for lab in mo.commutant_labels(4) if lab.hat]:
            lhs = r_T_matrix(lab.subspace(), n, dense=True)
            rhs = (r_pi_matrix(lab.perm, n) @ p4).toarray()
            assert np.allclose(lhs, rhs)


def test_rt_gram_examples():
    # single-copy overlaps are subspace intersection sizes
    subs = sigma_tt_enumerate(4)
    for i in (0, 7, 29):
        for j in (3, 11):
            a = r_T_matrix(subs[i], 1, dense=True)
            b = r_T_matrix(subs[j], 1, dense=True)
            overlap = np.trace(a.conj().T @ b)
            assert overlap == 2 ** mo.intersection_dim(subs[i], subs[j])


def test_gram_matrix_values():
    g = mo.gram_matrix(4, 3, "clifford")
    assert g.shape == (30, 30)
    assert all(g[i, i] == 2 ** 12 for i in range(30))
    assert all(g[i, j] <= 2 ** 9 for i in range(30) for j in range(30) if i != j)
    g2 = mo.gram_matrix(2, 1, "unitary")
    assert g2[0, 1] == 2  # c((12)) = 1 cycle
    for n in (3, 4, 5):
        gn = mo.gram_matrix(4, n, "clifford")
        want = 7 * 2 ** (3 * n) + 14 * 2 ** (2 * n) + 8 * 2 ** n
        for i in range(30):
            assert sum(gn[i, j] for j in range(30) if j != i) == want


def test_gram_unitary_cycle_formula():
    for t, n in ((4, 3), (5, 2), (6, 3)):
        perms = mo.symmetric_group(t)
        g = mo.gram_matrix(t, n, "unitary")
        for i, a in enumerate(perms):
            inv = a.inverse()
            for j, b in enumerate(perms):
                assert g[i, j] == 2 ** (n * cycle_count(inv.compose(b)))


def test_gram_dim_table_built_once_per_group(monkeypatch):
    calls, original = [], mo.intersection_dim

    def counted(a, b):
        calls.append(1)
        return original(a, b)
    monkeypatch.setattr(mo, "intersection_dim", counted)
    mo._orbital_table.cache_clear()
    try:
        for n in (3, 4, 10):
            for group in ("clifford", "unitary"):
                assert mo.gram_matrix(4, n, group)[0, 0] == 2 ** (4 * n)
                mo.weingarten_matrix(4, n, group)
        assert len(calls) == 14 + 5
    finally:
        mo._orbital_table.cache_clear()


def test_weingarten_inverse_identities():
    for t in (1, 2, 3, 4):
        for n in (3, 4):
            for group in ("unitary", "clifford"):
                g = mo.gram_matrix(t, n, group)
                w = mo.weingarten_matrix(t, n, group)
                ident = np.eye(g.shape[0], dtype=int)
                assert np.array_equal(g @ w, ident)
                assert np.array_equal(w @ g @ w, w)
    assert mo.weingarten_matrix(1, 2, "clifford")[0, 0] == Fraction(1, 4)


def test_clifford_commutant_stops_at_t4():
    for call in (lambda: mo.gram_matrix(5, 5, "clifford"),
                 lambda: mo.group_labels(5, "clifford"),
                 lambda: mo.commutant_labels(5)):
        with pytest.raises(ValueError, match="t <= 4"):
            call()
    assert len(mo.group_labels(5, "unitary")) == 120
    for t in (1, 2, 3):
        assert mo.group_labels(t, "clifford") == mo.group_labels(t, "unitary")


def test_weingarten_singular_below_threshold():
    with pytest.raises((ValueError, ZeroDivisionError)):
        mo.weingarten_matrix(4, 2, "clifford")


def test_weingarten_perturbation_bound():
    for n in (4, 5, 6):
        w = mo.weingarten_matrix(4, n, "clifford")
        delta = 2 ** (4 * n) * w - np.eye(30, dtype=int)
        worst = max(abs(v) for row in delta for v in row)
        assert worst <= Fraction(16, 2 ** n)


def test_weingarten_orbital_solve_equals_full_inverse():
    for t in (1, 2, 3, 4):
        for n in range(t - 1, 11):
            for group in ("unitary", "clifford"):
                want = exact.inverse(mo.gram_matrix(t, n, group))
                got = mo.weingarten_matrix(t, n, group)
                assert np.array_equal(got, want), (t, n, group)
                assert all(type(v) is Fraction for v in got.flat)
    for t, n, group in ((4, 2, "clifford"), (4, 1, "unitary"), (3, 1, "unitary")):
        with pytest.raises(ZeroDivisionError):
            mo.weingarten_matrix(t, n, group)


def test_orbital_table_is_the_label_symmetry():
    assert [len(mo._orbital_table(*key)[1]) for key in
            ((4, "clifford"), (4, "unitary"), (5, "unitary"))] == [14, 5, 7]
    for t, group in ((2, "unitary"), (3, "clifford"), (4, "clifford"), (4, "unitary"),
                     (5, "unitary")):
        subs = [lab.subspace() for lab in mo.group_labels(t, group)]
        index = {sub.key(): i for i, sub in enumerate(subs)}
        pairs = [(i, j) for i in range(len(subs)) for j in range(len(subs))]
        full = {(i, j): mo.intersection_dim(subs[i], subs[j]) for i, j in pairs}
        orb, reps, dims = mo._orbital_table(t, group)
        assert len(dims) == len(reps)
        for k in [*range(t - 1), *range(t, 2 * t - 1)]:
            cols = list(range(2 * t))
            cols[k], cols[k + 1] = k + 1, k
            g = [index[mo.SubspaceT(sub.basis[:, cols]).key()] for sub in subs]
            assert sorted(g) == list(range(len(subs)))
            for i, j in pairs:
                assert full[g[i], g[j]] == full[i, j]
                assert orb[g[i]][g[j]] == orb[i][j]
        for e, (i, j) in enumerate(reps):
            assert orb[i][j] == e
            assert min(p for p in pairs if orb[p[0]][p[1]] == e) == (i, j)
        assert all(full[i, j] == dims[orb[i][j]] for i, j in pairs)


def test_weingarten_unitary_matches_collins_sniady():
    cases = [(t, n) for t in (1, 2, 3, 4, 5) for n in range(6) if 2 ** n >= t]
    for t, n in cases + [(5, 10)]:
        assert np.array_equal(mo.weingarten_matrix(t, n, "unitary"),
                              weingarten_unitary(t, n)), (t, n)


def test_3design_coincidence():
    for t in (1, 2, 3):
        assert np.array_equal(mo.gram_matrix(t, 3, "unitary"),
                              mo.gram_matrix(t, 3, "clifford"))
        assert np.array_equal(mo.weingarten_matrix(t, 3, "unitary"),
                              mo.weingarten_matrix(t, 3, "clifford"))
        assert state_average_coefficient(t, 3, "unitary") == \
            state_average_coefficient(t, 3, "clifford")


def test_state_average_values():
    assert state_average_coefficient(1, 2, "unitary") == Fraction(1, 4)
    assert state_average_coefficient(4, 3, "clifford") == Fraction(1, 8640)


def test_moment_operator_exhaustive_t_le_3():
    """Exhaustive Clifford average of (C rho C^dag)^{x t} at n=2 equals the
    uniform combination of the commutant basis, for t <= 3."""
    n = 2
    rng = np.random.default_rng(3)
    tab = random_stabilizer_tableau(n, rng)
    v = tab.statevector()
    rho = np.outer(v, v.conj())
    group = list(enumerate_group(n))
    for t in (1, 2, 3):
        acc = np.zeros((4 ** t, 4 ** t), dtype=complex)
        for c in group:
            u = clifford_unitary(c)
            rotated = u @ rho @ u.conj().T
            acc += tensor_power(rotated, t) if t > 1 else rotated
        acc /= len(group)
        coeff = float(state_average_coefficient(t, n, "clifford"))
        expect = np.zeros_like(acc)
        for pi in mo.symmetric_group(t):
            expect += coeff * r_pi_matrix(pi, n, dense=True)
        assert np.allclose(acc, expect, atol=1e-12)


def test_moment_operator_monte_carlo_t4():
    """<<R_T | C^{x4} |S^{x4}>> sample mean vs the exact coefficient sum,
    t=4, n=3, for one permutation and one hatted label."""
    n = 3
    rng = np.random.default_rng(4)
    tab = random_stabilizer_tableau(n, rng)
    samples = 100_000
    coeff = float(state_average_coefficient(4, n, "clifford"))
    gram = mo.gram_matrix(4, n, "clifford")
    labels = mo.commutant_labels(4)
    picks = (5, 27)              # a transposition and a hatted label
    mats = {idx: r_T_matrix(labels[idx].subspace(), n) for idx in picks}
    vals = {idx: np.empty(samples) for idx in picks}
    done = 0
    while done < samples:
        batch = cl.sample_uniform_batch(n, rng, min(4096, samples - done))
        rows = (np.broadcast_to(a, (len(batch),) + a.shape) for a in (tab.rows, tab.phases))
        w = statevectors(*cl.conjugate_rows_batch(batch, *rows))
        # 16 fourth tensor powers (1 MB, cache-sized) at a time, as rows of np.kron(w2, w2)
        for start in range(0, len(batch), 16):
            part = w[start:start + 16]
            w2 = (part[:, :, None] * part[:, None, :]).reshape(len(part), -1)
            w4 = (w2[:, :, None] * w2[:, None, :]).reshape(len(part), -1)
            # tr(R_T^dag (ww^dag)^{x4}) = (R_T w4)^dag w4 for rank-one input
            for idx in picks:
                got = np.einsum("bi,bi->b", np.conj(w4 @ mats[idx].T), w4).real
                vals[idx][done + start:done + start + len(part)] = got
        done += len(batch)
    for idx in picks:
        # exact value: coeff * sum_T' G[T, T']
        want = coeff * float(sum(gram[idx, j] for j in range(30)))
        se = vals[idx].std(ddof=1) / np.sqrt(samples)
        assert abs(vals[idx].mean() - want) < 3 * se + 1e-12, \
            (idx, vals[idx].mean(), want, se)


def variance_dense(o, rho):
    """``variance_formula`` of a dense observable and state, from the three
    traces computed with numpy."""
    n = o.shape[0].bit_length() - 1
    traces = (np.trace(o @ o), np.trace(rho @ o @ o), np.trace(rho @ o))
    return float(mo.variance_formula(*(float(np.real(tr)) for tr in traces), n))


def test_variance_formula_examples():
    assert mo.stabilizer_pair_variance(2) == 1
    for n in (1, 2, 3):
        assert mo.variance_formula(2 ** n, 1, 1, n) == 2 ** n
    z1 = np.kron(Z, np.eye(4))
    rho = basis_state(0, 3)
    assert variance_dense(z1, rho) == pytest.approx(8.0)
    assert variance_dense(np.zeros((4, 4)), np.eye(4) / 4) == 0.0


def test_variance_bound_3tro2():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        d = 2 ** n
        for _ in range(50):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            o = (m + m.conj().T) / 2
            o -= np.trace(o) / d * np.eye(d)
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            tr_o2 = float(np.real(np.trace(o @ o)))
            assert variance_dense(o, rho) <= 3 * tr_o2 + 1e-9


def test_thrifty_variance_predict():
    assert mo.thrifty_variance_predict(1.4, 0.3, 1) == 1.4
    assert mo.thrifty_variance_predict(2.0, 2.0, 17) == 2.0
    assert mo.thrifty_variance_predict(3.0, 0.0, 3) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mo.thrifty_variance_predict(1.0, 0.5, 0)


def test_tgate_sandwich_formula_and_dense():
    hats = [lab for lab in mo.commutant_labels(4) if lab.hat]
    tg4 = tensor_power(T_GATE, 4)
    for a in hats:
        assert tgate_sandwich(a, a, 1) == 12
        assert tgate_sandwich(a, a, 2) == Fraction(3, 4) * 2 ** 8
        for b in hats:
            want = np.trace(
                r_T_matrix(a.subspace(), 1, dense=True).conj().T
                @ tg4 @ r_T_matrix(b.subspace(), 1, dense=True) @ tg4.conj().T)
            assert tgate_sandwich(a, b, 1) == pytest.approx(np.real(want))
            if a != b:
                assert tgate_sandwich(a, b, 2) <= Fraction(1, 2) * 2 ** 6
    with pytest.raises(ValueError):
        tgate_sandwich(mo.commutant_labels(4)[0], hats[0], 2)


def test_basis_overlap_case_table():
    labels = mo.commutant_labels(4)
    free = {"e", "(12)", "(34)", "(12)(34)", "e.T4", "(12).T4"}
    for n in (1, 2):
        for lab in labels:
            r = r_T_matrix(lab.subspace(), n, dense=True)
            for x, xh in ((0, 0), (0, 1), (1, 0)):
                px, pxh = basis_state(x, n), basis_state(xh, n)
                big = kron_all([px, px, pxh, pxh])
                want = np.real(np.trace(big.conj().T @ r))
                got = float(basis_overlap_rT(x, xh, lab))
                assert got == pytest.approx(want), (lab.name(), x, xh)
                if lab.name() in free:
                    assert got == 1.0
                elif x != xh:
                    assert got == 0.0


def test_vstar_interpolation_bound_limits():
    # k -> infinity leaves only the first term
    big_k = mo.vstar_interpolation_bound(1.0, 10_000, 6)
    assert big_k == pytest.approx(32 * 2 ** -6 * 1.0)
    # leading behavior ~ 30 tr(O^2) (3/4)^k at large n
    lead = mo.vstar_interpolation_bound(1.0, 5, 40)
    assert lead == pytest.approx(30 * 0.75 ** 5, rel=1e-6)


def test_sandwich_bound_small_n():
    rng = np.random.default_rng(6)
    labels = mo.commutant_labels(4)
    mats = {}
    for n in (1, 2):
        d = 2 ** n
        mats = {lab: r_T_matrix(lab.subspace(), n) for lab in labels}
        for _ in range(60):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            o = (m + m.conj().T) / 2
            o -= np.trace(o) / d * np.eye(d)
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            tr_o2 = float(np.real(np.trace(o @ o)))
            for lab in labels:
                val = rt_inner(lab.subspace(), [o, rho, o, rho], matrix=mats[lab])
                assert abs(val) <= tr_o2 + 1e-9
