"""Acceptance suite: one test per shipped exit criterion.

Each test prints a [PASS]/[FAIL] line (run with ``pytest -v -s``) and
asserts the criterion at its stated tolerance.  Runtime-heavy criteria use
the batched samplers but every statistical quantity is the same estimator
the protocol layer produces; the collapse used on the Clifford fast path is
itself verified exactly against the protocol in criterion 1 and in
tests/test_protocol.py.
"""

import json
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from shadowkit import clifford as cl
from shadowkit import experiments as ex
from shadowkit import moments as mo
from shadowkit import protocol as pr
from shadowkit import tails as tl
from shadowkit.ensembles import EnsembleSpec, SampledCircuit

from clifford_oracle import enumerate_group
from commutant_oracle import r_T_matrix, rt_inner
from dense_oracle import T_GATE, basis_state, kron_all, tensor_power
from moments_oracle import basis_overlap_rT, tgate_sandwich


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_exact_n2_oracle():
    """Exhaustive C_2 x outcomes: E(X) = 3/4 and E(X^2) = 25/16 exactly."""
    n = 2
    scramble = cl.sample_uniform(n, np.random.default_rng(101))
    state, obs = pr.stabilizer_pair(n, scramble=scramble)
    e1 = Fraction(0)
    e2 = Fraction(0)
    count = 0
    for c in enumerate_group(n):
        # the float values are dyadic, so Fraction reads them back exactly
        values = pr.shot_values(obs, [SampledCircuit("clifford", n, element=c)],
                                [range(2 ** n)])[0].tolist()
        rotated = state.apply_clifford(c)
        for xi in range(2 ** n):
            p = rotated.z_probability(xi)
            if p:
                value = Fraction(values[xi])
                e1 += p * value
                e2 += p * value * value
        count += 1
    e1 /= count
    e2 /= count
    ok = (e1 == Fraction(3, 4) and e2 == Fraction(25, 16)
          and e2 - e1 * e1 == mo.stabilizer_pair_variance(n)
          and e1 == tl.clifford_moment(n, 1) and e2 == tl.clifford_moment(n, 2))
    assert _report("criterion-1 exact n=2 oracle",
                   ok, f"E(X)={e1}, E(X^2)={e2}, V={e2 - e1 * e1}")


def test_criterion_2_clifford_reuse_plateau():
    """Clifford n=6: V_R flat and within 3 sigma of the reuse formula."""
    n, measurements = 6, 200_000
    seed = 202
    spec = EnsembleSpec("clifford", n)
    v1 = float(mo.stabilizer_pair_variance(n))
    vstar_vals = ex.pair_vstar_samples(spec, seed + 1, 20_000)
    vstar, vstar_se = tl.variance_of_sample_variance(vstar_vals)
    all_ok = True
    v64 = None
    for reuse in (1, 2, 8, 64):
        xr = ex.pair_xr_samples(spec, seed, measurements // reuse, reuse)
        vr, vr_se = tl.variance_of_sample_variance(xr)
        pred = mo.thrifty_variance_predict(v1, vstar, reuse)
        sigma = float(np.hypot(vr_se, (reuse - 1) / reuse * vstar_se))
        ok = abs(vr - pred) <= 3 * sigma
        all_ok &= _report(f"criterion-2 R={reuse}", ok,
                          f"V_R={vr:.4f} vs prediction {pred:.4f} (3sig={3 * sigma:.4f})")
        if reuse == 64:
            v64 = vr
    all_ok &= _report("criterion-2 V_64 > 1.5", v64 > 1.5, f"V_64={v64:.4f}")
    assert all_ok


def test_criterion_3_haar_vstar_suppression():
    """Haar n=6, 10^4 circuits with exact conditional means: V* <= 0.1."""
    spec = EnsembleSpec("haar", 6)
    vals = ex.pair_vstar_samples(spec, 303, 10_000)
    vstar, se = tl.variance_of_sample_variance(vals)
    assert _report("criterion-3 Haar V* suppression", vstar <= 0.1,
                   f"V*={vstar:.5f} (se={se:.5f}), threshold 0.1")


def test_criterion_4_interpolation_decay():
    """Interpolating ensemble at n=6: V*(k) under the bound and halved by k=8."""
    n, circuits, seed = 6, 10_000, 404
    tr_o2 = float(Fraction(2 ** n - 1, 2 ** n))
    results = {}
    all_ok = True
    for k in range(9):
        spec = EnsembleSpec("homeopathic", n, k=k)
        vals = ex.pair_vstar_samples(spec, seed + k, circuits)
        vstar, se = tl.variance_of_sample_variance(vals)
        bound = mo.vstar_interpolation_bound(tr_o2, k, n)
        results[k] = (vstar, se)
        all_ok &= _report(f"criterion-4 k={k}", vstar <= bound,
                          f"V*={vstar:.4f} <= bound {bound:.4f}")
    v0, se0 = results[0]
    v8, se8 = results[8]
    sigma = float(np.hypot(se8, se0 / 2))
    ok = v8 < v0 / 2 - 3 * sigma
    all_ok &= _report("criterion-4 halving", ok,
                      f"V*(8)={v8:.4f} < V*(0)/2={v0 / 2:.4f} - 3sig({3 * sigma:.4f})")
    assert all_ok


def test_criterion_5_weingarten_algebra():
    """G W = I and W G W = W exactly; 2^{4n} W - I small for t=4, n >= 4."""
    all_ok = True
    for t in (1, 2, 3, 4):
        for n in range(3, 7):
            for group in ("unitary", "clifford"):
                g = mo.gram_matrix(t, n, group)
                w = mo.weingarten_matrix(t, n, group)
                ident = np.eye(g.shape[0], dtype=int)
                ok = np.array_equal(g @ w, ident) and np.array_equal(w @ g @ w, w)
                all_ok &= ok
                if not ok:
                    _report(f"criterion-5 t={t} n={n} {group}", False, "inverse failed")
    _report("criterion-5 exact inverse identities", all_ok, "t<=4, n=3..6, both groups")
    for n in (4, 5, 6):
        w = mo.weingarten_matrix(4, n, "clifford")
        delta = 2 ** (4 * n) * w - np.eye(30, dtype=int)
        worst = max(abs(v) for row in delta for v in row)
        ok = worst <= Fraction(16, 2 ** n)
        all_ok &= _report(f"criterion-5 perturbation n={n}", ok,
                          f"max|2^(4n)W - I| = {float(worst):.3e} <= {16 / 2 ** n:.3e}")
    assert all_ok


def test_criterion_6_overlap_identities():
    all_ok = True
    # T-gate sandwich values against dense computation, all 36 hatted pairs
    hats = [lab for lab in mo.commutant_labels(4) if lab.hat]
    tg4 = tensor_power(T_GATE, 4)
    a3_ok = True
    for a in hats:
        ra = r_T_matrix(a.subspace(), 1, dense=True)
        for b in hats:
            rb = r_T_matrix(b.subspace(), 1, dense=True)
            val = np.real(np.trace(ra.conj().T @ tg4 @ rb @ tg4.conj().T))
            a3_ok &= abs(val - float(tgate_sandwich(a, b, 1))) < 1e-9
            if a == b:
                a3_ok &= tgate_sandwich(a, b, 1) == 12
    all_ok &= _report("criterion-6 tgate sandwich", a3_ok, "36 pairs, diagonal 12")
    # basis-overlap case table against the dense overlap, all 30 labels
    rng = np.random.default_rng(606)
    a2_ok = True
    for lab in mo.commutant_labels(4):
        r1 = r_T_matrix(lab.subspace(), 1, dense=True)
        for x, xh in ((0, 1), (1, 0), (0, 0), (1, 1)):
            big = kron_all([basis_state(x, 1)] * 2 + [basis_state(xh, 1)] * 2)
            want = np.real(np.trace(big.conj().T @ r1))
            a2_ok &= float(basis_overlap_rT(x, xh, lab)) == pytest.approx(want)
    all_ok &= _report("criterion-6 basis overlap table", a2_ok, "all 30 labels, x = and != xhat")
    # |<<R_T|(O x rho)^(x)2>>| <= tr(O^2) + 1e-9 on 1000 random pairs
    labels = mo.commutant_labels(4)
    a1_ok = True
    cases = 0
    for n, trials in ((1, 400), (2, 400), (3, 200)):
        d = 2 ** n
        mats = {lab: r_T_matrix(lab.subspace(), n) for lab in labels}
        for _ in range(trials):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            o = (m + m.conj().T) / 2
            o -= np.trace(o) / d * np.eye(d)
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            tr_o2 = float(np.real(np.trace(o @ o)))
            for lab in labels:
                val = rt_inner(lab.subspace(), [o, rho, o, rho], matrix=mats[lab])
                a1_ok &= abs(val) <= tr_o2 + 1e-9
            cases += 1
    all_ok &= _report("criterion-6 sandwich bound", a1_ok, f"{cases} random (O, rho) pairs")
    assert all_ok


def test_criterion_7_moment_tables():
    all_ok = True
    # convergence of the finite-n moments to the limit
    conv_ok = all(
        abs(tl.clifford_moment(30, m) - tl.limiting_moment(m))
        < Fraction(1, 2 ** 20) * abs(tl.limiting_moment(m))
        for m in range(1, 9))
    all_ok &= _report("criterion-7 convergence", conv_ok, "m<=8, n=30, gap < 2^-20")
    # limiting values by two independent code paths
    two_path_ok = True
    for m, want in ((1, 1), (2, 3), (3, 17), (4, 179)):
        by_sum = tl.limiting_moment(m)
        by_limit = tl.clifford_moment(40, m)
        nearest = Fraction(round(by_limit))
        two_path_ok &= by_sum == want == nearest
        two_path_ok &= abs(by_limit - by_sum) < Fraction(1, 2 ** 20) * want
    all_ok &= _report("criterion-7 limits 1,3,17,179", two_path_ok,
                      "sum formula == rounded finite-n limit")
    growth_ok = all(tl.limiting_moment(m) >= 2 ** (m * (m - 1) // 2)
                    for m in range(6, 13))
    all_ok &= _report("criterion-7 growth bound", growth_ok, "m=6..12")
    nth_ok = all(tl.clifford_moment(n, n) ** 4 >= 2 ** (n * n)
                  for n in range(7, 13))
    all_ok &= _report("criterion-7 n-th moment bound", nth_ok,
                      "E(X_n^n) >= 2^(n^2/4), n=7..12, exact")
    assert all_ok


def test_criterion_8_tail_contrast():
    """n=10, 10^6 samples: 4th moment matches; median-of-means comparison.

    The second assertion implements the shipped criterion verbatim; see the
    decisions ledger for the measured statistics behind its outcome.
    """
    spec = EnsembleSpec("clifford", 10)
    rng = np.random.default_rng(808)
    summary = tl.tail_experiment(spec, 1_000_000, rng, budget=10_000, batches=40)
    emp = summary["moments"]["4"]
    want = float(tl.clifford_moment(10, 4))
    se = summary["moment_se"]["4"]
    moment_ok = abs(emp - want) <= 3 * se
    ok = _report("criterion-8 fourth moment", moment_ok,
                 f"E(X^4)={emp:.2f} vs exact {want:.2f} (3sig={3 * se:.2f})")
    wins = summary["median_of_means_wins"]
    mom_ok = wins >= 0.90
    ok &= _report("criterion-8 median-of-means preferred", mom_ok,
                  f"median-of-means wins {wins:.0%} of {summary['replications']} "
                  f"replications (required >= 90%); "
                  f"mse_mean={summary['mse_mean']:.3e}, "
                  f"mse_mom={summary['mse_median_of_means']:.3e}")
    assert ok


def test_criterion_9_determinism():
    """Every shipped config reruns byte-identically."""
    base = resources.files("shadowkit") / "configs"
    all_ok = True
    for path in sorted(p for p in base.iterdir() if p.name.endswith(".json")):
        cfg = json.loads(path.read_text())
        first = ex.emit(ex.run_experiment(dict(cfg)), "csv")
        second = ex.emit(ex.run_experiment(dict(cfg)), "csv")
        all_ok &= _report(f"criterion-9 {path.name}", first == second,
                          "byte-identical rerun")
    assert all_ok
