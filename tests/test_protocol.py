import hashlib
from fractions import Fraction

import numpy as np
import pytest

from shadowkit import clifford as cl
from shadowkit import dense
from shadowkit import moments as mo
from shadowkit import protocol as pr
from shadowkit import tails as tl
from shadowkit.ensembles import EnsembleSpec, SampledCircuit, sample_circuit
from shadowkit.stabilizer import PauliString, StabilizerTableau

IDENT1 = SampledCircuit("clifford", 1, element=cl.CliffordElement.identity(1))


def test_single_shot_worked_examples():
    z = pr.ObservableSpec.pauli(PauliString.from_label("Z"))
    assert pr.single_shot(z, IDENT1, "0") == 3.0
    proj = pr.ObservableSpec.from_dense(dense.basis_state(0, 1))
    assert not proj.traceless
    assert pr.single_shot(proj, IDENT1, "0") == 2.0
    assert pr.single_shot(proj, IDENT1, "1") == -1.0
    zero = pr.ObservableSpec.from_dense(np.zeros((2, 2)))
    rng = np.random.default_rng(0)
    c = SampledCircuit("clifford", 1, element=cl.sample_uniform(1, rng))
    assert pr.single_shot(zero, c, "0") == 0.0
    with pytest.raises(ValueError):
        pr.single_shot(z, IDENT1, "00")


def test_fast_path_equals_dense_path_exactly():
    rng = np.random.default_rng(1)
    cases = 0
    for n in (1, 2, 3, 4):
        for _ in range(250):
            tab = cl.random_stabilizer_tableau(n, rng)
            o = pr.ObservableSpec.stabilizer_projector(tab)
            c = SampledCircuit("clifford", n, element=cl.sample_uniform(n, rng))
            x = format(rng.integers(2 ** n), f"0{n}b")
            assert pr.single_shot(o, c, x) == pytest.approx(
                pr.single_shot_dense(o, c, x), abs=1e-9)
            p = pr.ObservableSpec.pauli(PauliString.random(n, rng))
            assert pr.single_shot(p, c, x) == pytest.approx(
                pr.single_shot_dense(p, c, x), abs=1e-9)
            cases += 1
    assert cases == 1000


def test_observable_traces():
    tab = StabilizerTableau.zero_state(3)
    o = pr.ObservableSpec.stabilizer_projector(tab)
    assert o.trace() == 0 and o.traceless
    assert o.hs_norm_sq() == Fraction(7, 8)
    assert np.trace(o.dense()) == pytest.approx(0.0)
    p = pr.ObservableSpec.pauli(PauliString.from_label("XZ"))
    assert p.trace() == 0 and p.hs_norm_sq() == 4


def test_median_of_means_examples():
    assert pr.median_of_means([1, 5, 100], 3) == 5
    assert pr.median_of_means([0, 2, 10, 10, 4, 6], 3) == 5
    assert pr.median_of_means([3, 1, 2, 8], 1) == pytest.approx(3.5)
    # even K: lower median, an actually-achieved batch mean
    assert pr.median_of_means([0, 0, 1, 1, 10, 10, 2, 2], 4) == 1
    with pytest.raises(ValueError):
        pr.median_of_means([1, 2, 3], 2)


def test_run_config_divisibility():
    spec = EnsembleSpec("clifford", 2)
    with pytest.raises(ValueError):
        pr.RunConfig(spec, measurements=10, reuse=3, batches=1)
    for field in ("measurements", "reuse", "batches"):
        sizes = {"measurements": 12, "reuse": 2, "batches": 2, field: 0}
        with pytest.raises(ValueError, match=field):
            pr.RunConfig(spec, **sizes)
    cfg = pr.RunConfig(spec, measurements=24, reuse=4, batches=2, seed=7)
    assert cfg.circuits == 6


def test_acquire_shapes_and_determinism():
    spec = EnsembleSpec("clifford", 2)
    cfg = pr.RunConfig(spec, measurements=24, reuse=4, batches=2, seed=42)
    state = StabilizerTableau.zero_state(2)
    recs = pr.acquire(cfg, state)
    assert len(recs) == 6 and all(len(r.outcomes) == 4 for r in recs)
    recs2 = pr.acquire(cfg, state)
    assert [r.to_json() for r in recs] == [r.to_json() for r in recs2]
    different = pr.acquire(pr.RunConfig(spec, 24, 4, 2, seed=43), state)
    assert [r.to_json() for r in recs] != [r.to_json() for r in different]


def test_acquire_records_bytes_are_pinned():
    """Exact shot transcript for fixed seeds: circuits, Z-basis outcomes and
    the order of every draw never change."""
    h = hashlib.sha256()
    for n in (1, 2, 3, 10):
        state = cl.random_stabilizer_tableau(n, np.random.default_rng(n))
        cfg = pr.RunConfig(EnsembleSpec("clifford", n), measurements=64, reuse=4, batches=1,
                           seed=2212)
        for rec in pr.acquire(cfg, state):
            h.update((rec.to_json() + "\n").encode())
    assert h.hexdigest() == "0d7f4cda3742b28ab67dcab3a6200b8c52406a956c24399fad76fa8bb1c78367"


def test_acquire_identity_stub_all_zero():
    cfg = pr.RunConfig(EnsembleSpec("identity", 3), 12, 3, 1, seed=1)
    recs = pr.acquire(cfg, StabilizerTableau.zero_state(3))
    assert all(x == "000" for r in recs for x in r.outcomes)


def test_records_file_round_trip(tmp_path):
    spec = EnsembleSpec("clifford", 2)
    cfg = pr.RunConfig(spec, 12, 2, 3, seed=5)
    recs = pr.acquire(cfg, StabilizerTableau.zero_state(2))
    path = tmp_path / "records.jsonl"
    pr.write_records(recs, path)
    again = pr.read_records(path)
    assert [r.to_json() for r in recs] == [r.to_json() for r in again]
    # byte-identical rewrite
    path2 = tmp_path / "records2.jsonl"
    pr.write_records(pr.acquire(cfg, StabilizerTableau.zero_state(2)), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_estimate_output_and_unbiasedness_n1_exact():
    """Exhaustive n=1: mean single-shot value over (C, x) equals tr(O rho)."""
    rng = np.random.default_rng(2)
    state = cl.random_stabilizer_tableau(1, rng)
    otab = cl.random_stabilizer_tableau(1, rng)
    o = pr.ObservableSpec.stabilizer_projector(otab)
    total = Fraction(0)
    count = 0
    for c in cl.enumerate_group(1):
        circ = SampledCircuit("clifford", 1, element=c)
        rotated = state.apply_clifford(c)
        for xi in range(2):
            x = format(xi, "01b")
            p = rotated.z_probability(x)
            if p:
                total += p * pr.single_shot_exact(o, circ, x)
        count += 1
    from shadowkit.stabilizer import overlap_sq
    want = overlap_sq(otab, state) - Fraction(1, 2)
    assert total / count == want


def test_unbiasedness_monte_carlo_all_ensembles():
    rng = np.random.default_rng(3)
    n = 2
    state_tab, o = pr.stabilizer_pair(n, scramble=cl.sample_uniform(n, rng))
    exact_mean = 1 - 2.0 ** -n
    for kind, k, shots in (("haar", 0, 4000), ("homeopathic", 2, 4000)):
        spec = EnsembleSpec(kind, n, k=k)
        cfg = pr.RunConfig(spec, measurements=shots, reuse=1, batches=1, seed=11)
        values = pr.record_values(pr.acquire(cfg, state_tab), o)
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(values.mean() - exact_mean) < 3 * se


def test_estimate_json_contract():
    spec = EnsembleSpec("clifford", 2)
    cfg = pr.RunConfig(spec, measurements=400, reuse=2, batches=4, seed=9)
    state, o = pr.stabilizer_pair(2)
    out = pr.estimate(cfg, state, o)
    assert set(out) == {"estimate", "K", "R", "N", "seed"}
    assert out["K"] == 4 and out["R"] == 2 and out["N"] == 400 and out["seed"] == 9
    assert abs(out["estimate"] - 0.75) < 0.5


def test_many_observables_against_one_record_set(tmp_path):
    """One acquisition serves any number of observables afterwards."""
    rng = np.random.default_rng(8)
    n = 2
    cfg = pr.RunConfig(EnsembleSpec("clifford", n), measurements=6000,
                       reuse=1, batches=1, seed=21)
    state = StabilizerTableau.zero_state(n)
    path = tmp_path / "records.jsonl"
    pr.write_records(pr.acquire(cfg, state), path)
    records = pr.read_records(path)
    rho = pr.state_density(state)
    for label in ("ZI", "IZ", "XX", "ZZ", "YX"):
        o = pr.ObservableSpec.pauli(PauliString.from_label(label))
        values = pr.record_values(records, o)
        est = pr.estimate_from_records(records, o, batches=1)
        truth = float(np.real(np.trace(o.dense() @ rho)))
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(est - truth) < 4 * se + 1e-9, (label, est, truth)


def test_conditional_mean_matches_brute_force():
    rng = np.random.default_rng(4)
    n = 2
    state, o = pr.stabilizer_pair(n, scramble=cl.sample_uniform(n, rng))
    for kind in ("clifford", "haar"):
        circ = sample_circuit(EnsembleSpec(kind, n), rng)
        total = sum(
            float(state.apply_clifford(circ.element).z_probability(format(x, "02b")))
            * pr.single_shot(o, circ, format(x, "02b"))
            for x in range(4)) if kind == "clifford" else None
        if kind == "haar":
            u = circ.dense()
            rho = pr.state_density(state)
            probs = np.real(np.diag(u @ rho @ u.conj().T))
            total = sum(probs[x] * pr.single_shot(o, circ, format(x, "02b"))
                        for x in range(4))
        assert pr.conditional_mean(o, circ, state) == pytest.approx(total, abs=1e-9)


def test_estimate_vstar_identity_ensemble_is_zero():
    rng = np.random.default_rng(5)
    state, o = pr.stabilizer_pair(2)
    v = pr.estimate_vstar(EnsembleSpec("identity", 2), state, o, 50, rng)
    assert v == 0.0


def test_estimate_vstar_haar_suppressed():
    rng = np.random.default_rng(6)
    state, o = pr.stabilizer_pair(4)
    v = pr.estimate_vstar(EnsembleSpec("haar", 4), state, o, 800, rng)
    assert v < 0.5


def test_estimate_vstar_clifford_n6_plateau_value():
    """Clifford V* at n=6 sits at its exact single-shot value (2 - O(2^-n))."""
    from shadowkit.experiments import pair_vstar_samples
    vals = pair_vstar_samples(EnsembleSpec("clifford", 6), 31, 20_000)
    vstar, se = tl.variance_of_sample_variance(vals)
    exact = float(mo.stabilizer_pair_variance(6))
    assert abs(vstar - exact) < 3 * se
    assert abs(vstar - 2.0) < 0.15


def test_estimate_vstar_general_matches_fast_path():
    """The dense conditional-mean route and the rank-collapse route measure
    the same quantity (independent streams, compared at 3 sigma)."""
    from shadowkit.experiments import pair_vstar_samples
    n = 3
    rng = np.random.default_rng(17)
    state, o = pr.stabilizer_pair(n)
    slow = np.empty(3000)
    spec = EnsembleSpec("clifford", n)
    for i in range(3000):
        slow[i] = pr.conditional_mean(o, sample_circuit(spec, rng), state)
    v_slow, se_slow = tl.variance_of_sample_variance(slow)
    fast = pair_vstar_samples(spec, 18, 3000)
    v_fast, se_fast = tl.variance_of_sample_variance(fast)
    assert abs(v_slow - v_fast) < 3 * float(np.hypot(se_slow, se_fast))


def test_stabilizer_pair_collapse_matches_protocol_exactly():
    """Dual-route check used by the fast experiment paths: on the support,
    every single-shot value equals (2^n+1)(2^-d - 2^-n)."""
    n = 2
    state, o = pr.stabilizer_pair(n)
    d_total = 2 ** n
    for c in cl.enumerate_group(n):
        circ = SampledCircuit("clifford", n, element=c)
        rotated = state.apply_clifford(c)
        dim = rotated.z_support_dim()
        collapsed = Fraction(d_total + 1) * (Fraction(1, 2 ** dim) - Fraction(1, d_total))
        for xi in range(d_total):
            x = format(xi, f"0{n}b")
            if rotated.z_probability(x):
                assert pr.single_shot_exact(o, circ, x) == collapsed


def test_reuse_variance_identity_clifford_and_haar():
    """V_R matches V1/R + (R-1)/R V* within 3 sigma, n in {3, 6}."""
    seed = 7
    for kind, n, shots in (("clifford", 3, 40_000), ("haar", 3, 20_000),
                           ("clifford", 6, 40_000), ("haar", 6, 8_000)):
        spec = EnsembleSpec(kind, n)
        from shadowkit.experiments import pair_vstar_samples, pair_xr_samples
        v1 = float(mo.stabilizer_pair_variance(n))
        vstar_vals = pair_vstar_samples(spec, seed + 1, 4000)
        vstar, vstar_se = tl.variance_of_sample_variance(vstar_vals)
        for reuse in (1, 2, 4, 16):
            xr = pair_xr_samples(spec, seed, shots // reuse, reuse)
            vr, vr_se = tl.variance_of_sample_variance(xr)
            pred = mo.thrifty_variance_predict(v1, vstar, reuse)
            sigma = np.hypot(vr_se, (reuse - 1) / reuse * vstar_se)
            assert abs(vr - pred) < 3 * sigma + 1e-9, (kind, reuse, vr, pred, sigma)
            assert vr <= v1 + 3 * sigma  # V_R <= V_1 within noise


def test_estimate_plain_mean_pinned_example():
    """n=2 stabilizer pair, R=1, K=1, N=10^5: estimate within 3 sqrt(V/N)
    of 3/4, with V = 1 exactly."""
    n = 2
    state, o = pr.stabilizer_pair(n)
    cfg = pr.RunConfig(EnsembleSpec("clifford", n), measurements=100_000,
                       reuse=1, batches=1, seed=12)
    out = pr.estimate(cfg, state, o)
    assert abs(out["estimate"] - 0.75) <= 3 * np.sqrt(1.0 / 100_000)


def test_estimate_full_reuse_variance_floor():
    """R = N/K: estimates stay unbiased and their spread across seeds is the
    conditional-mean variance (here equal to V1)."""
    n = 2
    state, o = pr.stabilizer_pair(n)
    reps = 150
    estimates = np.empty(reps)
    for s in range(reps):
        cfg = pr.RunConfig(EnsembleSpec("clifford", n), measurements=256,
                           reuse=256, batches=1, seed=1000 + s)
        estimates[s] = pr.estimate(cfg, state, o)["estimate"]
    v1 = float(mo.stabilizer_pair_variance(n))
    mean_se = estimates.std(ddof=1) / np.sqrt(reps)
    assert abs(estimates.mean() - 0.75) < 3 * mean_se
    vhat, vse = tl.variance_of_sample_variance(estimates)
    assert abs(vhat - v1) < 3 * vse + 0.05
