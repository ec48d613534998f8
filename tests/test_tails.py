import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from shadowkit import bits as f2
from shadowkit import clifford as cl
from shadowkit import moments as mo
from shadowkit import protocol as pr
from shadowkit import tails as tl
from shadowkit.ensembles import EnsembleSpec, SampledCircuit
from shadowkit.stabilizer import StabilizerTableau

from clifford_oracle import matrices


def test_moment_formula_small_cases():
    assert tl.clifford_moment(2, 1) == Fraction(3, 4)
    assert tl.clifford_moment(2, 2) == Fraction(25, 16)
    for n in range(1, 9):
        assert tl.clifford_moment(n, 0) == 1
        assert tl.clifford_moment(n, 1) == 1 - Fraction(1, 2 ** n)


def test_second_moment_equals_variance_plus_mean_sq():
    for n in range(1, 9):
        mean = 1 - Fraction(1, 2 ** n)
        assert tl.clifford_moment(n, 2) == mo.stabilizer_pair_variance(n) + mean ** 2


def test_limiting_values_and_convergence():
    assert [int(tl.limiting_moment(m)) for m in range(1, 5)] == [1, 3, 17, 179]
    for m in range(1, 9):
        lim = tl.limiting_moment(m)
        for n in (20, 30):
            gap = abs(tl.clifford_moment(n, m) - lim)
            assert gap < Fraction(1, 2 ** (n - 11)) * abs(lim)


def test_growth_bounds():
    for m in range(6, 13):
        assert tl.limiting_moment(m) >= 2 ** (m * (m - 1) // 2)
    for n in range(7, 13):
        assert tl.clifford_moment(n, n) ** 4 >= 2 ** (n * n)


def test_moment_tables():
    assert tl.clifford_moment(3, 0) == 1
    assert tl.clifford_moment(3, 1) == Fraction(7, 8)
    assert tl.limiting_moment(0) == 1
    assert tl.limiting_moment(4) == 179


def test_mgf_bound_examples():
    assert tl.mgf_bound_haar(0.0, 0.3, 1.0) == 1.0
    assert tl.mgf_bound_haar(0.5, 0.0, 1.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        tl.mgf_bound_haar(1.0, 0.0, 1.0)


def test_mgf_bound_dominates_empirical_haar():
    rng = np.random.default_rng(0)
    n = 4
    xs = tl.sample_pair_xvalues(EnsembleSpec("haar", n), rng, 100_000)
    t = 0.3
    o_hs = math.sqrt(1 - 2.0 ** -n)
    emp = np.exp(t * xs)
    bound = tl.mgf_bound_haar(t, float(np.mean(xs)), o_hs)
    se = emp.std(ddof=1) / math.sqrt(len(xs))
    assert emp.mean() <= bound + 3 * se


def test_bernstein_examples():
    assert tl.bernstein_tail(12.0, 7, 1.0) == pytest.approx(2 * math.exp(-21))
    assert tl.bernstein_tail(12.0 + 1e-12, 7, 1.0) == pytest.approx(2 * math.exp(-21))
    assert tl.bernstein_tail(1e-9, 5, 1.0) == pytest.approx(2.0)
    assert tl.bernstein_tail(1.0, 100, 1.0) == pytest.approx(2 * math.exp(-100 / 48))
    with pytest.raises(ValueError):
        tl.bernstein_tail(0.0, 5, 1.0)


def test_empirical_exceedance_below_bernstein_haar():
    rng = np.random.default_rng(1)
    n = 4
    xs = tl.sample_pair_xvalues(EnsembleSpec("haar", n), rng, 50_000)
    o_hs = math.sqrt(1 - 2.0 ** -n)
    mean = 1 - 2.0 ** -n
    eps = 12.5 * o_hs
    emp = float(np.mean(np.abs(xs - mean) >= eps))
    assert emp <= tl.bernstein_tail(eps, 1, o_hs)


def test_fast_sampler_matches_exact_moments():
    rng = np.random.default_rng(2)
    for n in (2, 4):
        xs = tl.sample_pair_xvalues(EnsembleSpec("clifford", n), rng, 60_000)
        for m in (1, 2):
            emp = float(np.mean(xs ** m))
            want = float(tl.clifford_moment(n, m))
            se = np.std(xs ** m, ddof=1) / math.sqrt(len(xs))
            assert abs(emp - want) < 3 * se + 1e-12, (n, m)


def support_dim_law(n):
    """Exact P(d = k), k = 0..n, for d the support dimension of C|0^n>:
    [n,k]_2 2^(n-k) 2^(k(k+3)/2) / (2^n prod_{j<=n} (2^j + 1))."""
    norm = 2 ** n
    for j in range(1, n + 1):
        norm *= 2 ** j + 1
    law = []
    for k in range(n + 1):
        gauss = 1                       # Gaussian binomial [n, k]_2
        for i in range(k):
            gauss = gauss * (2 ** (n - i) - 1) // (2 ** (i + 1) - 1)
        law.append(Fraction(gauss * 2 ** (n - k) * 2 ** (k * (k + 3) // 2), norm))
    return law


def test_support_dims_match_exact_law():
    """Uniformity oracle beyond exhaustive enumeration: chi-square of the
    sampled support dimension against its exact law, for the batched
    sampler at n = 10 and 31 and for single draws (``sample_uniform``) at
    n = 3."""
    rng3 = np.random.default_rng(4)
    single = np.array([len(f2.rref_f2(matrices(cl.sample_uniform(3, rng3).images)[:3, 3:])[1])
                       for _ in range(4000)])
    inputs = [(n, tl.sample_pair_support_dims(n, np.random.default_rng(n), count))
              for n, count in ((10, 20_000), (31, 4_000))] + [(3, single)]
    for n, dims in inputs:
        law = support_dim_law(n)
        assert sum(law) == 1
        for m in range(1, 5):
            moment = sum(p * ((2 ** n + 1) * (Fraction(1, 2 ** k) - Fraction(1, 2 ** n))) ** m
                         for k, p in enumerate(law))
            assert moment == tl.clifford_moment(n, m)
        observed = np.bincount(dims, minlength=n + 1)
        expected = len(dims) * np.array([float(p) for p in law])
        # pool the rare small-d bins until the pooled expectation reaches 5
        cut = int(np.argmax(np.cumsum(expected) >= 5)) + 1
        observed = np.concatenate([[observed[:cut].sum()], observed[cut:]])
        expected = np.concatenate([[expected[:cut].sum()], expected[cut:]])
        _, p = stats.chisquare(observed, expected)
        assert p > 0.001


def test_pair_conditional_means_match_exact_variance():
    """V* for the Clifford pair equals V1 exactly in expectation."""
    rng = np.random.default_rng(3)
    n = 3
    vals = tl.pair_conditional_means(EnsembleSpec("clifford", n), rng, 30_000)
    vstar, se = tl.variance_of_sample_variance(vals)
    assert abs(vstar - float(mo.stabilizer_pair_variance(n))) < 3 * se


_BORN_SPECS = [EnsembleSpec("haar", 3)] + [EnsembleSpec("homeopathic", 3, k=k) for k in range(4)]


def _born_sampler_digest(indices):
    """Conditional means and R = 3 values of the chosen specs, seeded by index."""
    h = hashlib.sha256()
    for i in indices:
        spec = _BORN_SPECS[i]
        h.update(tl.pair_conditional_means(spec, np.random.default_rng(100 + i), 40).tobytes())
        h.update(tl.sample_pair_xvalues(spec, np.random.default_rng(200 + i), 40,
                                        reuse=3).tobytes())
    return h.hexdigest()


def test_pair_born_vector_samplers_haar_and_k0_bytes_are_pinned():
    """Haar and k = 0 bytes, which the T-gate branches never reach."""
    assert _born_sampler_digest([0, 1]) == \
        "520ab72e564e2a53f1a2e4da3e0bf3bb67752d7b2720ec2a804afd6127533bfb"


def test_pair_born_vector_samplers_t_gate_bytes_are_pinned():
    """k = 1..3 bytes of the Pauli-branch path."""
    assert _born_sampler_digest([2, 3, 4]) == \
        "7aa9638cd604a4327ed0eecbdaeeb28aaa6ddfbe9e49e70753f705208e953089"


def test_pair_born_vectors_hold_one_circuit_at_a_time():
    """Born vectors are made and reduced one circuit at a time: neither 100
    Haar unitaries at n = 7 (256 KiB each) nor a (200, 2^12) array of T-gate
    Born vectors (6.5 MB) is ever held."""
    for spec, count in ((EnsembleSpec("haar", 7), 100),
                        (EnsembleSpec("homeopathic", 12, k=1), 200)):
        for sampler in (tl.pair_conditional_means, tl.sample_pair_xvalues):
            tracemalloc.start()
            sampler(spec, np.random.default_rng(0), count)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 4 * 2 ** 20, (spec, sampler.__name__, peak)


def test_pair_born_vectors_batches_are_one_circuit_at_a_time_bytes():
    """Around the batch cap (1, cap - 1, cap and cap + 1 circuits) the T-gate
    Born vectors are ``protocol.act`` on each circuit, to the byte, in order,
    and the rng ends where drawing the segments leaves it."""
    for n, k in ((6, 2), (13, 1)):
        spec, cap = EnsembleSpec("homeopathic", n, k=k), pr.BORN_BATCH_ENTRIES >> n
        zero = StabilizerTableau.zero_state(n)
        for count in (1, cap - 1, cap, cap + 1):
            rng, twin = np.random.default_rng(count), np.random.default_rng(count)
            got = [a.tobytes() for _, a in pr.act(tl._pair_circuits(spec, rng, count), zero)]
            segments = cl.sample_uniform_batch(n, twin, count * (k + 1))
            want = [next(pr.act([SampledCircuit("homeopathic", n, segments=segments[i:i + k + 1])],
                                zero))[1].tobytes() for i in range(0, len(segments), k + 1)]
            assert got == want, (n, k, count)
            assert rng.bit_generator.state == twin.bit_generator.state


def test_variance_of_sample_variance_formula():
    rng = np.random.default_rng(4)
    xs = rng.normal(size=5000)
    s2, se = tl.variance_of_sample_variance(xs)
    assert s2 == pytest.approx(np.var(xs, ddof=1))
    # for a normal sample, Var(s^2) ~ 2 sigma^4 / m
    assert se == pytest.approx(math.sqrt(2 / 5000), rel=0.2)


def test_tail_experiment_identity_is_degenerate():
    rng = np.random.default_rng(5)
    out = tl.tail_experiment(EnsembleSpec("identity", 3), 4000, rng,
                             budget=1000, batches=10)
    assert out["moments"]["2"] == pytest.approx(out["moments"]["1"] ** 2)
    assert out["mse_mean"] == pytest.approx(out["mse_median_of_means"])
    x = (2 ** 3 + 1) * (1 - 2.0 ** -3)
    assert out["moments"]["1"] == pytest.approx(x)


def test_tail_experiment_summary_fields():
    rng = np.random.default_rng(6)
    out = tl.tail_experiment(EnsembleSpec("clifford", 4), 20_000, rng,
                             budget=2000, batches=10)
    assert out["replications"] == 10
    assert set(out["moments"]) == {"1", "2", "3", "4"}
    assert len(out["exceedance"]) == 3
    assert [e["threshold"] for e in out["exceedance"]] == [2.0, 4.0, 4.0]
    emp = out["moments"]["2"]
    want = float(tl.clifford_moment(4, 2))
    assert abs(emp - want) < 5 * out["moment_se"]["2"] + 1e-9


def test_tail_experiment_refuses_sizes_before_sampling():
    """Called from Python, ``tail_experiment`` refuses what ``validate_config``
    refuses, before it draws from ``rng``: no replication (budget above
    samples), a budget that the batches do not divide, or a size that is not
    an int of at least 1."""
    for budget, batches, message in ((50, 5, "budget 50 must be at most samples 10"),
                                     (10, 3, "budget 10 must be a multiple of batches 3"),
                                     (10, 0, "batches must be at least 1, got 0"),
                                     (10.0, 5, "budget must be an integer, got 10.0"),
                                     (0, 5, "budget must be at least 1, got 0")):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^{message}$"):
            tl.tail_experiment(EnsembleSpec("clifford", 3), 10, rng, budget=budget,
                               batches=batches)
        assert rng.bit_generator.state == state


def test_tail_experiment_n31_bytes_are_pinned():
    out = tl.tail_experiment(EnsembleSpec("clifford", 31), 2000, np.random.default_rng(3132),
                             budget=200, batches=10)
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == "94bb7dd352e1e78691d0c37862dddd79f77156637926b710f1c8900e5ac7d37e"


def test_cost_model_validation():
    with pytest.raises(ValueError):
        tl.CostModel(alpha=0.5)
    with pytest.raises(ValueError):
        tl.CostModel(alpha=2.0, budget=0.0)


def test_optimal_reuse_examples():
    assert tl.optimal_reuse(tl.CostModel(alpha=1.0, v1=3.0, max_reuse=200), 0.5) == 1
    assert tl.optimal_reuse(tl.CostModel(alpha=4.0, v1=3.0, max_reuse=64), 0.0) == 64
    model = tl.CostModel(alpha=100.0, v1=3.0, max_reuse=1000)
    best = tl.optimal_reuse(model, 0.1)
    cont = tl.continuous_reuse_heuristic(100.0, 3.0, 0.1)
    assert cont == pytest.approx(math.sqrt(99 * 2.9 / 0.1))
    assert abs(best - cont) <= 1.0
    with pytest.raises(ValueError):
        tl.optimal_reuse(model, 5.0)


def test_optimal_reuse_tie_breaks_small():
    # flat objective (alpha=1, vstar=0) ties at every R: pick R=1
    assert tl.optimal_reuse(tl.CostModel(alpha=1.0, v1=2.0, max_reuse=50), 0.0) == 1
