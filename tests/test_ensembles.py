import numpy as np
import pytest
from scipy import stats

from shadowkit import clifford as cl
from shadowkit import dense
from shadowkit import ensembles as en
from shadowkit import tails as tl


def test_spec_validation():
    en.EnsembleSpec("clifford", 3)
    en.EnsembleSpec("homeopathic", 3, k=4)
    with pytest.raises(ValueError):
        en.EnsembleSpec("brickwork", 3)
    with pytest.raises(ValueError):
        en.EnsembleSpec("clifford", 3, k=2)
    with pytest.raises(ValueError):
        en.EnsembleSpec("homeopathic", 3, k=-1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be at least 1"):
            en.EnsembleSpec("clifford", n)


def test_spec_json_round_trip():
    spec = en.EnsembleSpec("homeopathic", 4, k=5)
    assert en.EnsembleSpec.from_json(spec.to_json()) == spec
    assert spec.to_json() == {"kind": "homeopathic", "n": 4, "k": 5}


def test_homeopathic_marker_count_and_product():
    rng = np.random.default_rng(0)
    for n, k in ((2, 3), (4, 5)):
        spec = en.EnsembleSpec("homeopathic", n, k=k)
        c = en.sample_circuit(spec, rng)
        assert c.k == k and len(c.segments) == k + 1
        tg = en.t_gate_dense(n)
        manual = c.segments[0].to_dense()
        for seg in c.segments[1:]:
            manual = seg.to_dense() @ tg @ manual
        assert np.allclose(c.dense(), manual, atol=1e-10)
        assert dense.is_unitary(c.dense())


def test_homeopathic_k0_matches_clifford_statistics():
    """k=0 interleaving is the Clifford ensemble: compare the support-
    dimension statistic of the estimator distribution."""
    rng = np.random.default_rng(1)
    n, draws = 2, 3000
    x_homeo = tl.sample_pair_xvalues(en.EnsembleSpec("homeopathic", n, k=0), rng, draws)
    x_cliff = tl.sample_pair_xvalues(en.EnsembleSpec("clifford", n), rng, draws)
    values = np.unique(np.concatenate([x_homeo, x_cliff]).round(9))
    table = np.array([[np.sum(np.isclose(x, values[j])) for j in range(len(values))]
                      for x in (x_homeo, x_cliff)])
    _, p, _, _ = stats.chi2_contingency(table)
    assert p > 0.001


def test_t_gate_dense_acts_on_first_qubit():
    tg = en.t_gate_dense(2)
    want = np.kron(dense.T_GATE, np.eye(2))
    assert np.allclose(tg, want)


def test_haar_unitary_moments():
    rng = np.random.default_rng(2)
    draws = 100_000
    zs = (rng.normal(size=(draws, 4, 4)) + 1j * rng.normal(size=(draws, 4, 4))) / np.sqrt(2)
    qs, rs = np.linalg.qr(zs)
    ds = np.einsum("bii->bi", rs)
    us = qs * (ds / np.abs(ds))[:, None, :]
    for u in us[:50]:
        assert dense.is_unitary(u)
    # E|tr U|^2 = 1 for Haar
    traces = np.einsum("bii->b", us)
    vals = np.abs(traces) ** 2
    se = vals.std() / np.sqrt(draws)
    assert abs(vals.mean() - 1.0) < 3 * se


def test_haar_first_moment_projector():
    """E[U (x) conj(U)] is the projector onto the maximally entangled vector."""
    rng = np.random.default_rng(3)
    draws = 100_000
    zs = (rng.normal(size=(draws, 2, 2)) + 1j * rng.normal(size=(draws, 2, 2))) / np.sqrt(2)
    qs, rs = np.linalg.qr(zs)
    ds = np.einsum("bii->bi", rs)
    us = qs * (ds / np.abs(ds))[:, None, :]
    acc = np.einsum("bij,bkl->ikjl", us, us.conj()).reshape(4, 4) / draws
    omega = np.zeros(4)
    omega[0] = omega[3] = 1 / np.sqrt(2)
    want = np.outer(omega, omega)
    assert np.abs(acc - want).max() < 3 * 1.0 / np.sqrt(draws) + 0.005


def test_frame_operator_exact_clifford_is_depolarizing():
    for n in (1, 2):
        f = en.frame_operator_exact_clifford(n)
        assert np.allclose(f, en.frame_operator_depolarizing(n), atol=1e-12)


def test_frame_operator_haar_monte_carlo():
    rng = np.random.default_rng(4)
    f = en.frame_operator_empirical(en.EnsembleSpec("haar", 1), 20_000, rng)
    assert np.abs(f - en.frame_operator_depolarizing(1)).max() < 0.02


def test_frame_operator_clifford_monte_carlo():
    rng = np.random.default_rng(5)
    f = en.frame_operator_empirical(en.EnsembleSpec("clifford", 1), 20_000, rng)
    assert np.abs(f - en.frame_operator_depolarizing(1)).max() < 0.02


def test_inverse_frame_examples():
    out = en.inverse_frame_apply(1, dense.basis_state(0, 1))
    assert np.allclose(out, np.diag([2, -1]))
    mix = np.eye(4) / 4
    assert np.allclose(en.inverse_frame_apply(2, mix), mix)
    rng = np.random.default_rng(6)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m -= np.trace(m) / 4 * np.eye(4)
    assert np.allclose(en.inverse_frame_apply(2, m), 5 * m)


def test_frame_composed_with_inverse_is_identity():
    for n in (1, 2):
        f = en.frame_operator_exact_clifford(n)
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
            lhs = dense.devectorize(f @ dense.vectorize(en.inverse_frame_apply(n, a)))
            assert np.allclose(lhs, a, atol=1e-10)


def test_descriptor_round_trips():
    rng = np.random.default_rng(8)
    for spec in (en.EnsembleSpec("clifford", 3),
                 en.EnsembleSpec("haar", 2),
                 en.EnsembleSpec("homeopathic", 2, k=2)):
        c = en.sample_circuit(spec, rng)
        c2 = en.SampledCircuit.from_descriptor(c.descriptor())
        assert np.allclose(c.dense(), c2.dense(), atol=1e-12)
    good = cl.sample_uniform(1, rng).to_hex()
    padded = format(int(good, 16) | 1, "02x")
    for n, payload in ((1, "00"), (1, "ffffff"), (1, good + "00"), (1, padded),
                       (2, good), (1, "0")):
        with pytest.raises(ValueError):
            cl.CliffordElement.from_hex(n, payload)
    for desc in ("clifford:1:00", f"homeopathic:1:1:{good};00"):
        with pytest.raises(ValueError):
            en.SampledCircuit.from_descriptor(desc)
