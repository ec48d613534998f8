import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from shadowkit import clifford as cl
from shadowkit import ensembles as en
from shadowkit import tails as tl
from shadowkit.stabilizer import StabilizerTableau

from dense_oracle import (T_GATE, basis_state, circuit_unitary, devectorize,
                          frame_operator_depolarizing, frame_operator_empirical,
                          frame_operator_exact_clifford, is_unitary, t_gate_dense,
                          vectorize)


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
    en.EnsembleSpec("clifford", 31)
    en.EnsembleSpec("identity", 31)
    en.EnsembleSpec("haar", 12)
    en.EnsembleSpec("homeopathic", 7, k=1)
    en.EnsembleSpec("homeopathic", 24, k=1)
    for kind in ("clifford", "identity"):
        with pytest.raises(ValueError, match="n <= 31"):
            en.EnsembleSpec(kind, 32)
    for obj in ({"n": 3}, {"kind": "clifford"}, {"k": 0}):
        with pytest.raises(ValueError, match="ensemble is missing"):
            en.EnsembleSpec.from_json(obj)
    with pytest.raises(ValueError, match="over the budget"):
        en.EnsembleSpec("haar", 13)
    with pytest.raises(ValueError, match="over the budget") as err:
        en.EnsembleSpec("homeopathic", 25, k=1)
    assert "\n" not in str(err.value)


def test_dense_paths_refuse_before_allocating():
    with pytest.raises(ValueError, match="over the budget"):
        en.haar_unitary(2 ** 13, np.random.default_rng(0))
    with pytest.raises(ValueError, match="over the budget"):
        frame_operator_empirical(en.EnsembleSpec("clifford", 7), 1,
                                 np.random.default_rng(0))


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
        assert is_unitary(circuit_unitary(c))
        with pytest.raises(ValueError, match="no dense unitary"):
            c.dense()


def test_statevector_is_dense_action_up_to_phase():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        state = cl.random_stabilizer_tableau(n, rng)
        psi = state.statevector()
        for spec in (en.EnsembleSpec("haar", n), en.EnsembleSpec("clifford", n),
                     en.EnsembleSpec("identity", n), en.EnsembleSpec("homeopathic", n, k=0),
                     en.EnsembleSpec("homeopathic", n, k=3)):
            c = en.sample_circuit(spec, rng)
            got, want = c.statevector(state), circuit_unitary(c) @ psi
            assert abs(abs(np.vdot(want, got)) - 1) < 1e-10, (spec, n)


def test_t_gate_statevector_peaks_under_four_vectors():
    """One n = 16 T-gate statevector holds under 4 vectors of 2^n complex
    entries at its peak, so n <= 24 fits the 2^24-entry budget."""
    n = 16
    circuit = en.sample_circuit(en.EnsembleSpec("homeopathic", n, k=2), np.random.default_rng(0))
    state = StabilizerTableau.zero_state(n)
    tracemalloc.start()
    circuit.statevector(state)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4 * 16 * 2 ** n, peak


def test_t_gate_born_vectors_match_dense_oracle():
    """The Pauli-branch Born vectors of ``_pair_born_vectors`` against
    |U psi|^2 of the dense segment product on the same circuits; at k = 0 they are the Clifford
    value 2^-d on the Z-basis support (to the last bit of the normalization)."""
    for n in range(1, 7):
        for k in range(9):
            spec, count, seed = en.EnsembleSpec("homeopathic", n, k=k), 3, 10 * n + k
            probs = [a / a.sum() for a in
                     tl._pair_born_vectors(spec, np.random.default_rng(seed), count)]
            segments = cl.sample_uniform_batch(n, np.random.default_rng(seed), count * (k + 1))
            psi = StabilizerTableau.zero_state(n).statevector()
            for i in range(count):
                segs = segments[i * (k + 1):(i + 1) * (k + 1)]
                c = en.SampledCircuit("homeopathic", n, segments=segs)
                want = np.abs(circuit_unitary(c) @ psi) ** 2
                assert np.abs(probs[i] - want).max() < 1e-12, (n, k)
                if k == 0:
                    rotated = StabilizerTableau.zero_state(n).apply_clifford(segs[0])
                    x0, basis, pivots = rotated.z_support()
                    support = {x0}
                    for row in basis:
                        support |= {x ^ row for x in support}
                    assert set(np.flatnonzero(probs[i])) == support
                    flat = np.zeros(2 ** n)
                    flat[sorted(support)] = 2.0 ** -len(pivots)
                    assert np.abs(probs[i] - flat).max() <= np.spacing(flat.max())


def test_statevectors_match_one_at_a_time():
    """A batch through ``statevectors`` is each circuit's ``statevector``, to
    the byte, on a scrambled tableau: n = 1..6, k = 0..8 and Clifford circuits."""
    for n in range(1, 7):
        rng = np.random.default_rng(40 + n)
        state = cl.random_stabilizer_tableau(n, rng)
        specs = [en.EnsembleSpec("clifford", n)] + [en.EnsembleSpec("homeopathic", n, k=k)
                                                    for k in range(9)]
        for spec in specs:
            circuits = en.sample_circuits(spec, [rng] * 5)
            singles = [c.statevector(state).tobytes() for c in circuits]
            for size in (1, 5):
                got = en.statevectors(circuits[:size], state)
                assert [v.tobytes() for v in got] == singles[:size], (spec, size)


def test_statevectors_at_the_batch_cap():
    """Batches of 1, cap - 1, cap and cap + 1 circuits, with cap the circuits
    in one ``tails._pair_born_vectors`` batch: every row is its circuit's own
    ``statevector``, to the byte."""
    for spec in (en.EnsembleSpec("homeopathic", 6, k=3), en.EnsembleSpec("homeopathic", 6, k=8),
                 en.EnsembleSpec("clifford", 6), en.EnsembleSpec("homeopathic", 12, k=1)):
        cap = tl.BORN_BATCH_ENTRIES >> spec.n
        rng = np.random.default_rng(spec.n + spec.k)
        state = cl.random_stabilizer_tableau(spec.n, rng)
        circuits = en.sample_circuits(spec, [rng] * (cap + 1))
        singles = [c.statevector(state).tobytes() for c in circuits]
        for size in (1, cap - 1, cap, cap + 1):
            got = en.statevectors(circuits[:size], state)
            assert [v.tobytes() for v in got] == singles[:size], (spec, size)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_branch_statevector_is_dense_segment_product(seed, n, k):
    rng = np.random.default_rng(seed)
    state = cl.random_stabilizer_tableau(n, rng)
    c = en.sample_circuit(en.EnsembleSpec("homeopathic", n, k=k), rng)
    want = circuit_unitary(c) @ state.statevector()
    assert abs(abs(np.vdot(want, c.statevector(state))) - 1) < 1e-12


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
    tg = t_gate_dense(2)
    want = np.kron(T_GATE, np.eye(2))
    assert np.allclose(tg, want)


def test_haar_unitary_moments():
    rng = np.random.default_rng(2)
    draws = 100_000
    zs = (rng.normal(size=(draws, 4, 4)) + 1j * rng.normal(size=(draws, 4, 4))) / np.sqrt(2)
    qs, rs = np.linalg.qr(zs)
    ds = np.einsum("bii->bi", rs)
    us = qs * (ds / np.abs(ds))[:, None, :]
    for u in us[:50]:
        assert is_unitary(u)
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
        f = frame_operator_exact_clifford(n)
        assert np.allclose(f, frame_operator_depolarizing(n), atol=1e-12)


def test_frame_operator_haar_monte_carlo():
    rng = np.random.default_rng(4)
    f = frame_operator_empirical(en.EnsembleSpec("haar", 1), 20_000, rng)
    assert np.abs(f - frame_operator_depolarizing(1)).max() < 0.02


def test_frame_operator_clifford_monte_carlo():
    rng = np.random.default_rng(5)
    f = frame_operator_empirical(en.EnsembleSpec("clifford", 1), 20_000, rng)
    assert np.abs(f - frame_operator_depolarizing(1)).max() < 0.02


def test_inverse_frame_examples():
    out = en.inverse_frame_apply(1, basis_state(0, 1))
    assert np.allclose(out, np.diag([2, -1]))
    mix = np.eye(4) / 4
    assert np.allclose(en.inverse_frame_apply(2, mix), mix)
    rng = np.random.default_rng(6)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m -= np.trace(m) / 4 * np.eye(4)
    assert np.allclose(en.inverse_frame_apply(2, m), 5 * m)


def test_frame_composed_with_inverse_is_identity():
    for n in (1, 2):
        f = frame_operator_exact_clifford(n)
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
            lhs = devectorize(f @ vectorize(en.inverse_frame_apply(n, a)))
            assert np.allclose(lhs, a, atol=1e-10)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(en.KINDS), st.integers(1, 4),
       st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_descriptor_round_trips_every_kind(seed, kind, n, k):
    """A parsed descriptor prints the same descriptor and acts on a random
    stabilizer state by the same statevector."""
    rng = np.random.default_rng(seed)
    c = en.sample_circuit(en.EnsembleSpec(kind, n, k=k if kind == "homeopathic" else 0), rng)
    c2 = en.SampledCircuit.from_descriptor(c.descriptor())
    assert c2.descriptor() == c.descriptor()
    state = cl.random_stabilizer_tableau(n, rng)
    assert np.array_equal(c.statevector(state), c2.statevector(state))


def test_descriptor_round_trips():
    rng = np.random.default_rng(8)
    good = cl.sample_uniform(1, rng).to_hex()
    padded = format(int(good, 16) | 1, "02x")
    for n, payload in ((1, "00"), (1, "ffffff"), (1, good + "00"), (1, padded),
                       (2, good), (1, "0")):
        with pytest.raises(ValueError):
            cl.CliffordElement.from_hex(n, payload)
    for desc in ("clifford:1:00", f"homeopathic:1:1:{good};00",
                 "clifford", "homeopathic:2:1", "haar:3", ""):
        with pytest.raises(ValueError):
            en.SampledCircuit.from_descriptor(desc)
    with pytest.raises(ValueError, match="over the budget"):
        en.SampledCircuit.from_descriptor("haar:14:0000000000000001")
    with pytest.raises(ValueError, match="n <= 31"):
        en.SampledCircuit.from_descriptor(
            "clifford:32:" + cl.CliffordElement.identity(32).to_hex())
