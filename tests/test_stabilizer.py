from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from shadowkit import clifford as cl
from shadowkit.stabilizer import PauliString, StabilizerTableau, overlap_sq

HADAMARD = cl.CliffordElement(np.array([[0, 1], [1, 0]], dtype=np.uint8),
                              np.zeros(2, dtype=np.uint8))


def test_pauli_labels_and_signs():
    assert PauliString.from_label("Y").label() == "+Y"
    assert (PauliString.from_label("X") * PauliString.from_label("Y")).label() == "+iZ"
    assert (PauliString.from_label("Z") * PauliString.from_label("X")).label() == "+iY"
    p = PauliString.from_label("-XZ")
    assert p.hermitian_sign() == -1
    with pytest.raises(ValueError, match="unknown Pauli letter"):
        PauliString.from_label("XW")


@given(st.integers(0, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_pauli_product_matches_dense(seed, data):
    n = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    a = PauliString.random(n, rng)
    b = PauliString.random(n, rng)
    assert np.allclose((a * b).dense(), a.dense() @ b.dense(), atol=1e-12)
    # fourth power of the phase is trivial
    p4 = a * a * a * a
    assert p4.phase in (0, 2) and not p4.x.any() and not p4.z.any()
    assert (1j ** a.phase) ** 4 == 1


def test_pauli_commutation_rule():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        for _ in range(20):
            a, b = PauliString.random(n, rng), PauliString.random(n, rng)
            ab, ba = (a * b).dense(), (b * a).dense()
            if a.commutes(b):
                assert np.allclose(ab, ba)
            else:
                assert np.allclose(ab, -ba)


def test_apply_identity_and_hadamard():
    tab = StabilizerTableau.zero_state(1)
    same = tab.apply_clifford(cl.CliffordElement.identity(1))
    assert same.row(1).label() == "+Z"
    rotated = tab.apply_clifford(HADAMARD)
    assert rotated.row(1).label() == "+X"


def test_random_clifford_matches_dense_simulation():
    rng = np.random.default_rng(10)
    for _ in range(20):
        tab = cl.random_stabilizer_tableau(3, rng)
        c = cl.sample_uniform(3, rng)
        lhs = tab.apply_clifford(c).statevector()
        rhs = c.to_dense() @ tab.statevector()
        # equal up to global phase
        overlap = abs(np.vdot(lhs, rhs))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_pipeline_distributions_match_dense():
    """Exact probability vectors of tableau and dense pipelines agree
    (total variation below 1e-10 on 1000 random state/Clifford pairs)."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        for _ in range(250):
            tab = cl.random_stabilizer_tableau(n, rng)
            c = cl.sample_uniform(n, rng)
            rotated = tab.apply_clifford(c)
            exact = np.array([float(rotated.z_probability(format(x, f"0{n}b")))
                              for x in range(2 ** n)])
            v = c.to_dense() @ tab.statevector()
            assert np.abs(exact - np.abs(v) ** 2).sum() < 1e-10


def test_sampling_chi_square_against_dense_probabilities():
    rng = np.random.default_rng(12)
    tab = cl.random_stabilizer_tableau(4, rng)
    probs = np.abs(tab.statevector()) ** 2
    draw_rng = np.random.default_rng(13)
    counts = np.zeros(16)
    shots = 100_000
    for _ in range(shots):
        counts[int(tab.sample_z_basis(draw_rng), 2)] += 1
    support = probs > 1e-12
    assert counts[~support].sum() == 0
    _, p = stats.chisquare(counts[support], shots * probs[support] / probs[support].sum())
    assert p > 0.001


def test_measurement_transcript_is_seed_deterministic():
    rng = np.random.default_rng(21)
    tab = cl.random_stabilizer_tableau(4, rng)
    a = [tab.sample_z_basis(np.random.default_rng(5)) for _ in range(10)]
    b = [tab.sample_z_basis(np.random.default_rng(5)) for _ in range(10)]
    assert a == b


def test_overlap_examples():
    zero = StabilizerTableau.basis_state("0")
    one = StabilizerTableau.basis_state("1")
    plus = StabilizerTableau.zero_state(1).apply_clifford(HADAMARD)
    assert overlap_sq(zero, zero) == 1
    assert overlap_sq(zero, one) == 0
    assert overlap_sq(zero, plus) == Fraction(1, 2)


def test_overlap_matches_dense_and_is_symmetric():
    rng = np.random.default_rng(14)
    for n in (1, 2, 3, 4):
        for _ in range(40):
            a = cl.random_stabilizer_tableau(n, rng)
            b = cl.random_stabilizer_tableau(n, rng)
            val = overlap_sq(a, b)
            assert val == overlap_sq(b, a)
            want = abs(np.vdot(a.statevector(), b.statevector())) ** 2
            assert abs(float(val) - want) < 1e-10
            if val:
                assert val.denominator & (val.denominator - 1) == 0  # dyadic
