from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from shadowkit import clifford as cl
from shadowkit.ensembles import EnsembleSpec, SampledCircuit, push_rows, sample_circuits
from shadowkit.stabilizer import (PauliString, StabilizerTableau, apply_paulis, statevectors,
                                  tableaux)

from clifford_oracle import random_pauli, random_stabilizer_tableau
from dense_oracle import clifford_unitary, pauli_dense
from support_oracle import z_support_gauss_jordan, z_supports

HADAMARD = cl.CliffordElement([0b01, 0b10], np.zeros(2, dtype=np.uint8))


def test_pauli_labels_and_signs():
    assert PauliString.from_label("Y").label() == "+Y"
    assert PauliString.from_label("iZ").label() == "+iZ"
    assert PauliString.from_label("-iY").label() == "-iY"
    p = PauliString.from_label("-XZ")
    assert p.hermitian_sign() == -1
    with pytest.raises(ValueError, match="unknown Pauli letter"):
        PauliString.from_label("XW")


def test_apply_identity_and_hadamard():
    tab = StabilizerTableau.zero_state(1)
    same = tab.apply_clifford(cl.CliffordElement.identity(1))
    assert same.row(0).label() == "+Z"
    rotated = tab.apply_clifford(HADAMARD)
    assert rotated.row(0).label() == "+X"


def test_random_clifford_matches_dense_simulation():
    rng = np.random.default_rng(10)
    for _ in range(20):
        tab = random_stabilizer_tableau(3, rng)
        c = cl.sample_uniform(3, rng)
        lhs = tab.apply_clifford(c).statevector()
        rhs = clifford_unitary(c) @ tab.statevector()
        # equal up to global phase
        overlap = abs(np.vdot(lhs, rhs))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_pipeline_distributions_match_dense():
    """Exact probability vectors of tableau and dense pipelines agree
    (total variation below 1e-10 on 1000 random state/Clifford pairs)."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        for _ in range(250):
            tab = random_stabilizer_tableau(n, rng)
            c = cl.sample_uniform(n, rng)
            rotated = tab.apply_clifford(c)
            exact = np.array([float(rotated.z_probability(x))
                              for x in range(2 ** n)])
            v = clifford_unitary(c) @ tab.statevector()
            assert np.abs(exact - np.abs(v) ** 2).sum() < 1e-10


def test_sampling_chi_square_against_dense_probabilities():
    rng = np.random.default_rng(12)
    tab = random_stabilizer_tableau(4, rng)
    probs = np.abs(tab.statevector()) ** 2
    draw_rng = np.random.default_rng(13)
    shots = 100_000
    counts = np.bincount(tab.sample_z_basis(draw_rng, shots), minlength=16)
    support = probs > 1e-12
    assert counts[~support].sum() == 0
    _, p = stats.chisquare(counts[support], shots * probs[support] / probs[support].sum())
    assert p > 0.001


def test_pauli_apply_is_the_dense_pauli_exactly():
    """``PauliString.apply`` (a gather and in-place signed phases) against the
    dense Pauli matrix, equal to the bit on random complex vectors."""
    rng = np.random.default_rng(14)
    for n in (1, 2, 3, 4):
        for _ in range(40):
            p = random_pauli(n, rng)
            p = PauliString(n, p.word, int(rng.integers(4)))
            v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            assert np.array_equal(p.apply(v), pauli_dense(p) @ v)


def test_measurement_transcript_is_seed_deterministic():
    rng = np.random.default_rng(21)
    tab = random_stabilizer_tableau(4, rng)
    a = tab.sample_z_basis(np.random.default_rng(5), 10)
    b = tab.sample_z_basis(np.random.default_rng(5), 10)
    assert a == b


def test_overlap_examples():
    """|<0|S>|^2 is the exact Born probability of outcome 0."""
    zero = StabilizerTableau.zero_state(1)
    one = StabilizerTableau(zero.rows, [2])      # stabilizer -Z
    plus = StabilizerTableau.zero_state(1).apply_clifford(HADAMARD)
    assert zero.z_probability(0) == 1
    assert one.z_probability(0) == 0
    assert plus.z_probability(0) == Fraction(1, 2)


def test_tableau_is_its_n_stabilizer_rows():
    for n in (1, 2, 5):
        zero = StabilizerTableau.zero_state(n)
        assert zero.rows.shape == zero.phases.shape == (n,)
        for rows, phases in ((np.zeros((n, 2)), np.zeros(n)), (np.zeros(n), np.zeros(2 * n))):
            with pytest.raises(ValueError, match="tableau must have n rows"):
                StabilizerTableau(rows, phases)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_z_support_is_the_nonzero_dense_amplitudes(seed, n):
    """x is in x0 + span(B) iff <x|S> != 0, read off the dense projector
    prod_g (I + g)/2 of the stabilizer rows, which never calls z_support."""
    tab = random_stabilizer_tableau(n, np.random.default_rng(seed))
    proj = np.eye(2 ** n, dtype=complex)
    for g in map(tab.row, range(n)):
        proj = proj @ (np.eye(2 ** n) + pauli_dense(g)) / 2
    x0, basis, _ = tab.z_support()
    support = {x0}
    for row in basis:
        support |= {x ^ row for x in support}
    nonzero = set(np.flatnonzero(np.abs(np.diag(proj)) > 1e-9).tolist())
    assert support == nonzero


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_apply_clifford_is_dense_action_up_to_phase(seed, n):
    rng = np.random.default_rng(seed)
    tab = random_stabilizer_tableau(n, rng)
    c = cl.sample_uniform(n, rng)
    got, want = tab.apply_clifford(c).statevector(), clifford_unitary(c) @ tab.statevector()
    assert abs(abs(np.vdot(want, got)) - 1) < 1e-12


def test_batched_kernels_are_their_count_1_cases_bit_for_bit():
    """``apply_paulis`` on stacked rows and ``statevectors`` on stacked
    tableaux equal ``PauliString.apply`` and ``StabilizerTableau.statevector``
    row by row, to the byte."""
    rng = np.random.default_rng(15)
    for n in range(1, 7):
        tabs = [random_stabilizer_tableau(n, rng) for _ in range(6)]
        vecs = statevectors(*(np.stack([getattr(t, a) for t in tabs])
                              for a in ("rows", "phases")))
        assert vecs.shape == (6, 2 ** n)
        for tab, v in zip(tabs, vecs):
            assert v.tobytes() == tab.statevector().tobytes()
        paulis = [PauliString(n, p.word, int(rng.integers(4)))
                  for p in (random_pauli(n, rng) for _ in range(6))]
        got = apply_paulis([p.word for p in paulis], [p.phase for p in paulis], vecs)
        for p, v, g in zip(paulis, vecs, got):
            assert g.tobytes() == p.apply(v).tobytes()


def test_sample_z_basis_draws_as_one_draw_per_shot():
    """R shots from one (R, d) draw consume the stream as R draws of d bits
    would (PCG64 hands out 32-bit halves one at a time), and each outcome is
    x0 plus the basis rows its bits select."""
    rng = np.random.default_rng(16)
    for n in (1, 3, 6, 31):
        tab = random_stabilizer_tableau(n, rng)
        x0, basis, _ = tab.z_support()
        for reuse in (1, 2, 5):
            got = tab.sample_z_basis(np.random.default_rng(reuse), reuse)
            draws, want = np.random.default_rng(reuse), []
            for _ in range(reuse):
                x = x0
                for row, bit in zip(basis, draws.integers(2, size=len(basis)).tolist()):
                    x ^= row * bit
                want.append(x)
            assert got == want and all(type(x) is int for x in got)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 20, 31])
def test_z_supports_match_gauss_jordan_oracle(n):
    """``z_support_arrays`` over a stack equals the scalar Gauss-Jordan, tableau by
    tableau, to the int: on Clifford-rotated random states, on the tableaux
    of T-gate segment pushes, and on arbitrary (also rank-deficient) rows.
    n = 31 fills 62 bits of a word.  ``z_support``, ``tableaux`` and the
    empty stack are its count-1, list and count-0 cases."""
    rng = np.random.default_rng(100 + n)
    state = random_stabilizer_tableau(n, rng)
    rows = (np.broadcast_to(a, (12,) + a.shape) for a in (state.rows, state.phases))
    elements = [c.element for c in sample_circuits(EnsembleSpec("clifford", n), [rng] * 12)]
    stacks = [cl.conjugate_rows_batch(elements, *rows)]
    # built from segments, since a T-gate ensemble refuses n past the dense budget
    segments = cl.sample_uniform_streams(n, [rng] * 24)
    tgate = [SampledCircuit("homeopathic", n, segments=segments[i:i + 4]) for i in range(0, 24, 4)]
    words, phases = push_rows(tgate, state.rows, state.phases)
    stacks.append((words[:, :n], phases[:, :n]))
    stacks.append((rng.integers(4 ** n, size=(12, n)), rng.integers(4, size=(12, n))))
    stacks.append((np.zeros((2, n), dtype=np.int64), np.zeros((2, n), dtype=np.int64)))
    dims = set()
    for words, phases in stacks:
        got = z_supports(words, phases)
        want = [z_support_gauss_jordan(*t) for t in zip(words, phases)]
        assert got == want
        assert all(type(v) is int for x0, basis, pivots in got for v in [x0, *basis, *pivots])
        dims |= {len(pivots) for _, _, pivots in got}
    for (words, phases), tab in zip(zip(*stacks[0]), tableaux(*stacks[0])):
        assert tab.z_support() == z_support_gauss_jordan(words, phases)
        assert StabilizerTableau(words, phases).z_support() == tab.z_support()
    assert StabilizerTableau.zero_state(n).z_support() == (0, [], [])
    assert z_supports(*(a[:0] for a in stacks[0])) == []
    if n >= 3:
        assert {d % 2 for d in dims} == {0, 1}


def test_z_supports_refuse_rows_wider_than_a_word():
    """Past n = 31 a 2n-bit row does not fit the 64-bit word: a one-line
    error, not wrapped bits."""
    with pytest.raises(ValueError, match="n <= 31; got n = 32"):
        StabilizerTableau.zero_state(32).z_support()
