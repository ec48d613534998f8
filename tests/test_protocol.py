import hashlib
import json
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from shadowkit import bits as f2
from shadowkit import clifford as cl
from shadowkit import ensembles
from shadowkit import moments as mo
from shadowkit import protocol as pr
from shadowkit import tails as tl
from shadowkit.ensembles import EnsembleSpec, SampledCircuit, sample_circuit, sample_circuits
from shadowkit.stabilizer import PauliString, StabilizerTableau

from clifford_oracle import enumerate_group, random_pauli, random_stabilizer_tableau
from dense_oracle import (circuit_unitary, conditional_mean_dense, observable_dense,
                          single_shot_dense)
from shot_oracle import mean_values, shot_evaluator

IDENT1 = SampledCircuit("clifford", 1, element=cl.CliffordElement.identity(1))


def test_single_shot_worked_examples():
    z = pr.ObservableSpec.pauli(PauliString.from_label("Z"))
    assert pr.single_shot(z, IDENT1, "0") == 3.0
    # -I is not traceless: X = 3 <x|-I|x> - tr(-I) = -3 + 2 on every outcome
    minus_id = pr.ObservableSpec.pauli(PauliString.from_label("-I"))
    assert minus_id.trace() != 0
    assert pr.single_shot(minus_id, IDENT1, "0") == -1.0
    assert pr.single_shot(minus_id, IDENT1, "1") == -1.0
    rng = np.random.default_rng(0)
    c = SampledCircuit("clifford", 1, element=cl.sample_uniform(1, rng))
    assert pr.single_shot(pr.ObservableSpec.pauli(PauliString.from_label("I")), c, "0") == 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        pr.ObservableSpec.pauli(PauliString.from_label("iZ"))
    with pytest.raises(ValueError):
        pr.single_shot(z, IDENT1, "00")


@pytest.mark.parametrize("kind", ["clifford", "homeopathic", "haar"])
def test_malformed_outcomes_are_refused_at_the_boundary(kind):
    """A record outcome is exactly n characters 0/1: signs, underscores,
    spaces, other digits, other lengths and non-strings are refused in one
    line that names the outcome, by ``record_values`` and ``single_shot``."""
    n = 3
    circuit = sample_circuit(EnsembleSpec(kind, n, k=int(kind == "homeopathic")),
                             np.random.default_rng(0))
    _, pair = pr.stabilizer_pair(n)
    pauli = pr.ObservableSpec.pauli(PauliString.from_label("ZXZ"))
    # int(x, 2) accepts the first five, "\uff11" being a fullwidth 1
    for bad in ("-01", "0_1", " 01", "+11", "\uff1101", "01", "0101", 5):
        rec = pr.ShadowRecord(circuit.descriptor(), ["010", bad])
        for o in (pair, pauli):
            for call in (lambda: pr.record_values([rec], o), lambda: pr.single_shot(o, circuit, bad)):
                with pytest.raises(ValueError) as err:
                    call()
                assert repr(bad) in str(err.value) and "\n" not in str(err.value)


def test_fast_path_equals_dense_path_exactly():
    """Every outcome x, on and off the support, for random Cliffords and the
    identity ensemble's circuit."""
    rng = np.random.default_rng(1)
    cases = 0
    for n in (1, 2, 3, 4):
        for i in range(251):
            tab = random_stabilizer_tableau(n, rng)
            o = pr.ObservableSpec.stabilizer_projector(tab)
            c = SampledCircuit("clifford", n, element=cl.sample_uniform(n, rng))
            if i == 250:
                c = sample_circuit(EnsembleSpec("identity", n), rng)
            p = pr.ObservableSpec.pauli(random_pauli(n, rng))
            for xi in range(2 ** n):
                x = format(xi, f"0{n}b")
                assert pr.single_shot(o, c, x) == pytest.approx(
                    single_shot_dense(o, c, x), abs=1e-9)
                assert pr.single_shot(p, c, x) == pytest.approx(
                    single_shot_dense(p, c, x), abs=1e-9)
            cases += 1
    assert cases == 1004


def test_observable_traces():
    tab = StabilizerTableau.zero_state(3)
    o = pr.ObservableSpec.stabilizer_projector(tab)
    assert o.trace() == 0
    assert mo.stabilizer_pair_traces(3)["tr_o2"] == Fraction(7, 8)
    assert np.trace(observable_dense(o) @ observable_dense(o)) == pytest.approx(7 / 8)
    assert np.trace(observable_dense(o)) == pytest.approx(0.0)
    p = pr.ObservableSpec.pauli(PauliString.from_label("XZ"))
    assert p.trace() == 0
    assert np.trace(observable_dense(p) @ observable_dense(p)) == pytest.approx(4)


def test_median_of_means_examples():
    assert pr.median_of_means([1, 5, 100], 3) == 5
    assert pr.median_of_means([0, 2, 10, 10, 4, 6], 3) == 5
    assert pr.median_of_means([3, 1, 2, 8], 1) == pytest.approx(3.5)
    # even K: lower median, an actually-achieved batch mean
    assert pr.median_of_means([0, 0, 1, 1, 10, 10, 2, 2], 4) == 1
    with pytest.raises(ValueError):
        pr.median_of_means([1, 2, 3], 2)
    for batches, message in ((0, "batches must be at least 1, got 0"),
                             (1.0, "batches must be an integer, got 1.0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            pr.median_of_means([1, 2, 3], batches)


def test_run_config_divisibility():
    spec = EnsembleSpec("clifford", 2)
    with pytest.raises(ValueError):
        pr.RunConfig(spec, measurements=10, reuse=3, batches=1)
    for field in ("measurements", "reuse", "batches"):
        sizes = {"measurements": 12, "reuse": 2, "batches": 2, field: 0}
        with pytest.raises(ValueError, match=field):
            pr.RunConfig(spec, **sizes)
    # sizes and the seed are ints, not floats or bools, and the seed is at least 0
    for args, seed, message in (((12.0, 4, 3), 0, "measurements must be an integer, got 12.0"),
                                ((True, 1, 1), 0, "measurements must be an integer, got True"),
                                ((12, 4, 3), True, "seed must be an integer, got True"),
                                ((12, 4, 3), 1.5, "seed must be an integer, got 1.5"),
                                ((12, 4, 3), -1, "seed must be at least 0, got -1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            pr.RunConfig(spec, *args, seed=seed)
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
        state = random_stabilizer_tableau(n, np.random.default_rng(n))
        cfg = pr.RunConfig(EnsembleSpec("clifford", n), measurements=64, reuse=4, batches=1,
                           seed=2212)
        for rec in pr.acquire(cfg, state):
            h.update((rec.to_json() + "\n").encode())
    assert h.hexdigest() == "0d7f4cda3742b28ab67dcab3a6200b8c52406a956c24399fad76fa8bb1c78367"


def test_record_values_bytes_are_pinned():
    """Exact evaluated values for fixed records: the projector, an X-containing
    and a Z-type signed Pauli on Clifford circuits."""
    cases = []
    for n in (1, 2, 3, 10):
        rng = np.random.default_rng(n)
        state = random_stabilizer_tableau(n, rng)
        obs = pr.ObservableSpec.stabilizer_projector(random_stabilizer_tableau(n, rng))
        cases.append((EnsembleSpec("clifford", n), state, obs))
    state = random_stabilizer_tableau(5, np.random.default_rng(5))
    for label in ("-XZZYI", "-ZIZZI"):
        obs = pr.ObservableSpec.pauli(PauliString.from_label(label))
        cases.append((EnsembleSpec("clifford", 5), state, obs))
    h = hashlib.sha256()
    for spec, state, obs in cases:
        cfg = pr.RunConfig(spec, measurements=64, reuse=4, batches=1, seed=2212)
        h.update(pr.record_values(pr.acquire(cfg, state), obs).tobytes())
    assert h.hexdigest() == "38502d230b166af34c4b1521f2b6897c992712d3d3f8ae33970a6b8b60735320"


def test_haar_record_values_bytes_are_pinned():
    """The Haar case of the record pins: the projector read off the Born
    vector, pinned to the bit."""
    state, obs = pr.stabilizer_pair(3, scramble=cl.sample_uniform(3, np.random.default_rng(3)))
    cfg = pr.RunConfig(EnsembleSpec("haar", 3), measurements=64, reuse=4, batches=1, seed=2212)
    values = pr.record_values(pr.acquire(cfg, state), obs)
    assert hashlib.sha256(values.tobytes()).hexdigest() == \
        "2be9cb10c677a8e184f153fa222441495687d50a7e67f131ffa63718d0d6e100"


def test_estimate_bytes_are_pinned(tmp_path):
    """The records file and the result of ``estimate`` on the stabilizer pair,
    for Clifford circuits across a chunk boundary, T-gate and Haar circuits.
    The n = 3 digests were taken before circuits were drawn in chunks, and
    the n = 10 ones with chunks of 16 and one draw per shot.  The n = 10 case
    runs CIRCUIT_CHUNK + 1 = 65 circuits, with support dimensions 8, 9 and
    10, so its digests also hold the chunk size at 64.  The Haar result was
    re-taken when its projector came to be read off the Born vector."""
    state, o = pr.stabilizer_pair(3, scramble=cl.sample_uniform(3, np.random.default_rng(12)))
    wide = pr.stabilizer_pair(10, scramble=cl.sample_uniform(10, np.random.default_rng(10)))
    cases = [(EnsembleSpec("clifford", 10), (pr.CIRCUIT_CHUNK + 1) * 4, 5,
              "d9e2168943522ca0227d4094d6500eddadb11045591b23c89442627f4490ce1d",
              "38701b911d16950afd41d5f421c1ffc5e516c9120e5bcf359b4ea280c053147a"),
             (EnsembleSpec("clifford", 3), 17 * 4, 1,
              "b418cb81d09a11ca4109a6097c4f709d668098889bc7a8d7f371b54e00487a29",
              "7bacfc651facc03ae96501ef42ad5100c6b47a1d8e586691b325924a00857518"),
             (EnsembleSpec("homeopathic", 3, k=2), 48, 3,
              "498e1ed0239d2d6ccbfea05086c66d3641068a81dfef40d6a8939fd17531d27a",
              "fcfd30b0efcd13cc42425a81ab262236a1f4686e5969870cceaf6b59fb520f01"),
             (EnsembleSpec("haar", 3), 48, 3,
              "b605068a9656fa1456f00d644d23d80f82df77994106fe145d1f7944add49e57",
              "18a2c9cbaf85b465047c066045cb8cfd75d923cea20490d359289d6421c01e34")]
    for spec, measurements, batches, records_sha, result_sha in cases:
        cfg = pr.RunConfig(spec, measurements, reuse=4, batches=batches, seed=1212)
        path = tmp_path / f"{spec.kind}{spec.n}.jsonl"
        with open(path, "w") as records:
            out = pr.estimate(cfg, *(wide if spec.n == 10 else (state, o)), records_out=records)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == records_sha, spec
        assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == result_sha, spec


def test_estimate_bytes_do_not_depend_on_the_chunk_size(monkeypatch, tmp_path):
    """Circuit t draws from its own substream, so ``estimate``'s records and
    result are the same bytes for chunks of 1, 16 and 64 circuits (Clifford,
    across several chunks, and T-gate)."""
    state, o = pr.stabilizer_pair(6, scramble=cl.sample_uniform(6, np.random.default_rng(6)))
    for spec, measurements in ((EnsembleSpec("clifford", 6), 130 * 3),
                               (EnsembleSpec("homeopathic", 6, k=2), 66 * 3)):
        runs = set()
        for chunk in (1, 16, 64):
            monkeypatch.setattr(pr, "CIRCUIT_CHUNK", chunk)
            path = tmp_path / f"{spec.kind}{chunk}.jsonl"
            cfg = pr.RunConfig(spec, measurements, reuse=3, batches=2, seed=77)
            with open(path, "w") as records:
                out = pr.estimate(cfg, state, o, records_out=records)
            runs.add((path.read_bytes(), json.dumps(out)))
        assert len(runs) == 1, spec


def test_estimate_acts_once_per_circuit(monkeypatch):
    """On the stabilizer pair, acquisition and evaluation share one ``act`` per
    chunk of circuits: one batched tableau rotation per Clifford chunk (and
    no one-circuit ``apply_clifford``), one ``statevectors`` per T-gate chunk,
    and one symplectic build per chunk.  Replaying records against a Pauli
    pushes each chunk's rows once."""
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((StabilizerTableau, "apply_clifford"), (cl, "conjugate_rows_batch"),
                        (pr, "statevectors"), (cl, "_build_symplectic")):
        counted(owner, name)
    state, o = pr.stabilizer_pair(3)
    circuits = pr.CIRCUIT_CHUNK + 1
    pr.estimate(pr.RunConfig(EnsembleSpec("clifford", 3), 2 * circuits, 2, 1), state, o)
    assert calls == {"conjugate_rows_batch": 2, "_build_symplectic": 2}
    calls.clear()
    pr.estimate(pr.RunConfig(EnsembleSpec("homeopathic", 3, k=2), 24, 2, 3), state, o)
    # the statevectors call conjugates by each of the k + 1 segments
    assert calls == {"statevectors": 1, "conjugate_rows_batch": 3, "_build_symplectic": 1}
    # replayed records: one push_rows for each chunk's Pauli parities
    records = pr.acquire(pr.RunConfig(EnsembleSpec("clifford", 3), 2 * circuits, 2, 1), state)
    counted(pr, "push_rows")
    calls.clear()
    pr.record_values(records, pr.ObservableSpec.pauli(PauliString.from_label("XYZ")))
    assert calls == {"push_rows": 2, "conjugate_rows_batch": 2}


def test_act_makes_the_haar_state_vector_once(monkeypatch):
    """``act`` over several Haar circuits makes the state's statevector once,
    and yields the circuits in order, each with |U psi|^2."""
    calls = Counter()
    statevector = StabilizerTableau.statevector

    def counted(self):
        calls["statevector"] += 1
        return statevector(self)
    monkeypatch.setattr(StabilizerTableau, "statevector", counted)
    rng = np.random.default_rng(4)
    state = random_stabilizer_tableau(3, rng)
    circuits = sample_circuits(EnsembleSpec("haar", 3), [rng] * 4)
    psi = statevector(state)
    got = list(pr.act(list(circuits), state))
    assert calls == {"statevector": 1}
    assert [c for c, _ in got] == circuits
    for c, p in got:
        assert np.array_equal(p, np.abs(c.dense() @ psi) ** 2)


@pytest.mark.parametrize("label", [None, "XZY"])
def test_haar_estimate_builds_each_unitary_once_with_the_last_one_freed(monkeypatch, label):
    """A Haar estimate, on the projector (the action serves it) or on a Pauli
    (the evaluator reads U again), builds one unitary per circuit, and each
    unitary is freed before the next is built."""
    built = []
    haar_unitary = ensembles.haar_unitary

    def recorded(dim, rng):
        assert [ref for ref in built if ref() is not None] == []
        u = haar_unitary(dim, rng)
        built.append(weakref.ref(u))
        return u
    monkeypatch.setattr(ensembles, "haar_unitary", recorded)
    state, pair = pr.stabilizer_pair(3)
    o = pair if label is None else pr.ObservableSpec.pauli(PauliString.from_label(label))
    cfg = pr.RunConfig(EnsembleSpec("haar", 3), measurements=10, reuse=2, batches=1, seed=3)
    pr.estimate(cfg, state, o)
    assert len(built) == 5


def test_t_gate_record_values_match_dense_oracle_and_are_pinned():
    """The T-gate case of the record pins: its records, and values within
    1e-12 of the dense segment product, then pinned to the bit."""
    state, obs = pr.stabilizer_pair(3, scramble=cl.sample_uniform(3, np.random.default_rng(3)))
    cfg = pr.RunConfig(EnsembleSpec("homeopathic", 3, k=2), measurements=64, reuse=4,
                       batches=1, seed=2212)
    records = pr.acquire(cfg, state)
    text = "".join(rec.to_json() + "\n" for rec in records).encode()
    assert hashlib.sha256(text).hexdigest() == \
        "7335d3c863b70fcf0696a7c9bafe64d55c1fa68ac0e6d8113cb99921ce25abb2"
    values = pr.record_values(records, obs)
    for rec, value in zip(records, values):
        circuit = SampledCircuit.from_descriptor(rec.circuit)
        want = np.mean([single_shot_dense(obs, circuit, x) for x in rec.outcomes])
        assert abs(value - want) < 1e-12
    assert hashlib.sha256(values.tobytes()).hexdigest() == \
        "de55aa4d0e351b33ffe0b3b12ef084d3a92eec3be28f1a06446bbe708431155f"


def test_t_gate_evaluators_match_dense_oracle():
    """shot_values and conditional_mean on T-gate circuits (k <= 6) and Haar
    circuits, n <= 5, against the dense unitary on every outcome: random
    signed Paulis (X-containing ones included), signed Paulis of X and Y on
    Haar circuits, and both stabilizer projectors."""
    def check(circuit, state, paulis):
        for o in [pr.ObservableSpec.stabilizer_projector(random_stabilizer_tableau(n, rng)),
                  pr.ObservableSpec.stabilizer_projector(state)] + \
                 [pr.ObservableSpec.pauli(p) for p in paulis]:
            values = pr.shot_values(o, [circuit], [range(2 ** n)])[0]
            for xi in range(2 ** n):
                x = format(xi, f"0{n}b")
                assert abs(values[xi] - single_shot_dense(o, circuit, x)) < 1e-12
            assert abs(pr.conditional_mean(o, circuit, state)
                       - conditional_mean_dense(o, circuit, state)) < 1e-12

    rng = np.random.default_rng(21)
    x_paulis = 0
    for n in range(1, 6):
        for k in range(7):
            circuit = sample_circuit(EnsembleSpec("homeopathic", n, k=k), rng)
            state = random_stabilizer_tableau(n, rng)
            paulis = [random_pauli(n, rng) for _ in range(3)]
            x_paulis += sum(p.word >> n != 0 for p in paulis)
            check(circuit, state, paulis)
    assert x_paulis > 50
    rng = np.random.default_rng(25)
    for n in range(1, 6):
        for _ in range(3):
            circuit = sample_circuit(EnsembleSpec("haar", n), rng)
            state = random_stabilizer_tableau(n, rng)
            words = ("-" + ("XY" * n)[:n], ("YX" * n)[:n], "-" + ("YZX" * n)[:n])
            check(circuit, state, [random_pauli(n, rng) for _ in range(2)]
                  + [PauliString.from_label(w) for w in words])


def test_haar_evaluators_build_no_dense_observable():
    """At n = 9, with the Haar circuit's unitary already built, making
    ``shot_values`` of 8 shots for the pair projector and for an X-containing
    Pauli allocate under 1 MiB: no 2^n x 2^n observable
    (4 MiB here) is built."""
    n = 9
    rng = np.random.default_rng(9)
    _, pair = pr.stabilizer_pair(n, scramble=cl.sample_uniform(n, rng))
    pauli = pr.ObservableSpec.pauli(PauliString.from_label("-XYZIXYZIX"))
    circuit = sample_circuit(EnsembleSpec("haar", n), rng)
    circuit.dense()
    tracemalloc.start()
    for o in (pair, pauli):
        values = pr.shot_values(o, [circuit], [range(0, 2 ** n, 2 ** n // 8)])
        assert np.isfinite(values).all()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_measure_circuit_dense_branch_chi_square():
    """Non-Clifford shots follow |U psi|^2; outcomes of probability 0 never occur."""
    rng = np.random.default_rng(12)
    state = random_stabilizer_tableau(3, rng)
    shots = 40_000
    for spec in (EnsembleSpec("haar", 3), EnsembleSpec("homeopathic", 3, k=0),
                 EnsembleSpec("homeopathic", 3, k=2)):
        circuit = sample_circuit(spec, rng)
        p = np.abs(circuit_unitary(circuit) @ state.statevector()) ** 2
        outcomes = pr.measure(next(pr.act([circuit], state))[1], shots, rng)
        counts = np.bincount(outcomes, minlength=8)
        live = p > 1e-12
        assert counts[~live].sum() == 0
        _, pval = stats.chisquare(counts[live], shots * p[live] / p[live].sum())
        assert pval > 0.001, spec


def test_acquire_identity_stub_all_zero():
    cfg = pr.RunConfig(EnsembleSpec("identity", 3), 12, 3, 1, seed=1)
    recs = pr.acquire(cfg, StabilizerTableau.zero_state(3))
    assert all(x == "000" for r in recs for x in r.outcomes)
    assert {r.circuit for r in recs} == {"clifford:3:" + cl.CliffordElement.identity(3).to_hex()}
    legacy = SampledCircuit.from_descriptor("identity:3")
    assert legacy.descriptor() == recs[0].circuit


def test_identity_estimate_stays_on_the_tableau_path(monkeypatch):
    def no_dense(self):
        raise AssertionError("dense path reached")
    monkeypatch.setattr(SampledCircuit, "dense", no_dense)
    n = 20
    state, o = pr.stabilizer_pair(n)
    cfg = pr.RunConfig(EnsembleSpec("identity", n), 24, 3, 2, seed=1)
    out = pr.estimate(cfg, state, o)
    assert out["estimate"] == float((2 ** n + 1) * (1 - Fraction(1, 2 ** n)))


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


def test_malformed_record_lines_are_one_line_errors(tmp_path):
    """A record line must be a JSON object with a string circuit and a
    non-empty list of outcomes; a string of outcomes is not a list."""
    desc = sample_circuit(EnsembleSpec("clifford", 1), np.random.default_rng(5)).descriptor()
    good = pr.ShadowRecord.from_json(json.dumps({"circuit": desc, "outcomes": ["0", "1"]}))
    assert good == pr.ShadowRecord(desc, ["0", "1"])
    bad = [json.dumps({"circuit": desc, "outcomes": "0101"}),
           json.dumps({"circuit": desc, "outcomes": []}),
           json.dumps({"circuit": desc}),
           json.dumps({"outcomes": ["0"]}),
           json.dumps({"circuit": 7, "outcomes": ["0"]}),
           json.dumps(["0", "1"]),
           "3"]
    for line in bad:
        with pytest.raises(ValueError) as err:
            pr.ShadowRecord.from_json(line)
        assert "\n" not in str(err.value)
        assert "non-empty list of outcomes" in str(err.value)
    path = tmp_path / "records.jsonl"
    path.write_text(good.to_json() + "\n" + bad[0] + "\n")
    with pytest.raises(ValueError, match="non-empty list of outcomes"):
        pr.read_records(path)


def test_clifford_conditional_means_are_exact_past_the_dense_budget():
    """Clifford circuits at n = 25 and 31, where one 2^n statevector is over the
    dense budget: ``conditional_mean`` and ``estimate_vstar`` give the pair value
    (2^n+1)(2^-d - 2^-n) of the rotated support dimension d, to the bit, and
    allocate nothing near 2^n entries."""
    for n in (25, 31):
        state, o = pr.stabilizer_pair(n)
        spec = EnsembleSpec("clifford", n)
        tracemalloc.start()
        circuits = sample_circuits(spec, [np.random.default_rng(n)] * 3)
        dims = [len(state.apply_clifford(c.element).z_support()[2]) for c in circuits]
        want = [float((2 ** n + 1) * (Fraction(1, 2 ** d) - Fraction(1, 2 ** n))) for d in dims]
        assert [pr.conditional_mean(o, c, state) for c in circuits] == want
        vstar = pr.estimate_vstar(spec, state, o, 3, np.random.default_rng(n))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert vstar == float(np.var(want, ddof=1))
        assert peak < 2 ** 20, (n, peak)     # 2^25 complex entries are 512 MiB


def test_conditional_means_match_dense_oracle():
    """Clifford, identity and Haar circuits at n <= 5 against the dense
    unitary: the projector of the state and of an independent state, and
    random signed Paulis, X-containing ones included."""
    rng = np.random.default_rng(22)
    x_paulis = 0
    for n in range(1, 6):
        for kind in ("clifford", "identity", "haar"):
            for _ in range(6):
                circuit = sample_circuit(EnsembleSpec(kind, n), rng)
                state = random_stabilizer_tableau(n, rng)
                paulis = [random_pauli(n, rng) for _ in range(3)]
                x_paulis += sum(p.word >> n != 0 for p in paulis)
                for o in [pr.ObservableSpec.stabilizer_projector(state),
                          pr.ObservableSpec.stabilizer_projector(
                              random_stabilizer_tableau(n, rng))] + \
                         [pr.ObservableSpec.pauli(p) for p in paulis]:
                    assert abs(pr.conditional_mean(o, circuit, state)
                               - conditional_mean_dense(o, circuit, state)) < 1e-12, (n, kind)
    assert x_paulis > 150


def test_clifford_projector_conditional_means_are_exact():
    """On a Clifford circuit the projector's conditional mean is the float of
    (2^n+1)(2^-dim(V+W) - 2^-n) when the two rotated supports meet, else of
    -(2^n+1) 2^-n, with dim(V+W) the F2 rank of the two rotated X-parts;
    ``z_overlap`` is sum_x p_x q_x of the exact Born probabilities."""
    rng = np.random.default_rng(23)
    met = 0
    for n in range(1, 7):
        d = 2 ** n
        for _ in range(20):
            circuit = sample_circuit(EnsembleSpec("clifford", n), rng)
            state = random_stabilizer_tableau(n, rng)
            for target in (state, random_stabilizer_tableau(n, rng)):
                u, v = (t.apply_clifford(circuit.element) for t in (state, target))
                overlap = sum(u.z_probability(x) * v.z_probability(x) for x in range(d))
                assert u.z_overlap(v) == overlap
                dim = int(f2.rank_f2_batch(np.concatenate([u.rows, v.rows])[None] >> n)[0])
                meet = Fraction(1, 2 ** dim) if overlap else Fraction(0)
                met += bool(overlap)
                o = pr.ObservableSpec.stabilizer_projector(target)
                assert pr.conditional_mean(o, circuit, state) == \
                    float((d + 1) * (meet - Fraction(1, d)))
    assert 120 < met < 240


@pytest.mark.parametrize("kind, k", [("clifford", 0), ("identity", 0), ("homeopathic", 2),
                                     ("haar", 0)])
def test_conditional_means_of_a_list_are_each_circuits_mean(kind, k):
    """``conditional_means`` over a list gives ``conditional_mean`` of each
    circuit, in order, to the bit, for every observable form."""
    rng = np.random.default_rng(24)
    n = 3
    state = random_stabilizer_tableau(n, rng)
    circuits = sample_circuits(EnsembleSpec(kind, n, k=k), [rng] * 5)
    for o in (pr.ObservableSpec.stabilizer_projector(state),
              pr.ObservableSpec.stabilizer_projector(random_stabilizer_tableau(n, rng)),
              pr.ObservableSpec.pauli(PauliString.from_label("-XZY"))):
        got = list(pr.conditional_means(list(circuits), state, o))
        assert got == [pr.conditional_mean(o, c, state) for c in circuits]


def test_estimate_equals_estimate_from_its_records(tmp_path):
    """estimate evaluates the circuits in memory; read-back records give the
    same number, and the file it writes is acquire's records."""
    state, pair = pr.stabilizer_pair(3, scramble=cl.sample_uniform(3, np.random.default_rng(8)))
    pauli = pr.ObservableSpec.pauli(PauliString.from_label("-XZY"))
    for spec, o in ((EnsembleSpec("clifford", 3), pair), (EnsembleSpec("clifford", 3), pauli),
                    (EnsembleSpec("homeopathic", 3, k=1), pair), (EnsembleSpec("haar", 3), pair)):
        cfg = pr.RunConfig(spec, measurements=48, reuse=4, batches=3, seed=31)
        path, path2 = tmp_path / "records.jsonl", tmp_path / "acquired.jsonl"
        with open(path, "w") as records:
            out = pr.estimate(cfg, state, o, records_out=records)
        assert out["estimate"] == pr.median_of_means(pr.record_values(pr.read_records(path), o), 3)
        pr.write_records(pr.acquire(cfg, state), path2)
        assert path.read_bytes() == path2.read_bytes()


def test_estimate_output_and_unbiasedness_n1_exact():
    """Exhaustive n=1: mean single-shot value over (C, x) equals tr(O rho)."""
    rng = np.random.default_rng(2)
    state = random_stabilizer_tableau(1, rng)
    otab = random_stabilizer_tableau(1, rng)
    o = pr.ObservableSpec.stabilizer_projector(otab)
    total = Fraction(0)
    count = 0
    for c in enumerate_group(1):
        values = pr.shot_values(o, [SampledCircuit("clifford", 1, element=c)], [[0, 1]])[0]
        rotated = state.apply_clifford(c)
        for xi in range(2):
            p = rotated.z_probability(xi)
            if p:
                total += p * Fraction(values[xi])     # dyadic, so exact
        count += 1
    # tr(O rho) = |<O|S>|^2 - 1/2, read exactly as |<0|C|O>|^2 for a C with C|S> = |0>
    to_zero = next(c for c in enumerate_group(1) if state.apply_clifford(c).z_probability(0) == 1)
    want = otab.apply_clifford(to_zero).z_probability(0) - Fraction(1, 2)
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
    v = state.statevector()
    rho = np.outer(v, v.conj())
    for label in ("ZI", "IZ", "XX", "ZZ", "YX"):
        o = pr.ObservableSpec.pauli(PauliString.from_label(label))
        values = pr.record_values(records, o)
        est = pr.median_of_means(pr.record_values(records, o), 1)
        truth = float(np.real(np.trace(observable_dense(o) @ rho)))
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert abs(est - truth) < 4 * se + 1e-9, (label, est, truth)


def test_conditional_mean_matches_brute_force():
    rng = np.random.default_rng(4)
    n = 2
    state, o = pr.stabilizer_pair(n, scramble=cl.sample_uniform(n, rng))
    for kind in ("clifford", "haar"):
        circ = sample_circuit(EnsembleSpec(kind, n), rng)
        total = sum(
            float(state.apply_clifford(circ.element).z_probability(x))
            * pr.single_shot(o, circ, format(x, "02b"))
            for x in range(4)) if kind == "clifford" else None
        if kind == "haar":
            u = circ.dense()
            v = state.statevector()
            rho = np.outer(v, v.conj())
            probs = np.real(np.diag(u @ rho @ u.conj().T))
            total = sum(probs[x] * pr.single_shot(o, circ, format(x, "02b"))
                        for x in range(4))
        assert pr.conditional_mean(o, circ, state) == pytest.approx(total, abs=1e-9)


def test_estimate_vstar_identity_ensemble_is_zero():
    rng = np.random.default_rng(5)
    state, o = pr.stabilizer_pair(2)
    v = pr.estimate_vstar(EnsembleSpec("identity", 2), state, o, 50, rng)
    assert v == 0.0
    # a variance needs an int count of at least two circuits
    for circuits, message in ((1, "circuits must be at least 2, got 1"),
                              (3.0, "circuits must be an integer, got 3.0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            pr.estimate_vstar(EnsembleSpec("identity", 2), state, o, circuits, rng)


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
    for c in enumerate_group(n):
        values = pr.shot_values(o, [SampledCircuit("clifford", n, element=c)], [range(d_total)])
        rotated = state.apply_clifford(c)
        dim = len(rotated.z_support()[2])
        collapsed = Fraction(d_total + 1) * (Fraction(1, 2 ** dim) - Fraction(1, d_total))
        for xi in range(d_total):
            if rotated.z_probability(xi):
                assert values[0, xi] == collapsed


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


# ---------------------------------------------------------------------------
# The chunked evaluation path against the per-circuit oracle.

def _oracle_values(o, circuits, outcomes):
    """(B, R) values of the per-circuit oracle, each shot as a float."""
    values = [shot_evaluator(o, c) for c in circuits]
    return np.array([[float(v(x)) for x in row] for v, row in zip(values, outcomes.tolist())])


def _observables(state, n, rng):
    """The state's own projector, another one, an X-containing Pauli, a
    Z-type Pauli and the identity Pauli, by name."""
    x_pauli = PauliString.from_label("-" + "Y" + "XZ"[n % 2] * (n - 1))
    z_pauli = PauliString.from_label("Z" * n)
    return {"own": pr.ObservableSpec.stabilizer_projector(state),
            "other": pr.ObservableSpec.stabilizer_projector(random_stabilizer_tableau(n, rng)),
            "x": pr.ObservableSpec.pauli(x_pauli), "z": pr.ObservableSpec.pauli(z_pauli),
            "identity": pr.ObservableSpec.pauli(PauliString.from_label("I" * n))}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["clifford", "homeopathic1", "homeopathic2", "haar"]),
       observable=st.sampled_from(["own", "other", "x", "z", "identity"]),
       count=st.sampled_from([1, 7, 64]), reuse=st.sampled_from([1, 3, 8]),
       n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_shot_values_equal_the_per_circuit_oracle(kind, observable, count, reuse, n, seed):
    """``shot_values`` on a chunk gives the oracle's floats to the bit, with
    the caller's actions (as ``estimate`` passes them for the state's own
    projector) and without, and its row means are the oracle's ``np.mean``
    of each circuit's list of values."""
    rng = np.random.default_rng(seed)
    spec = EnsembleSpec(kind.rstrip("12"), n, k=int(kind[-1]) if kind[-1].isdigit() else 0)
    state = random_stabilizer_tableau(n, rng)
    o = _observables(state, n, rng)[observable]
    circuits = sample_circuits(spec, [rng] * count)
    outcomes = rng.integers(2 ** n, size=(count, reuse))
    want = _oracle_values(o, circuits, outcomes)
    got = pr.shot_values(o, circuits, outcomes)
    assert got.tobytes() == want.tobytes()
    if observable == "own":
        actions = [a for _, a in pr.act(list(circuits), state)]
        assert pr.shot_values(o, circuits, outcomes, actions).tobytes() == want.tobytes()
    means = [mean_values(o, c, row) for c, row in zip(circuits, outcomes.tolist())]
    assert got.mean(axis=1).tobytes() == np.array(means).tobytes()


def test_record_lines_are_json_dumps():
    """A chunk's record lines are the bytes of ``json.dumps`` of each record
    for every circuit kind, ``to_json`` is the one-record case, and text JSON
    would escape is refused."""
    for spec in (EnsembleSpec("clifford", 3), EnsembleSpec("identity", 3),
                 EnsembleSpec("homeopathic", 3, k=2), EnsembleSpec("haar", 3),
                 EnsembleSpec("clifford", 31)):
        cfg = pr.RunConfig(spec, measurements=70 * 3, reuse=3, batches=1, seed=5)
        state = random_stabilizer_tableau(spec.n, np.random.default_rng(spec.n))
        records = pr.acquire(cfg, state)
        text = pr.record_lines([r.circuit for r in records], [r.outcomes for r in records])
        want = [json.dumps({"circuit": r.circuit, "outcomes": r.outcomes}) for r in records]
        assert text == "".join(line + "\n" for line in want)
        assert [r.to_json() for r in records] == want
    for circuit, outcomes in (('a"b', ["0"]), ("a\\b", ["0"]), ("clifford", ["0\n"]),
                              ("café", ["0"])):
        with pytest.raises(ValueError, match="printable ASCII"):
            pr.ShadowRecord(circuit, outcomes).to_json()


def test_mixed_records_file_replays_to_the_oracle(tmp_path):
    """A records file mixing Clifford, T-gate (k = 1), legacy ``identity:3``
    and Haar lines, and two outcome counts, splits into chunks where the spec
    or the count changes and replays to the oracle's per-record means."""
    n = 3
    rng = np.random.default_rng(31)
    state = random_stabilizer_tableau(n, rng)
    lines = []
    for spec, circuits, reuse in ((EnsembleSpec("clifford", n), 70, 2),
                                  (EnsembleSpec("homeopathic", n, k=1), 3, 2),
                                  (EnsembleSpec("clifford", n), 2, 3),
                                  (EnsembleSpec("haar", n), 2, 2),
                                  (EnsembleSpec("clifford", n), 1, 2)):
        cfg = pr.RunConfig(spec, circuits * reuse, reuse, 1, seed=len(lines))
        lines += [r.to_json() for r in pr.acquire(cfg, state)]
        lines.append(json.dumps({"circuit": "identity:3", "outcomes": ["000", "011"]}))
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join(lines) + "\n")
    records = pr.read_records(path)
    for o in _observables(state, n, rng).values():
        want = [mean_values(o, SampledCircuit.from_descriptor(r.circuit),
                            [int(x, 2) for x in r.outcomes]) for r in records]
        assert pr.record_values(records, o).tobytes() == np.array(want).tobytes()
