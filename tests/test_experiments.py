import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import shadowkit
from shadowkit import cli
from shadowkit import experiments as ex
from shadowkit import protocol as pr
from shadowkit.ensembles import EnsembleSpec


def shipped_configs():
    base = resources.files("shadowkit") / "configs"
    return sorted(p for p in base.iterdir() if p.name.endswith(".json"))


def load_config(path):
    return json.loads(path.read_text())


def test_config_validation_errors():
    with pytest.raises(ValueError):
        ex.validate_config({"schema": 2, "experiment": "moment-table"})
    with pytest.raises(ValueError):
        ex.validate_config({"schema": 1, "experiment": "unknown"})
    with pytest.raises(ValueError):
        ex.validate_config({"schema": 1, "experiment": "estimate",
                            "ensemble": {"kind": "clifford", "n": 2},
                            "measurements": 10, "reuse": 3, "batches": 1, "seed": 0})
    with pytest.raises(ValueError):
        ex.validate_config({"schema": 1, "experiment": "variance-scan",
                            "ensemble": {"kind": "clifford", "n": 2},
                            "measurements": 10, "reuse_list": [3],
                            "vstar_circuits": 10, "seed": 0})
    estimate = {"schema": 1, "experiment": "estimate", "ensemble": {"kind": "clifford", "n": 2},
                "measurements": 12, "reuse": 2, "batches": 2, "seed": 0}
    for key in ("measurements", "reuse", "batches"):
        with pytest.raises(ValueError, match=key):
            ex.validate_config({**estimate, key: 0})
    scan = {"schema": 1, "experiment": "variance-scan", "ensemble": {"kind": "clifford", "n": 2},
            "measurements": 12, "reuse_list": [1, 2], "vstar_circuits": 10, "seed": 0}
    with pytest.raises(ValueError, match="measurements"):
        ex.validate_config({**scan, "measurements": 0})
    with pytest.raises(ValueError, match="reuse_list"):
        ex.validate_config({**scan, "reuse_list": [1, 0]})
    with pytest.raises(ValueError, match="n must be at least 1"):
        ex.validate_config({**estimate, "ensemble": {"kind": "clifford", "n": 0}})
    with pytest.raises(ValueError, match="acts on 2 qubits"):
        ex.validate_config({**estimate, "ensemble": {"kind": "clifford", "n": 3},
                            "observable": {"type": "pauli", "label": "ZZ"}})
    with pytest.raises(ValueError, match="unknown Pauli letter"):
        ex.validate_config({**estimate, "observable": {"type": "pauli", "label": "ZQ"}})
    with pytest.raises(ValueError, match="unknown observable type"):
        ex.validate_config({**estimate, "observable": {"type": "projector"}})
    with pytest.raises(ValueError, match="vstar_circuits must be at least 2"):
        ex.validate_config({**scan, "vstar_circuits": 1})
    # V_R is a sample variance over the measurements // R circuits, too
    ex.validate_config({**scan, "reuse_list": [1, 6]})
    with pytest.raises(ValueError, match=re.escape("measurements // reuse 12 must be at "
                                                   "least 2 circuits, got 1")):
        ex.validate_config({**scan, "reuse_list": [1, 12]})
    tail = {"schema": 1, "experiment": "tail-experiment",
            "ensemble": {"kind": "clifford", "n": 6}, "samples": 10, "budget": 5,
            "batches": 5, "seed": 0}
    for key in ("samples", "budget", "batches"):
        with pytest.raises(ValueError, match=f"{key} must be at least 1"):
            ex.validate_config({**tail, key: 0})
    with pytest.raises(ValueError, match="n <= 31"):
        ex.validate_config({**tail, "ensemble": {"kind": "clifford", "n": 32}})
    # budget % batches is checked before sampling, with the defaults 10,000 and 40
    without = {k: v for k, v in tail.items() if k not in ("budget", "batches")}
    ex.validate_config(without)
    for change, message in (({"batches": 3}, "budget 5 must be a multiple of batches 3"),
                            ({"batches": 10}, "budget 5 must be a multiple of batches 10"),
                            ({"budget": None, "batches": 3}, "budget 10000 must be a multiple of batches 3"),
                            ({"batches": None}, "budget 5 must be a multiple of batches 40")):
        cfg = {**tail, **change}
        cfg = {k: v for k, v in cfg.items() if v is not None}
        with pytest.raises(ValueError, match=message):
            ex.validate_config(cfg)
    homeo = {"schema": 1, "experiment": "homeopathic-scan", "n": 3, "k_list": [0, 1],
             "circuits": 2, "seed": 0}
    ex.validate_config(homeo)
    with pytest.raises(ValueError, match="circuits must be at least 2"):
        ex.validate_config({**homeo, "circuits": 1})
    with pytest.raises(ValueError, match="T-gate count"):
        ex.validate_config({**homeo, "k_list": [0, -1]})
    ex.validate_config({**estimate, "observable": {"type": "pauli", "label": "-XY"}})
    wg = {"schema": 1, "experiment": "weingarten", "t": 4, "n": 3, "group": "clifford"}
    ex.validate_config(wg)
    ex.validate_config({**wg, "t": 6, "n": 5, "group": "unitary"})
    for bad, message in (({"t": 0}, "t must be at least 1, got 0"),
                         ({"t": -1}, "t must be at least 1, got -1"),
                         ({"n": 2}, "singular for n = 2 < t - 1 = 3"),
                         ({"group": "orthogonal"}, "unknown group 'orthogonal'"),
                         ({"t": 5, "n": 5}, "t <= 4"),
                         ({"t": 7, "n": 6, "group": "unitary"}, "over the budget"),
                         ({"t": 40, "n": 39, "group": "unitary"}, "over the budget")):
        with pytest.raises(ValueError, match=re.escape(message)):
            ex.validate_config({**wg, **bad})


def test_emit_csv_columns_follow_first_appearance():
    row = ex.ResultRow(params={"a": 1, "b": 2.5}, estimate=1.0)
    text = ex.emit([row], "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "a,b,estimate"
    assert lines[1] == "1,2.5,1"
    later = ex.ResultRow(params={"c": 3, "a": 2})
    assert ex.emit([row, later], "csv") == "a,b,estimate,c\n1,2.5,1,\n2,,,3\n"


def test_emit_round_trip():
    rows = [ex.ResultRow(params={"n": 2, "m": i}, estimate=float(i) / 3,
                         std_error=0.1, theory=float(i), theory_source="src")
            for i in range(4)]
    text = ex.emit(rows, "csv")
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 4
    for i, rec in enumerate(parsed):
        assert int(rec["n"]) == 2 and int(rec["m"]) == i
        assert float(rec["estimate"]) == float(i) / 3   # 17 digits round-trip
    as_json = json.loads(ex.emit(rows, "json"))
    assert as_json[0]["theory_source"] == "src"


def test_weingarten_rows():
    rows = ex.run_experiment({"schema": 1, "experiment": "weingarten",
                              "t": 4, "n": 3, "group": "clifford"})
    assert len(rows) == 2 * 30 * 30
    flat = rows[0].flat()
    assert flat["matrix"] == "gram" and flat["row"] == "e"
    assert flat["numerator"] == 2 ** 12 and flat["denominator"] == 1
    # weingarten block inverts gram: spot-check the diagonal magnitudes
    wrows = [r.flat() for r in rows if r.flat()["matrix"] == "weingarten"]
    assert len(wrows) == 900


def test_moment_table_rows():
    rows = ex.run_experiment({"schema": 1, "experiment": "moment-table",
                              "n_list": [2], "max_m": 2, "include_limit": True})
    flats = [r.flat() for r in rows]
    finite = [f for f in flats if f["n"] == 2]
    assert [(f["numerator"], f["denominator"]) for f in finite] == \
        [(1, 1), (3, 4), (25, 16)]
    inf_rows = [f for f in flats if f["n"] == "inf"]
    assert [f["numerator"] for f in inf_rows] == [1, 1, 3]


def test_optimal_reuse_row():
    rows = ex.run_experiment({"schema": 1, "experiment": "optimal-reuse",
                              "alpha": 100.0, "v1": 3.0, "vstar": 0.1,
                              "max_reuse": 1000})
    flat = rows[0].flat()
    assert abs(flat["best_reuse"] - flat["heuristic_reuse"]) <= 1.0
    rows = ex.run_experiment({"schema": 1, "experiment": "optimal-reuse",
                              "alpha": 2.0, "v1": 3.0, "k": 40, "max_reuse": 8})
    assert rows[0].flat()["best_reuse"] == 8    # vstar ~ 0 at huge k


def test_variance_scan_theory_within_3se():
    cfg = {"schema": 1, "experiment": "variance-scan",
           "ensemble": {"kind": "clifford", "n": 3, "k": 0},
           "measurements": 24000, "reuse_list": [1, 2, 8],
           "vstar_circuits": 3000, "seed": 11}
    for row in ex.run_experiment(cfg):
        flat = row.flat()
        assert flat["theory_source"] == "var_thrift"
        assert abs(flat["estimate"] - flat["theory"]) <= 3 * flat["std_error"] + 1e-9


def test_homeopathic_scan_below_bound():
    cfg = {"schema": 1, "experiment": "homeopathic-scan",
           "n": 3, "k_list": [0, 2], "circuits": 500, "seed": 13}
    rows = ex.run_experiment(cfg)
    for row in rows:
        flat = row.flat()
        assert flat["theory_source"] == "vstar_bound"
        assert flat["estimate"] <= flat["theory"]


def test_threads_do_not_change_results():
    cfg = {"schema": 1, "experiment": "homeopathic-scan",
           "n": 2, "k_list": [0, 1], "circuits": 700, "seed": 5}
    serial = ex.emit(ex.run_experiment(cfg, threads=1), "csv")
    parallel = ex.emit(ex.run_experiment(cfg, threads=4), "csv")
    assert serial == parallel


def test_chunked_starts_at_most_one_worker_per_chunk(monkeypatch):
    """--threads 64 on two chunks asks the pool for two workers; the fake
    executor records the request and runs the chunks in this process."""
    requested = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(ex, "ProcessPoolExecutor", RecordingExecutor)
    spec = EnsembleSpec("clifford", 3)
    circuits = 2 * ex.CHUNK
    pooled = ex.pair_vstar_samples(spec, 3, circuits, threads=64)
    assert requested == [2]
    assert pooled.tobytes() == ex.pair_vstar_samples(spec, 3, circuits).tobytes()
    ex.pair_vstar_samples(spec, 3, ex.CHUNK, threads=64)
    assert requested == [2]                     # one chunk runs without a pool


@pytest.mark.parametrize("path", shipped_configs(), ids=lambda p: p.name)
def test_shipped_configs_run_and_are_deterministic(path):
    cfg = load_config(path)
    fmt = "json" if cfg["experiment"] in ex.JSON_ONLY else "csv"
    result = ex.run_experiment(dict(cfg))
    first = ex.emit(result, fmt)
    second = ex.emit(ex.run_experiment(dict(cfg)), fmt)
    assert first == second
    assert first.strip()
    # every empirical column with a theory counterpart stays coherent
    if not isinstance(result, dict):
        for row in result:
            flat = row.flat()
            if flat.get("theory_source") == "var_thrift":
                assert abs(flat["estimate"] - flat["theory"]) <= \
                    3 * flat["std_error"] + 1e-9
            elif flat.get("theory_source") == "vstar_bound":
                assert flat["estimate"] <= flat["theory"]


def test_cli_overrides_and_output(tmp_path, capsys):
    out = tmp_path / "table.csv"
    cli.main(["moment-table", "--n-list", "2,3", "--max-m", "2",
              "--out", str(out)])
    text = out.read_text()
    assert text.splitlines()[0] == "n,m,numerator,denominator,float_value"
    rows = list(csv.DictReader(io.StringIO(text)))
    assert {r["n"] for r in rows} == {"2", "3", "inf"}
    cli.main(["optimal-reuse", "--alpha", "4", "--v1", "3", "--vstar", "0",
              "--max-reuse", "16", "--format", "json"])
    captured = capsys.readouterr().out
    assert json.loads(captured)[0]["best_reuse"] == 16


def test_cli_bad_config_is_one_line_error(capsys, tmp_path):
    status = cli.main(["estimate", "--kind", "clifford", "--n", "2", "--measurements", "12",
                       "--reuse", "0", "--batches", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == "shadowkit estimate: error: reuse must be at least 1, got 0\n"
    missing = tmp_path / "missing.json"
    assert cli.main(["estimate", "--config", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"shadowkit estimate: error: [Errno 2] No such file or "
                            f"directory: '{missing}'\n")
    sizes = ["--measurements", "12", "--reuse", "1", "--batches", "1", "--seed", "1"]
    for argv, message in (
            (["estimate"] + sizes, "ensemble is missing ['kind', 'n']"),
            (["estimate", "--kind", "clifford"] + sizes, "ensemble is missing ['n']"),
            (["tail-experiment", "--n", "3", "--samples", "10", "--seed", "1"],
             "ensemble is missing ['kind']"),
            (["estimate", "--kind", "clifford", "--n", "2", "--threads", "0"] + sizes,
             "threads must be at least 1, got 0"),
            (["estimate", "--kind", "clifford", "--n", "2", "--threads", "-3"] + sizes,
             "threads must be at least 1, got -3"),
            (["weingarten", "--t", "-1", "--n", "3", "--group", "unitary"],
             "t must be at least 1, got -1"),
            (["weingarten", "--t", "3", "--n", "1", "--group", "unitary"],
             "the unitary Gram matrix is singular for 2^1 < t = 3"),
            (["weingarten", "--t", "4", "--n", "1", "--group", "unitary"],
             "the unitary Gram matrix is singular for 2^1 < t = 4"),
            (["weingarten", "--t", "4", "--n", "2", "--group", "clifford"],
             "the Gram matrix is singular for n = 2 < t - 1 = 3"),
            (["weingarten", "--t", "7", "--n", "6", "--group", "unitary"],
             "the 5040x5040 Gram matrix at t = 7 needs 25401600 dense entries, "
             "over the budget of 2^24 = 16777216"),
            (["variance-scan", "--kind", "clifford", "--n", "2", "--measurements", "8",
              "--reuse-list", "8", "--vstar-circuits", "4", "--seed", "1"],
             "measurements // reuse 8 must be at least 2 circuits, got 1"),
            (["tail-experiment", "--kind", "clifford", "--n", "3", "--samples", "10",
              "--budget", "5", "--batches", "3", "--seed", "1"],
             "budget 5 must be a multiple of batches 3"),
            (["optimal-reuse", "--alpha", "nan", "--v1", "3", "--vstar", "0.1"],
             "alpha must be finite, got nan"),
            (["optimal-reuse", "--alpha", "inf", "--v1", "3", "--vstar", "0.1"],
             "alpha must be finite, got inf"),
            (["optimal-reuse", "--alpha", "2", "--v1", "nan", "--vstar", "0.1"],
             "v1 must be finite, got nan")):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"shadowkit {argv[0]}: error: {message}\n"


_GOOD_CONFIGS = {
    "estimate": {"ensemble": {"kind": "clifford", "n": 3, "k": 0}, "measurements": 60,
                 "reuse": 3, "batches": 2, "seed": 4},
    "variance-scan": {"ensemble": {"kind": "clifford", "n": 2, "k": 0}, "measurements": 12,
                      "reuse_list": [1, 2], "vstar_circuits": 10, "seed": 0},
    "homeopathic-scan": {"n": 3, "k_list": [0, 1], "circuits": 2, "seed": 0},
    "moment-table": {"n_list": [2], "max_m": 2},
    "tail-experiment": {"ensemble": {"kind": "clifford", "n": 3, "k": 0}, "samples": 100,
                        "budget": 10, "batches": 2, "seed": 0},
    "weingarten": {"t": 2, "n": 2, "group": "clifford"},
    "optimal-reuse": {"alpha": 100.0, "budget": 1e4, "v1": 3.0, "vstar": 0.1, "max_reuse": 10},
}


@pytest.mark.parametrize("experiment, change, message", [
    ("estimate", {"ensemble": {"kind": "clifford", "n": 3.7}},
     "ensemble n must be an integer, got 3.7"),
    ("estimate", {"ensemble": {"kind": "homeopathic", "n": 3, "k": 1.0}},
     "ensemble k must be an integer, got 1.0"),
    ("estimate", {"ensemble": {"kind": "clifford", "n": True}},
     "ensemble n must be an integer, got True"),
    ("estimate", {"seed": True}, "seed must be an integer, got True"),
    ("estimate", {"seed": -1}, "seed must be at least 0, got -1"),
    ("estimate", {"measurements": 60.0}, "measurements must be an integer, got 60.0"),
    ("estimate", {"measurements": "24"}, "measurements must be an integer, got '24'"),
    ("estimate", {"reuse": False}, "reuse must be an integer, got False"),
    ("variance-scan", {"vstar_circuits": 10.0}, "vstar_circuits must be an integer, got 10.0"),
    ("variance-scan", {"reuse_list": "1,2"}, "reuse_list must be a list, got '1,2'"),
    ("variance-scan", {"reuse_list": [1, 2.0]}, "reuse_list entry must be an integer, got 2.0"),
    ("homeopathic-scan", {"k_list": [0, 1.5]}, "ensemble k must be an integer, got 1.5"),
    ("homeopathic-scan", {"n": 3.0}, "n must be an integer, got 3.0"),
    ("homeopathic-scan", {"seed": 1.5}, "seed must be an integer, got 1.5"),
    ("moment-table", {"max_m": 2.0}, "max_m must be an integer, got 2.0"),
    ("moment-table", {"n_list": [True]}, "n_list entry must be an integer, got True"),
    ("tail-experiment", {"samples": 100.5}, "samples must be an integer, got 100.5"),
    ("weingarten", {"n": 2.0}, "n must be an integer, got 2.0"),
    ("weingarten", {"t": True}, "t must be an integer, got True"),
    ("optimal-reuse", {"max_reuse": 10.0}, "max_reuse must be an integer, got 10.0"),
    ("optimal-reuse", {"k": True}, "k must be an integer, got True"),
    ("optimal-reuse", {"alpha": "100"}, "alpha must be a number, got '100'"),
    ("optimal-reuse", {"v1": True}, "v1 must be a number, got True"),
    ("optimal-reuse", {"vstar": "0.1"}, "vstar must be a number, got '0.1'"),
    ("optimal-reuse", {"budget": False}, "budget must be a number, got False"),
    ("optimal-reuse", {"alpha": float("nan")}, "alpha must be finite, got nan"),
    ("optimal-reuse", {"v1": float("inf")}, "v1 must be finite, got inf"),
    ("optimal-reuse", {"vstar": float("-inf")}, "vstar must be finite, got -inf"),
    ("optimal-reuse", {"budget": float("nan")}, "budget must be finite, got nan"),
])
def test_config_numbers_fail_at_the_boundary(capsys, tmp_path, experiment, change, message):
    """A config number of the wrong type is a one-line ValueError and exit
    status 2, before any output file is written."""
    good = {"schema": 1, "experiment": experiment, **_GOOD_CONFIGS[experiment]}
    ex.validate_config(json.loads(json.dumps(good)))
    cfg = {**good, **change}
    with pytest.raises(ValueError) as err:
        ex.validate_config(json.loads(json.dumps(cfg)))
    assert str(err.value) == message
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    extra = ["--records-out", str(tmp_path / "records")] if experiment == "estimate" else []
    assert cli.main([experiment, "--config", str(path), "--out", str(out)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"shadowkit {experiment}: error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "config must be a JSON object, got [1, 2]"),
    ('"estimate"', "config must be a JSON object, got 'estimate'"),
    ('{"ensemble": 3, "measurements": 12, "reuse": 1, "batches": 1}',
     "ensemble must be a JSON object, got 3"),
    ('{"ensemble": ["clifford", 3], "measurements": 12}',
     "ensemble must be a JSON object, got ['clifford', 3]"),
])
def test_cli_config_must_be_an_object(capsys, tmp_path, text, message):
    """A config whose top level or ensemble is not a JSON object is a
    one-line error and exit status 2, before any output file is written."""
    path = tmp_path / "config.json"
    path.write_text(text)
    status = cli.main(["estimate", "--config", str(path), "--out", str(tmp_path / "out"),
                       "--records-out", str(tmp_path / "records")])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == f"shadowkit estimate: error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("argv, message", [
    (["--n-list", "-1", "--max-m", "2"], "n_list entry must be at least 1, got -1"),
    (["--n-list", "0", "--max-m", "2"], "n_list entry must be at least 1, got 0"),
    (["--n-list", "2", "--max-m", "-1"], "max_m must be at least 0, got -1")])
def test_cli_moment_table_bad_sizes_are_one_line_errors(capsys, argv, message):
    assert cli.main(["moment-table"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"shadowkit moment-table: error: {message}\n"


def test_cli_weingarten_unitary_needs_only_2n_at_least_t(tmp_path):
    """The unitary Gram at t = 4 is invertible from n = 2 (2^n >= t), below
    the Clifford threshold n >= t - 1."""
    out = tmp_path / "wg.csv"
    assert cli.main(["weingarten", "--t", "4", "--n", "2", "--group", "unitary",
                     "--out", str(out)]) == 0
    entries = {}
    with open(out) as fh:
        for row in csv.DictReader(fh):
            val = Fraction(int(row["numerator"]), int(row["denominator"]))
            entries[row["matrix"], row["row"], row["col"]] = val
    names = sorted({key[1] for key in entries})
    assert len(names) == 24
    for a in names:
        for b in names:
            total = sum(entries["gram", a, c] * entries["weingarten", c, b] for c in names)
            assert total == (1 if a == b else 0)


def test_cli_refuses_oversized_ensembles_before_allocating(capsys, monkeypatch):
    def no_acquisition(*args):
        raise AssertionError("acquisition started")
    monkeypatch.setattr(pr, "acquire", no_acquisition)
    monkeypatch.setattr(pr, "_circuit_shots", no_acquisition)
    for kind, n in (("haar", "14"), ("clifford", "32")):
        status = cli.main(["estimate", "--kind", kind, "--n", n, "--measurements", "12",
                           "--reuse", "2", "--batches", "2", "--seed", "1"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("shadowkit estimate: error: ")


def test_cli_non_hermitian_pauli_leaves_records_file_alone(capsys, tmp_path):
    records = tmp_path / "f"
    records.write_bytes(b"earlier contents\n")
    status = cli.main(["estimate", "--kind", "clifford", "--n", "3", "--measurements", "8",
                       "--reuse", "2", "--batches", "1", "--seed", "1", "--pauli", "iZZI",
                       "--records-out", str(records)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == "shadowkit estimate: error: Pauli +iZZI is not Hermitian\n"
    assert records.read_bytes() == b"earlier contents\n"


def test_cli_t_gate_estimate_builds_no_dense_clifford(capsys, monkeypatch):
    """T-gate circuits act by Pauli branches: no segment is made dense, for the
    projector and for a Pauli, and n = 14 (past the old unitary cap) runs."""
    from shadowkit.clifford import CliffordElement

    def no_dense(self):
        raise AssertionError("a dense Clifford was built")
    monkeypatch.setattr(CliffordElement, "to_dense", no_dense)
    six = ["--n", "6", "--k", "4", "--measurements", "400", "--reuse", "4"]
    fourteen = ["--n", "14", "--k", "2", "--measurements", "8", "--reuse", "2"]
    for argv in (six, six + ["--pauli", "ZIXYZI"], fourteen, fourteen + ["--pauli", "X" * 14]):
        assert cli.main(["estimate", "--kind", "homeopathic", "--batches", "1", "--seed", "1"]
                        + argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"estimate", "K", "R", "N", "seed"}


def test_cli_config_plus_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema": 1, "experiment": "estimate",
        "ensemble": {"kind": "clifford", "n": 2, "k": 0},
        "measurements": 120, "reuse": 2, "batches": 3, "seed": 1}))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    cli.main(["estimate", "--config", str(cfg_path), "--out", str(out1)])
    cli.main(["estimate", "--config", str(cfg_path), "--seed", "2", "--out", str(out2)])
    a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert a["seed"] == 1 and b["seed"] == 2
    assert set(a) == {"estimate", "K", "R", "N", "seed"}


def test_cli_records_out(tmp_path):
    records = tmp_path / "records.jsonl"
    out = tmp_path / "est.json"
    cli.main(["estimate", "--kind", "clifford", "--n", "2",
              "--measurements", "60", "--reuse", "3", "--batches", "2",
              "--seed", "4", "--records-out", str(records), "--out", str(out)])
    lines = records.read_text().strip().split("\n")
    assert len(lines) == 20
    rec = json.loads(lines[0])
    assert set(rec) == {"circuit", "outcomes"}
    assert len(rec["outcomes"]) == 3
    assert rec["circuit"].startswith("clifford:2:")


def test_weingarten_csv_bytes_are_pinned():
    """Every Gram and Weingarten CSV for t = 1..4, n = t-1..10 and both groups."""
    h = hashlib.sha256()
    for t in (1, 2, 3, 4):
        for n in range(t - 1, 11):
            for group in ("unitary", "clifford"):
                cfg = {"t": t, "n": n, "group": group}
                h.update(ex.emit(ex.run_weingarten(cfg), "csv").encode())
    assert h.hexdigest() == "a1e7d0b6c50981d3b0d9be3d23dad905120df45664c8f24410242bb99457d9a7"


_TINY_RUNS = (
    ["estimate", "--kind", "clifford", "--n", "2", "--measurements", "4", "--reuse", "2",
     "--batches", "1", "--seed", "1"],
    ["variance-scan", "--kind", "clifford", "--n", "2", "--measurements", "4",
     "--reuse-list", "1,2", "--vstar-circuits", "2", "--seed", "1"],
    ["homeopathic-scan", "--n", "2", "--k-list", "0,1", "--circuits", "2", "--seed", "1"],
    ["moment-table", "--n-list", "1,2", "--max-m", "2"],
    ["tail-experiment", "--kind", "clifford", "--n", "2", "--samples", "8", "--budget", "4",
     "--batches", "2", "--seed", "1"],
    ["weingarten", "--t", "2", "--n", "1", "--group", "unitary"],
    ["optimal-reuse", "--alpha", "1", "--v1", "1", "--vstar", "0.1"],
)


def test_every_export_resolves():
    """No name in ``__all__`` outlives the object it exports."""
    assert [name for name in shadowkit.__all__ if not hasattr(shadowkit, name)] == []


def test_cli_import_does_not_load_scipy(tmp_path):
    """numpy is the only runtime dependency: with scipy unimportable, every
    module imports and every subcommand runs."""
    assert sorted(argv[0] for argv in _TINY_RUNS) == sorted(ex.EXPERIMENTS)
    src = str(Path(ex.__file__).resolve().parents[1])
    code = f"""
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import shadowkit
from shadowkit import cli
for mod in pkgutil.iter_modules(shadowkit.__path__):
    importlib.import_module("shadowkit." + mod.name)
for i, argv in enumerate({list(_TINY_RUNS)!r}):
    assert cli.main(argv + ["--out", {str(tmp_path)!r} + f"/{{i}}.out"]) == 0, argv
print("ok")
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "ok\n"
    assert len(list(tmp_path.iterdir())) == len(_TINY_RUNS)
