import csv
import io
import json
from importlib import resources

import numpy as np
import pytest

from shadowkit import cli
from shadowkit import experiments as ex


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
    ex.validate_config({**estimate, "observable": {"type": "pauli", "label": "-XY"}})


def test_emit_empty_rows_header_only():
    text = ex.emit([], "csv", fields=["a", "b"])
    assert text == "a,b\n"
    row = ex.ResultRow(params={"a": 1, "b": 2.5}, estimate=1.0)
    text = ex.emit([row], "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "a,b,estimate"
    assert lines[1] == "1,2.5,1"


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


def test_cli_bad_config_is_one_line_error(capsys):
    status = cli.main(["estimate", "--kind", "clifford", "--n", "2", "--measurements", "12",
                       "--reuse", "0", "--batches", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == "shadowkit estimate: error: reuse must be at least 1, got 0\n"


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
