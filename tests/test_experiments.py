import csv
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import threading
import time
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
    ex.validate_config({**without, "samples": 10_000})
    # a replication is budget samples, so the samples must fill at least one
    ex.validate_config({**tail, "budget": 10})
    for cfg, message in (({**tail, "budget": 50}, "budget 50 must be at most samples 10"),
                         (without, "budget 10000 must be at most samples 10")):
        with pytest.raises(ValueError, match=message):
            ex.validate_config(cfg)
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
    # an empty list would run nothing and write an empty file
    table = {"schema": 1, "experiment": "moment-table", "n_list": [2], "max_m": 2}
    ex.validate_config(table)
    for cfg, key in (({**scan, "reuse_list": []}, "reuse_list"),
                     ({**homeo, "k_list": []}, "k_list"), ({**table, "n_list": []}, "n_list")):
        with pytest.raises(ValueError, match=f"^{key} must not be empty$"):
            ex.validate_config(cfg)
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


def dict_rows(table):
    """A Table's rows as dicts keyed by its columns."""
    return [dict(zip(table.columns, row)) for row in table.rows]


def test_emit_csv_header_digits_and_blank_cells():
    table = ex.Table(("a", "b", "estimate"), [(1, 2.5, 1.0)])
    text = ex.emit(table, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "a,b,estimate"
    assert lines[1] == "1,2.5,1"
    # floats at 17 significant digits; None is a blank cell
    later = ex.Table(("a", "b", "estimate", "c"), [(1, 0.1, 1.0, None), (2, None, None, 3)])
    assert ex.emit(later, "csv") == \
        "a,b,estimate,c\n1,0.10000000000000001,1,\n2,,,3\n"


def test_emit_round_trip():
    rows = [(2, i, float(i) / 3, 0.1, float(i), "src") for i in range(4)]
    table = ex.Table(("n", "m", "estimate", "std_error", "theory", "theory_source"), rows)
    text = ex.emit(table, "csv")
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 4
    for i, rec in enumerate(parsed):
        assert int(rec["n"]) == 2 and int(rec["m"]) == i
        assert float(rec["estimate"]) == float(i) / 3   # 17 digits round-trip
    as_json = json.loads(ex.emit(table, "json"))
    assert as_json[0]["theory_source"] == "src"


def test_weingarten_rows():
    rows = dict_rows(ex.run_experiment({"schema": 1, "experiment": "weingarten",
                                        "t": 4, "n": 3, "group": "clifford"}))
    assert len(rows) == 2 * 30 * 30
    assert rows[0]["matrix"] == "gram" and rows[0]["row"] == "e"
    assert rows[0]["numerator"] == 2 ** 12 and rows[0]["denominator"] == 1
    # weingarten block inverts gram: spot-check the diagonal magnitudes
    wrows = [r for r in rows if r["matrix"] == "weingarten"]
    assert len(wrows) == 900


def test_moment_table_rows():
    rows = dict_rows(ex.run_experiment({"schema": 1, "experiment": "moment-table",
                                        "n_list": [2], "max_m": 2, "include_limit": True}))
    finite = [f for f in rows if f["n"] == 2]
    assert [(f["numerator"], f["denominator"]) for f in finite] == \
        [(1, 1), (3, 4), (25, 16)]
    inf_rows = [f for f in rows if f["n"] == "inf"]
    assert [f["numerator"] for f in inf_rows] == [1, 1, 3]


def test_optimal_reuse_row():
    rows = dict_rows(ex.run_experiment({"schema": 1, "experiment": "optimal-reuse",
                                        "alpha": 100.0, "v1": 3.0, "vstar": 0.1,
                                        "max_reuse": 1000}))
    assert abs(rows[0]["best_reuse"] - rows[0]["heuristic_reuse"]) <= 1.0
    rows = dict_rows(ex.run_experiment({"schema": 1, "experiment": "optimal-reuse",
                                        "alpha": 2.0, "v1": 3.0, "k": 40, "max_reuse": 8}))
    assert rows[0]["best_reuse"] == 8    # vstar ~ 0 at huge k


def test_variance_scan_theory_within_3se():
    cfg = {"schema": 1, "experiment": "variance-scan",
           "ensemble": {"kind": "clifford", "n": 3, "k": 0},
           "measurements": 24000, "reuse_list": [1, 2, 8],
           "vstar_circuits": 3000, "seed": 11}
    for row in dict_rows(ex.run_experiment(cfg)):
        assert row["theory_source"] == "var_thrift"
        assert abs(row["estimate"] - row["theory"]) <= 3 * row["std_error"] + 1e-9


def test_homeopathic_scan_below_bound():
    cfg = {"schema": 1, "experiment": "homeopathic-scan",
           "n": 3, "k_list": [0, 2], "circuits": 500, "seed": 13}
    rows = dict_rows(ex.run_experiment(cfg))
    for row in rows:
        assert row["theory_source"] == "vstar_bound"
        assert row["estimate"] <= row["theory"]


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
    result = ex.run_experiment(dict(cfg))
    if not isinstance(result, dict):  # rows are read twice below
        result = ex.Table(result.columns, list(result.rows))
    first = ex.emit(result, "csv")
    second = ex.emit(ex.run_experiment(dict(cfg)), "csv")
    assert first == second
    assert first.strip()
    # every empirical column with a theory counterpart stays coherent
    if not isinstance(result, dict):
        for row in dict_rows(result):
            if row.get("theory_source") == "var_thrift":
                assert abs(row["estimate"] - row["theory"]) <= \
                    3 * row["std_error"] + 1e-9
            elif row.get("theory_source") == "vstar_bound":
                assert row["estimate"] <= row["theory"]


# sha256 of `shadowkit <experiment> --config <file> --format csv|json --threads 1` on
# stdout, for each shipped config; estimate and tail-experiment give a dict, JSON in both
_SHIPPED_DIGESTS = {
    "estimate_clifford.json": (
        "b5380dccf379b90f7ff72df0c20a332b9fb73e17ac9ff4556d8ace70e87cc01c",
        "b5380dccf379b90f7ff72df0c20a332b9fb73e17ac9ff4556d8ace70e87cc01c"),
    "homeopathic_scan.json": (
        "eac8ae78c7201860efeb98931cddde393efd51fc981e95037f7e11693be3b305",
        "f99949a1585cf7b937dfd57a3f39568cfd2376803d333c3a6a7d3b7272e777a7"),
    "moment_table.json": (
        "bbf92123249a40d49c12a33da919bad8e38b6a827502cd3d909ea463d5490797",
        "e2d09873d6d4843161814fb50a9c46db4bc2abbb349451e4ae3a44c6cdfce7c9"),
    "optimal_reuse.json": (
        "88cb67668fee761c86276cdc2820edb47ce7307bf49909966228722e1250434b",
        "0a8d76c8392f603ef0ad88f0c2c50cff8a34747dadb3898389068431825629c6"),
    "tail_experiment.json": (
        "6373a84340db5248a69ac134babbf0ddbc2e22dc2d745fb2bc6f48b10c7020a9",
        "6373a84340db5248a69ac134babbf0ddbc2e22dc2d745fb2bc6f48b10c7020a9"),
    "variance_scan_clifford.json": (
        "a55c6e7cce75e09edda662f0798a03596194312b497a0bf7632038032fec7714",
        "2f56b8fb762e519880a998137421a08d81f7828e046656832f3899b3f1803c9f"),
    "variance_scan_haar.json": (
        "fa0a1bdc8d18b11ee65bbbbc28ef61ce7106f93d23a6ce949e6c7e76887ac121",
        "63d1b35c47387e67808033aeb089003dbe1a6c7d0297095b92f1a8afa3db0176"),
    "weingarten_t4.json": (
        "ead6c59cabdbb244ecbeff238e48b0b5431442f238ad47b78843e09014d493c7",
        "030ba585f379669d8d5d51dd28709085d3bdf2e675dfb771060d3c3fde7c3e46"),
}


@pytest.mark.parametrize("path", shipped_configs(), ids=lambda p: p.name)
def test_shipped_config_bytes_are_pinned(path, capsys):
    experiment = load_config(path)["experiment"]
    for fmt, digest in zip(("csv", "json"), _SHIPPED_DIGESTS[path.name]):
        assert cli.main([experiment, "--config", str(path), "--format", fmt,
                         "--threads", "1"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, fmt


def test_weingarten_json_bytes_are_pinned(capsys):
    """Every Gram and Weingarten JSON for t = 1..3, n = t-1..10 and both groups."""
    h = hashlib.sha256()
    for t in (1, 2, 3):
        for n in range(t - 1, 11):
            for group in ("unitary", "clifford"):
                assert cli.main(["weingarten", "--t", str(t), "--n", str(n), "--group", group,
                                 "--format", "json"]) == 0
                h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == "45a972858865a47d09abd38411a38a287e8b285589fce1d822e2cc6af28088d9"


def _failing_weingarten(monkeypatch):
    """Make weingarten's rows raise after 100 of them."""
    run = ex.run_weingarten

    def failing(cfg, threads=1):
        table = run(cfg, threads)

        def rows():
            for i, row in enumerate(table.rows):
                if i == 100:
                    raise ValueError("row 100 failed")
                yield row

        return ex.Table(table.columns, rows())

    monkeypatch.setitem(ex._RUNNERS, "weingarten", failing)
    return ["weingarten", "--t", "4", "--n", "3", "--group", "clifford"], "row 100 failed"


def _digit_limit(monkeypatch):
    """moment-table's m = 2 value at n = 5000, past the int-to-string limit."""
    limit = sys.get_int_max_str_digits()
    return (["moment-table", "--n-list", "5000", "--max-m", "2"],
            f"an exact value has more than {limit} digits, the interpreter's "
            "int-to-string limit; use a smaller n")


@pytest.mark.parametrize("failure", [_digit_limit, _failing_weingarten])
def test_failed_output_writes_no_byte(capsys, tmp_path, monkeypatch, failure):
    """A run that fails while rows are written leaves no --out file and no
    temporary sibling, keeps a file already at --out byte for byte, and
    writes nothing to stdout."""
    argv, message = failure(monkeypatch)
    out = tmp_path / "F"
    for before in (None, b"old bytes\n"):
        if before is not None:
            out.write_bytes(before)
        assert cli.main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"shadowkit {argv[0]}: error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["F"])
        if before is not None:
            assert out.read_bytes() == before
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"shadowkit {argv[0]}: error: {message}\n"


def test_out_writes_devices_and_fifos_in_place(capsys, tmp_path):
    """--out a device, a FIFO or /dev/stdout on a pipe writes to it and leaves
    the node as it was; a replaced regular file keeps its permission bits;
    a missing directory is named by the path asked for."""
    argv = ["moment-table", "--n-list", "2,3", "--max-m", "3"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    assert cli.main(argv + ["--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert cli.main(argv + ["--out", str(fifo)]) == 0
    reader.join(30)
    assert got == [want] and stat.S_ISFIFO(os.stat(fifo).st_mode)
    src = str(Path(ex.__file__).resolve().parents[1])
    piped = subprocess.run([sys.executable, "-m", "shadowkit.cli", *argv, "--out", "/dev/stdout"],
                           capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, want, "")
    out = tmp_path / "F"
    out.write_text("old bytes\n")
    out.chmod(0o640)
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == want and stat.S_IMODE(out.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "fifo"]
    missing = tmp_path / "missing" / "F"
    assert cli.main(argv + ["--out", str(missing)]) == 2
    assert capsys.readouterr().err == ("shadowkit moment-table: error: [Errno 2] No such file "
                                       f"or directory: '{missing}'\n")


def test_one_parser_serves_every_call(capsys):
    """One process builds one parser, and no flag value of a call reaches the
    next: each call gives the bytes of a run on a newly built parser."""
    runs = (["weingarten", "--t", "2", "--n", "1", "--group", "unitary", "--format", "json"],
            ["moment-table", "--n-list", "1,2", "--max-m", "2"],
            ["weingarten", "--t", "3", "--n", "2", "--group", "clifford"],
            ["estimate", "--kind", "clifford", "--n", "2", "--measurements", "4",
             "--reuse", "2", "--batches", "1", "--seed", "1"])
    shared = []
    for argv in runs:
        assert cli.main(argv) == 0
        shared.append(capsys.readouterr().out)
    assert cli.build_parser() is cli.build_parser()
    for argv, text in zip(runs, shared):
        cli.build_parser.cache_clear()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == text, argv


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
    limit = sys.get_int_max_str_digits()
    digits = (f"an exact value has more than {limit} digits, the interpreter's "
              "int-to-string limit; use a smaller n")
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
             "the 5040x5040 label-pair orbital table at t = 7 needs 25401600 dense entries, "
             "over the budget of 2^24 = 16777216"),
            (["variance-scan", "--kind", "clifford", "--n", "2", "--measurements", "8",
              "--reuse-list", "8", "--vstar-circuits", "4", "--seed", "1"],
             "measurements // reuse 8 must be at least 2 circuits, got 1"),
            (["tail-experiment", "--kind", "clifford", "--n", "3", "--samples", "10",
              "--budget", "5", "--batches", "3", "--seed", "1"],
             "budget 5 must be a multiple of batches 3"),
            (["tail-experiment", "--kind", "clifford", "--n", "3", "--samples", "10",
              "--budget", "50", "--batches", "5", "--seed", "1"],
             "budget 50 must be at most samples 10"),
            (["optimal-reuse", "--alpha", "nan", "--v1", "3", "--vstar", "0.1"],
             "alpha must be finite, got nan"),
            (["optimal-reuse", "--alpha", "inf", "--v1", "3", "--vstar", "0.1"],
             "alpha must be finite, got inf"),
            (["optimal-reuse", "--alpha", "2", "--v1", "nan", "--vstar", "0.1"],
             "v1 must be finite, got nan"),
            (["optimal-reuse", "--alpha", "1e308", "--v1", "1e308", "--vstar", "0.1"],
             "objective / budget = inf / 1.0 at R = 1 overflows a float"),
            (["optimal-reuse", "--alpha", "1", "--v1", "1", "--vstar", "0", "--budget", "1e-320"],
             "objective / budget = 1.0 / 1e-320 at R = 1 overflows a float"),
            (["variance-scan", "--kind", "clifford", "--n", "2", "--measurements", "4",
              "--reuse-list", "1,x", "--vstar-circuits", "2", "--seed", "1"],
             "reuse_list entry must be an integer, got 'x'"),
            (["moment-table", "--n-list", "2,,3", "--max-m", "2"],
             "n_list entry must be an integer, got ''"),
            (["homeopathic-scan", "--n", "2", "--k-list", "0,1.5", "--circuits", "2", "--seed", "1"],
             "ensemble k must be an integer, got '1.5'"),
            (["weingarten", "--t", "2", "--n", "8000", "--group", "unitary",
              "--out", str(tmp_path / "wg.csv")], digits),
            (["moment-table", "--n-list", "5000", "--max-m", "2", "--format", "json"],
             digits),
            (["optimal-reuse", "--alpha", "1e300", "--v1", "1e10", "--vstar", "1e-300",
              "--format", "json"],
             "heuristic_reuse sqrt((alpha - 1)(v1 - vstar) / vstar) at alpha = 1e+300, "
             "v1 = 10000000000.0, vstar = 1e-300 overflows a float"),
            # refused from n or t alone, before 2^n or t! is built
            (["homeopathic-scan", "--n", "100000000", "--k-list", "0", "--circuits", "2",
              "--seed", "1"],
             "a T-gate statevector on 100000000 qubits needs 2^100000000 dense entries, "
             "over the budget of 2^24 = 16777216"),
            (["weingarten", "--t", "100000", "--n", "17", "--group", "unitary"],
             "the 100000!x100000! label-pair orbital table at t = 100000 needs (100000!)^2 "
             "dense entries, over the budget of 2^24 = 16777216")):
        start = time.perf_counter()
        assert cli.main(argv) == 2
        assert time.perf_counter() - start < 1.0, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"shadowkit {argv[0]}: error: {message}\n"
    assert not (tmp_path / "wg.csv").exists()
    assert sys.get_int_max_str_digits() == limit
    # --records-out and --out naming one file, also through a symlink, would
    # lose the records: refused, and nothing is written
    same, link = tmp_path / "same.txt", tmp_path / "link.txt"
    link.symlink_to(same)
    small = ["estimate", "--kind", "clifford", "--n", "3", "--measurements", "8", "--reuse", "2",
             "--batches", "1", "--seed", "1", "--out", str(same)]
    for records in (same, link):
        assert cli.main(small + ["--records-out", str(records)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not same.exists()
        assert captured.err == (f"shadowkit estimate: error: --records-out and --out name the "
                                f"same file {str(same)!r}\n")
    # a malformed estimate observable, which only a config file can give
    estimate = {"ensemble": {"kind": "clifford", "n": 3}, "measurements": 12, "reuse": 1,
                "batches": 1, "seed": 1}
    path = tmp_path / "observable.json"
    for observable, message in (
            ("pauli", "observable must be a JSON object, got 'pauli'"),
            ({"label": "ZZZ"}, "observable is missing ['type']"),
            ({"type": "pauli"}, "a Pauli observable needs a string label, got None"),
            ({"type": "pauli", "label": 5}, "a Pauli observable needs a string label, got 5")):
        path.write_text(json.dumps({**estimate, "observable": observable}))
        assert cli.main(["estimate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"shadowkit estimate: error: {message}\n"
    # records_out must be a path: open() would take an int as a file descriptor
    # (1 and true are stdout), write the records there and close it
    out = tmp_path / "estimate.json"
    for records_out in (1, True, 5, ["records.jsonl"]):
        path.write_text(json.dumps({**estimate, "records_out": records_out}))
        assert cli.main(["estimate", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (f"shadowkit estimate: error: records_out must be a path "
                                f"string, got {records_out!r}\n")


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
    ("moment-table", {"include_limit": "no"}, "include_limit must be true or false, got 'no'"),
    ("moment-table", {"include_limit": 0}, "include_limit must be true or false, got 0"),
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


def test_weingarten_refuses_past_the_digit_limit_before_arithmetic(capsys, tmp_path):
    """The Gram diagonal 2^(t n) is written: at t = 1 the largest n whose 2^n
    has at most the limit's digits runs, and the next n, like t = 2 at
    n = 10^6, is refused at once with emit's message and no file."""
    limit = sys.get_int_max_str_digits()
    n = (10 ** limit).bit_length() - 1
    assert len(str(2 ** n)) == limit and 2 ** (n + 1) >= 10 ** limit
    out = tmp_path / "wg.csv"
    assert cli.main(["weingarten", "--t", "1", "--n", str(n), "--group", "unitary",
                     "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [len(row["numerator"]) for row in rows if row["matrix"] == "gram"] == [limit]
    out.unlink()
    for t, big in ((1, n + 1), (2, 10 ** 6)):
        start = time.perf_counter()
        assert cli.main(["weingarten", "--t", str(t), "--n", str(big), "--group", "unitary",
                         "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err == (f"shadowkit weingarten: error: an exact value has more than "
                                f"{limit} digits, the interpreter's int-to-string limit; "
                                "use a smaller n\n")
        assert not out.exists()


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


def test_cli_t_gate_estimate_builds_no_dense_clifford(capsys):
    """T-gate circuits act by Pauli branches: a Clifford element has no dense
    form to build, and the projector and a Pauli run at n = 6 and at n = 14
    (past the old unitary cap)."""
    from shadowkit.clifford import CliffordElement

    assert not [name for name in dir(CliffordElement) if "dense" in name]
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


def test_failed_estimate_leaves_no_records_file(monkeypatch, tmp_path):
    """The records file is written all or nothing: a failure at circuit 100 of
    500 leaves no file and no temporary sibling, and a file that was already
    there keeps its bytes."""
    records = pr._records
    argv = ["estimate", "--kind", "clifford", "--n", "3", "--measurements", "1000", "--reuse",
            "2", "--batches", "1", "--seed", "1", "--records-out", str(tmp_path / "records")]
    for before in (None, b"earlier contents\n"):
        if before is not None:
            (tmp_path / "records").write_bytes(before)
        written = []

        # records are formatted a chunk of circuits at a time: fail on the chunk holding 100
        def failing(circuits, outcomes):
            written.extend(circuits)
            if len(written) > 100:
                raise RuntimeError("failed at circuit 100")
            return records(circuits, outcomes)
        monkeypatch.setattr(pr, "_records", failing)
        with pytest.raises(RuntimeError, match="circuit 100"):
            cli.main(argv)
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if before is None else ["records"])
        if before is not None:
            assert (tmp_path / "records").read_bytes() == before


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


def test_readme_example_runs_and_tour_names_every_export(capsys):
    """The README's Python block runs as written and prints what its comments
    say, and the library tour names every ``__all__`` entry."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[0].startswith("{'estimate': ")
    assert "'K': 10" in lines[0]
    assert [Fraction(line) for line in lines[1:]] == [
        shadowkit.clifford_moment(4, 2), shadowkit.weingarten_matrix(4, 4, "clifford")[0, 0]]
    assert [name for name in shadowkit.__all__ if f"`{name}`" not in text] == []


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
