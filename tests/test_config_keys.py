import argparse
import copy
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowkit import cli
from shadowkit import experiments as ex


_COMMON = {"-h", "--help", "--config", "--seed", "--out", "--format", "--threads"}
_ENSEMBLE = {"--kind", "--n", "--k"}

FLAGS = {
    "estimate": _COMMON | _ENSEMBLE | {"--measurements", "--reuse", "--batches", "--pauli",
                                       "--records-out"},
    "variance-scan": _COMMON | _ENSEMBLE | {"--measurements", "--reuse-list",
                                            "--vstar-circuits"},
    "homeopathic-scan": _COMMON | {"--n", "--k-list", "--circuits"},
    "moment-table": _COMMON | {"--n-list", "--max-m"},
    "tail-experiment": _COMMON | _ENSEMBLE | {"--samples", "--budget", "--batches"},
    "weingarten": _COMMON | {"--t", "--n", "--group"},
    "optimal-reuse": _COMMON | {"--alpha", "--budget", "--v1", "--vstar", "--k", "--max-reuse"},
}


def test_each_subcommand_keeps_its_flags():
    """The option strings of every subcommand, as the CLI has always had them."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(FLAGS)
    for name, sub in subparsers.choices.items():
        assert {s for a in sub._actions for s in a.option_strings} == FLAGS[name], name


_ESTIMATE = {"ensemble": {"kind": "clifford", "n": 2}, "measurements": 4, "reuse": 2,
             "batches": 1, "seed": 1}
_SCAN = {"ensemble": {"kind": "clifford", "n": 2}, "measurements": 4, "reuse_list": [1, 2],
         "vstar_circuits": 2, "seed": 1}


@pytest.mark.parametrize("experiment, cfg, message", [
    ("tail-experiment", {"ensemble": {"kind": "clifford", "n": 3}, "samples": 100, "budgt": 50,
                         "seed": 1}, "config for 'tail-experiment' has unknown keys ['budgt']"),
    ("estimate", {**_ESTIMATE, "observabel": {"type": "pauli", "label": "ZZ"}},
     "config for 'estimate' has unknown keys ['observabel']"),
    ("estimate", {**_ESTIMATE, "ensemble": {"kind": "clifford", "n": 2, "kk": 3}},
     "ensemble has unknown keys ['kk']"),
    ("estimate", {**_ESTIMATE, "observable": {"type": "pair", "label": "ZZ"}},
     "observable has unknown keys ['label']"),
    ("estimate", {**_ESTIMATE, "observable": {"type": "pauli", "label": "ZZ", "sign": 1}},
     "observable has unknown keys ['sign']"),
    ("variance-scan", {**_SCAN, "records_out": "records.jsonl"},
     "config for 'variance-scan' has unknown keys ['records_out']"),
    ("homeopathic-scan", {"n": 2, "k_list": [0], "circuits": 2, "seed": 1,
                          "ensemble": {"kind": "clifford", "n": 2}},
     "config for 'homeopathic-scan' has unknown keys ['ensemble']"),
    ("moment-table", {"n_list": [2], "max_m": 2, "include_limits": False},
     "config for 'moment-table' has unknown keys ['include_limits']"),
])
def test_unknown_keys_are_refused(capsys, tmp_path, monkeypatch, experiment, cfg, message):
    """A key no table names, at the top or inside the ensemble or the
    observable, is a one-line error and exit status 2, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError) as err:
        ex.validate_config({"schema": 1, "experiment": experiment, **cfg})
    assert str(err.value) == message
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert cli.main([experiment, "--config", "config.json", "--out", "out"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"shadowkit {experiment}: error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def dict_rows(table):
    """A Table's rows as dicts keyed by its columns."""
    return [dict(zip(table.columns, row)) for row in table.rows]


def test_runners_read_the_table_defaults():
    """An absent key reads its table default; optimal-reuse echoes the given k, or 0."""
    rows = dict_rows(ex.run_experiment({"schema": 1, "experiment": "optimal-reuse",
                                        "alpha": 2.0, "v1": 3.0, "k": 40, "max_reuse": 8}))
    assert (rows[0]["k"], rows[0]["budget"], rows[0]["vstar"]) == (40, 1.0, 30.0 * 0.75 ** 40)
    rows = dict_rows(ex.run_experiment({"schema": 1, "experiment": "optimal-reuse",
                                        "alpha": 2.0, "v1": 3.0, "vstar": 0.5}))
    assert (rows[0]["k"], rows[0]["max_reuse"]) == (0, 1024)
    # 0.75**k underflows to 0.0 long before an int k stops converting to a float
    rows = dict_rows(ex.run_experiment({"schema": 1, "experiment": "optimal-reuse",
                                        "alpha": 2.0, "v1": 3.0, "k": 2 ** 1100, "max_reuse": 8}))
    assert (rows[0]["vstar"], rows[0]["best_reuse"]) == (0.0, 8)
    cfg = ex.validate_config({"schema": 1, "experiment": "tail-experiment", "seed": 0,
                              "ensemble": {"kind": "clifford", "n": 3}, "samples": 10_000})
    assert (cfg["budget"], cfg["batches"]) == (10_000, 40)
    cfg = ex.validate_config({"schema": 1, "experiment": "estimate", **_ESTIMATE})
    assert (cfg["observable"], cfg["records_out"]) == ({"type": "pair"}, None)


def test_weingarten_singularity_check_does_not_build_2_to_the_n(capsys, tmp_path):
    """2^n < t is decided from t's bit length: a huge n passes or fails at once."""
    wg = {"schema": 1, "experiment": "weingarten", "t": 4, "group": "unitary"}
    start = time.perf_counter()
    ex.validate_config({**wg, "n": 10 ** 9})
    ex.validate_config({**wg, "n": 10 ** 9, "group": "clifford"})
    out = tmp_path / "wg.csv"
    assert cli.main(["weingarten", "--t", str(10 ** 9 + 2), "--n", str(10 ** 9),
                     "--group", "clifford", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == ("shadowkit weingarten: error: the Gram matrix is singular for "
                            "n = 1000000000 < t - 1 = 1000000001\n")
    for t in range(1, 70):
        for n in range(0, 8):
            assert (n < (t - 1).bit_length()) == (2 ** n < t)


# One small config per experiment naming every key of its table (records_out
# is added under a temporary directory); every size is tiny.
GOOD = {
    "estimate": {**_ESTIMATE, "observable": {"type": "pauli", "label": "ZZ"}},
    "variance-scan": _SCAN,
    "homeopathic-scan": {"n": 2, "k_list": [0, 1], "circuits": 2, "seed": 1},
    "moment-table": {"n_list": [1, 2], "max_m": 2, "include_limit": True, "seed": 1},
    "tail-experiment": {"ensemble": {"kind": "clifford", "n": 2, "k": 0}, "samples": 8,
                        "budget": 4, "batches": 2, "seed": 1},
    "weingarten": {"t": 2, "n": 1, "group": "unitary", "seed": 1},
    "optimal-reuse": {"alpha": 2.0, "budget": 1.0, "v1": 1.0, "vstar": 0.1, "k": 1,
                      "max_reuse": 4, "seed": 1},
}
# wrong types and extreme numbers; no string, so a drawn records_out is never a path
WRONG = [1.5, True, None, [], {}, [1.5], -1, 0, 1e308, -1e308, float("nan"), float("inf")]
STRINGS = ["3", "", "ZQ", "haar", "unitary", "pauli"]


@st.composite
def drawn_configs(draw, records):
    """A GOOD config with one or two keys of it, its ensemble or its
    observable dropped, added, of a wrong type, or at a bound +-1."""
    name = draw(st.sampled_from(sorted(GOOD)))
    cfg = copy.deepcopy(GOOD[name])
    if name == "estimate":
        cfg["records_out"] = records
    table = {key.name: key for key in ex.KEYS[name]}
    for _ in range(draw(st.integers(1, 2))):
        where = draw(st.sampled_from([None] + [k for k in ("ensemble", "observable")
                                               if isinstance(cfg.get(k), dict)]))
        target = cfg if where is None else cfg[where]
        key = draw(st.sampled_from(sorted(target) or ["extra"]))
        op = draw(st.sampled_from(("drop", "unknown", "wrong", "bound")))
        if op == "drop":
            target.pop(key, None)
        elif op == "unknown":
            target["extra"] = draw(st.sampled_from(WRONG))
        elif op == "wrong":
            target[key] = draw(st.sampled_from(WRONG if key == "records_out" else WRONG + STRINGS))
        elif where == "ensemble" and key in ("n", "k"):
            target[key] = {"n": 1, "k": 0}[key] + draw(st.integers(-1, 1))
        elif where is None and key in table and table[key].type in (int, list):
            # k_list has no table bound: its entries are T-gate counts, at least 0
            value = (table[key].low or 0) + draw(st.integers(-1, 1))
            target[key] = [value] if table[key].type is list else value
    return {"schema": 1, "experiment": name, **cfg}


def test_good_configs_name_every_table_key():
    assert set(GOOD) == set(ex.EXPERIMENTS)
    for name, cfg in GOOD.items():
        names = {key.name for key in ex.KEYS[name]} - {"records_out"}
        assert set(cfg) == names, name
        assert ex.run_experiment({"schema": 1, "experiment": name, **cfg})
        for value in WRONG + STRINGS:
            for key in ("schema", "experiment"):
                with pytest.raises(ValueError, match="^unsupported config schema|^unknown exp"):
                    ex.validate_config({"schema": 1, "experiment": name, **cfg, key: value})


@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_drawn_configs_run_or_fail_with_one_line(tmp_path_factory, data):
    """Wrong types, missing keys, unknown keys (top, ensemble, observable) and
    bounds +-1: run_experiment gives a result or a one-line ValueError."""
    records = str(tmp_path_factory.getbasetemp() / "drawn-records.jsonl")
    cfg = data.draw(drawn_configs(records))
    try:
        result = ex.run_experiment(cfg, threads=1)
    except ValueError as exc:
        assert str(exc) and "\n" not in str(exc), cfg
    else:
        assert result, cfg
