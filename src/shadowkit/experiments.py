"""Experiment registry: reproducible runs, theory columns, CSV/JSON emission.

Configs are JSON objects with a ``schema`` version, an ``experiment`` name
and per-experiment parameters; every stochastic experiment owes its entire
transcript to (config, seed).  Circuit loops are split into fixed-size
chunks, each driven by a substream derived from (seed, chunk index), so
results are byte-identical for any ``--threads`` setting.
"""

import csv
import functools
import io
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

from . import dense
from . import moments as mo
from . import tails as tl
from .ensembles import EnsembleSpec, substream
from .protocol import ObservableSpec, RunConfig, estimate, stabilizer_pair
from .stabilizer import PauliString

SCHEMA_VERSION = 1
CHUNK = 512

EXPERIMENTS = ("estimate", "variance-scan", "homeopathic-scan", "moment-table",
               "tail-experiment", "weingarten", "optimal-reuse")


# tail-experiment's replication size and batch count when a config omits them
_TAIL_DEFAULTS = {"budget": 10_000, "batches": 40}


def _require(cfg, *keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ValueError(f"config for {cfg.get('experiment')!r} is missing {missing}")


def _require_at_least(name, value, low=1):
    """An int (not a bool) of at least ``low``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _require_number(name, value):
    """A finite int or float, not a bool or a string (argparse floats and JSON
    both let nan and +-inf through)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_list(name, value):
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    if not value:
        raise ValueError(f"{name} must not be empty")


def _validate_observable(o_cfg, n):
    if not isinstance(o_cfg, dict):
        raise ValueError(f"observable must be a JSON object, got {o_cfg!r:.80}")
    if "type" not in o_cfg:
        raise ValueError("observable is missing ['type']")
    if o_cfg["type"] == "pauli":
        label = o_cfg.get("label")
        if not isinstance(label, str):
            raise ValueError(f"a Pauli observable needs a string label, got {label!r:.80}")
        # refuses a non-Hermitian label before any output file is opened
        size = ObservableSpec.pauli(PauliString.from_label(label)).n
        if size != n:
            raise ValueError(f"Pauli label {label!r} acts on {size} qubits, "
                             f"the ensemble on {n}")
    elif o_cfg["type"] != "pair":
        raise ValueError(f"unknown observable type {o_cfg['type']!r}")


def validate_config(cfg):
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema {cfg.get('schema')!r}")
    name = cfg.get("experiment")
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    if name == "estimate":
        _require(cfg, "ensemble", "measurements", "reuse", "batches", "seed")
        for key in ("measurements", "reuse", "batches"):
            _require_at_least(key, cfg[key])
        if cfg["measurements"] % (cfg["reuse"] * cfg["batches"]):
            raise ValueError("measurements must be a multiple of reuse*batches")
        _validate_observable(cfg.get("observable", {"type": "pair"}),
                             EnsembleSpec.from_json(cfg["ensemble"]).n)
        # open() also takes an int, as a file descriptor to write and close
        if not isinstance(cfg.get("records_out", ""), str):
            raise ValueError(f"records_out must be a path string, got {cfg['records_out']!r:.80}")
    elif name == "variance-scan":
        _require(cfg, "ensemble", "measurements", "reuse_list", "vstar_circuits", "seed")
        EnsembleSpec.from_json(cfg["ensemble"])
        _require_at_least("measurements", cfg["measurements"])
        # V* is a sample variance over circuits, so it needs two of them
        _require_at_least("vstar_circuits", cfg["vstar_circuits"], 2)
        _require_list("reuse_list", cfg["reuse_list"])
        for r in cfg["reuse_list"]:
            _require_at_least("reuse_list entry", r)
            if cfg["measurements"] % r:
                raise ValueError(f"measurements not divisible by reuse {r}")
            # so is V_R, over the measurements // r circuits
            if cfg["measurements"] // r < 2:
                raise ValueError(f"measurements // reuse {r} must be at least 2 circuits, "
                                 f"got {cfg['measurements'] // r}")
    elif name == "homeopathic-scan":
        _require(cfg, "n", "k_list", "circuits", "seed")
        _require_at_least("n", cfg["n"])
        _require_list("k_list", cfg["k_list"])
        for k in cfg["k_list"]:
            EnsembleSpec("homeopathic", cfg["n"], k=k)
        _require_at_least("circuits", cfg["circuits"], 2)
    elif name == "moment-table":
        _require(cfg, "n_list", "max_m")
        _require_list("n_list", cfg["n_list"])
        for n in cfg["n_list"]:
            _require_at_least("n_list entry", n)
        _require_at_least("max_m", cfg["max_m"], 0)
        if not isinstance(cfg.get("include_limit", True), bool):
            raise ValueError(f"include_limit must be true or false, got "
                             f"{cfg['include_limit']!r:.80}")
    elif name == "tail-experiment":
        _require(cfg, "ensemble", "samples", "seed")
        EnsembleSpec.from_json(cfg["ensemble"])
        for key in ("samples", "budget", "batches"):
            if key in cfg:
                _require_at_least(key, cfg[key])
        tl.check_replications(cfg["samples"], **{key: cfg.get(key, default)
                                                 for key, default in _TAIL_DEFAULTS.items()})
    elif name == "weingarten":
        _require(cfg, "t", "n", "group")
        t, n, group = cfg["t"], cfg["n"], cfg["group"]
        _require_at_least("t", t)
        _require_at_least("n", n, 0)
        # the t! permutations are independent iff 2^n >= t; the Clifford
        # commutant needs n >= t - 1
        if group == "unitary" and 2 ** n < t:
            raise ValueError(f"the unitary Gram matrix is singular for 2^{n} < t = {t}")
        if group == "clifford" and n < t - 1:
            raise ValueError(f"the Gram matrix is singular for n = {n} < t - 1 = {t - 1}")
        size = mo.commutant_size(t, group)
        dense.check_entries(size ** 2, f"the {size}x{size} Gram matrix at t = {t}")
    elif name == "optimal-reuse":
        _require(cfg, "alpha", "v1")
        if "vstar" not in cfg and "k" not in cfg:
            raise ValueError("optimal-reuse needs either vstar or a T-gate count k")
        for key in ("alpha", "v1", "vstar", "budget"):
            if key in cfg:
                _require_number(key, cfg[key])
        for key, low in (("k", 0), ("max_reuse", 1)):
            if key in cfg:
                _require_at_least(key, cfg[key], low)
    if "seed" in cfg:
        _require_at_least("seed", cfg["seed"], 0)
    return cfg


# ---------------------------------------------------------------------------
# Chunked sampling over worker processes (top level so it pickles).

def _chunk(task):
    sampler, spec, seed, chunk_id, count = task
    return sampler(spec, substream(seed, chunk_id), count)


def _chunked(sampler, spec, seed, circuits, threads):
    """sampler(spec, rng, count) over CHUNK-sized chunks, each on its own
    substream, concatenated in chunk order whatever the thread count."""
    tasks = [(sampler, spec, seed, i, min(CHUNK, circuits - i * CHUNK))
             for i in range((circuits + CHUNK - 1) // CHUNK)]
    # one worker per chunk at most: under fork the pool starts every worker at once
    workers = min(threads, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_chunk, tasks))
    else:
        parts = [_chunk(t) for t in tasks]
    return np.concatenate(parts)


def pair_vstar_samples(spec, seed, circuits, threads=1):
    return _chunked(tl.pair_conditional_means, spec, seed, circuits, threads)


def pair_xr_samples(spec, seed, circuits, reuse, threads=1):
    sampler = functools.partial(tl.sample_pair_xvalues, reuse=reuse)
    return _chunked(sampler, spec, seed, circuits, threads)


# ---------------------------------------------------------------------------
# Experiment implementations.

def run_estimate(cfg, threads=1):
    spec = EnsembleSpec.from_json(cfg["ensemble"])
    run = RunConfig(ensemble=spec, measurements=cfg["measurements"],
                    reuse=cfg["reuse"], batches=cfg["batches"], seed=cfg["seed"])
    state, obs = stabilizer_pair(spec.n)
    o_cfg = cfg.get("observable", {"type": "pair"})
    if o_cfg["type"] == "pauli":
        obs = ObservableSpec.pauli(PauliString.from_label(o_cfg["label"]))
    return estimate(run, state, obs, records_out=cfg.get("records_out"))


def run_variance_scan(cfg, threads=1):
    spec = EnsembleSpec.from_json(cfg["ensemble"])
    n = spec.n
    seed = cfg["seed"]
    v1 = float(mo.stabilizer_pair_variance(n))
    vstar_vals = pair_vstar_samples(spec, seed + 1, cfg["vstar_circuits"], threads)
    vstar, vstar_se = tl.variance_of_sample_variance(vstar_vals)
    rows = []
    for reuse in cfg["reuse_list"]:
        circuits = cfg["measurements"] // reuse
        xr = pair_xr_samples(spec, seed, circuits, reuse, threads)
        vr, vr_se = tl.variance_of_sample_variance(xr)
        pred = mo.thrifty_variance_predict(v1, vstar, reuse)
        pred_se = (reuse - 1) / reuse * vstar_se
        rows.append({"experiment": "variance-scan", "kind": spec.kind, "n": n,
                     "k": spec.k, "R": reuse, "N": cfg["measurements"],
                     "circuits": circuits, "v1_exact": v1,
                     "vstar": vstar, "vstar_se": vstar_se,
                     "estimate": vr, "std_error": float(np.hypot(vr_se, pred_se)),
                     "theory": pred, "theory_source": "var_thrift"})
    return rows


def run_homeopathic_scan(cfg, threads=1):
    n = cfg["n"]
    seed = cfg["seed"]
    tr_o2 = float(Fraction(2 ** n - 1, 2 ** n))
    rows = []
    for k in cfg["k_list"]:
        spec = EnsembleSpec("homeopathic", n, k=k)
        vals = pair_vstar_samples(spec, seed + k, cfg["circuits"], threads)
        vstar, se = tl.variance_of_sample_variance(vals)
        bound = mo.vstar_interpolation_bound(tr_o2, k, n)
        rows.append({"experiment": "homeopathic-scan", "kind": "homeopathic",
                     "n": n, "k": k, "circuits": cfg["circuits"], "tr_o2": tr_o2,
                     "estimate": vstar, "std_error": se,
                     "theory": bound, "theory_source": "vstar_bound"})
    return rows


def run_moment_table(cfg, threads=1):
    rows = []
    max_m = cfg["max_m"]
    for n in cfg["n_list"]:
        for m in range(max_m + 1):
            val = tl.clifford_moment(n, m)
            rows.append({"n": n, "m": m, "numerator": val.numerator,
                         "denominator": val.denominator, "float_value": float(val)})
    if cfg.get("include_limit", True):
        for m in range(max_m + 1):
            val = tl.limiting_moment(m)
            rows.append({"n": "inf", "m": m, "numerator": val.numerator,
                         "denominator": val.denominator, "float_value": float(val)})
    return rows


def run_tail_experiment(cfg, threads=1):
    spec = EnsembleSpec.from_json(cfg["ensemble"])
    rng = substream(cfg["seed"], 0)
    sizes = {key: cfg.get(key, default) for key, default in _TAIL_DEFAULTS.items()}
    return tl.tail_experiment(spec, cfg["samples"], rng, **sizes)


def run_weingarten(cfg, threads=1):
    t, n, group = cfg["t"], cfg["n"], cfg["group"]
    gram = mo.gram_matrix(t, n, group)
    wg = mo.weingarten_matrix(t, n, group)
    names = [lab.name() for lab in mo.group_labels(t, group)]
    rows = []
    for matrix_name, matrix in (("gram", gram), ("weingarten", wg)):
        for i, ri in enumerate(names):
            for j, cj in enumerate(names):
                val = matrix[i, j]  # an int or a Fraction
                rows.append({"matrix": matrix_name, "t": t, "n": n, "group": group,
                             "row": ri, "col": cj,
                             "numerator": val.numerator, "denominator": val.denominator})
    return rows


def run_optimal_reuse(cfg, threads=1):
    vstar = cfg.get("vstar")
    if vstar is None:
        vstar = 30.0 * 0.75 ** cfg["k"]
    model = tl.CostModel(alpha=cfg["alpha"], budget=cfg.get("budget", 1.0),
                         v1=cfg["v1"], k=cfg.get("k", 0),
                         max_reuse=cfg.get("max_reuse", 1024))
    best = tl.optimal_reuse(model, vstar)
    objective = tl.reuse_objective(model, vstar, best)
    return [{
        "experiment": "optimal-reuse", "alpha": model.alpha,
        "budget": model.budget, "v1": model.v1, "vstar": vstar,
        "k": model.k, "max_reuse": model.max_reuse,
        "best_reuse": best, "objective": objective,
        "accuracy": objective / model.budget,
        "heuristic_reuse": tl.continuous_reuse_heuristic(model.alpha, model.v1, vstar),
    }]


_RUNNERS = {
    "estimate": run_estimate,
    "variance-scan": run_variance_scan,
    "homeopathic-scan": run_homeopathic_scan,
    "moment-table": run_moment_table,
    "tail-experiment": run_tail_experiment,
    "weingarten": run_weingarten,
    "optimal-reuse": run_optimal_reuse,
}

def run_experiment(cfg, threads=1):
    _require_at_least("threads", threads)
    validate_config(cfg)
    return _RUNNERS[cfg["experiment"]](cfg, threads=threads)


# ---------------------------------------------------------------------------
# Emission.

def _format_value(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def rows_to_csv(rows):
    """CSV with the columns in order of first appearance over the rows."""
    fields = list(dict.fromkeys(key for row in rows for key in row))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_format_value(row[k]) if k in row else "" for k in fields])
    return buf.getvalue()


def emit(result, fmt, path=None):
    """Serialize an experiment result (a dict is JSON whatever ``fmt`` says);
    returns the text and writes it if path is given.  Nothing is written
    when an exact int is past the interpreter's int-to-string limit."""
    try:
        if isinstance(result, dict) or fmt == "json":
            text = json.dumps(result, sort_keys=True, indent=2) + "\n"
        elif fmt == "csv":
            text = rows_to_csv(result)
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise ValueError(f"an exact value has more than {sys.get_int_max_str_digits()} "
                         "digits, the interpreter's int-to-string limit; use a smaller n") \
            from None
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text
