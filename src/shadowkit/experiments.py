"""Experiment registry: reproducible runs, theory columns, CSV/JSON emission.

Configs are JSON objects with a ``schema`` version, an ``experiment`` name
and per-experiment parameters; every stochastic experiment owes its entire
transcript to (config, seed).  Circuit loops are split into fixed-size
chunks, each driven by a substream derived from (seed, chunk index), so
results are byte-identical for any ``--threads`` setting.
"""

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import moments as mo
from . import tails as tl
from .ensembles import EnsembleSpec
from .protocol import ObservableSpec, RunConfig, acquire, estimate, record_values, \
    median_of_means, stabilizer_pair, substream, write_records
from .stabilizer import PauliString

SCHEMA_VERSION = 1
CHUNK = 512

EXPERIMENTS = ("estimate", "variance-scan", "homeopathic-scan", "moment-table",
               "tail-experiment", "weingarten", "optimal-reuse")


@dataclass
class ResultRow:
    params: dict
    estimate: float = None
    std_error: float = None
    theory: float = None
    theory_source: str = None

    def flat(self):
        out = dict(self.params)
        for key in ("estimate", "std_error", "theory", "theory_source"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


def _require(cfg, *keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ValueError(f"config for {cfg.get('experiment')!r} is missing {missing}")


def _require_positive(name, value):
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _validate_observable(o_cfg, n):
    if o_cfg["type"] == "pauli":
        size = PauliString.from_label(o_cfg["label"]).n
        if size != n:
            raise ValueError(f"Pauli label {o_cfg['label']!r} acts on {size} qubits, "
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
            _require_positive(key, cfg[key])
        if cfg["measurements"] % (cfg["reuse"] * cfg["batches"]):
            raise ValueError("measurements must be a multiple of reuse*batches")
        _validate_observable(cfg.get("observable", {"type": "pair"}),
                             EnsembleSpec.from_json(cfg["ensemble"]).n)
    elif name == "variance-scan":
        _require(cfg, "ensemble", "measurements", "reuse_list", "vstar_circuits", "seed")
        _require_positive("measurements", cfg["measurements"])
        for r in cfg["reuse_list"]:
            _require_positive("reuse_list entry", r)
            if cfg["measurements"] % r:
                raise ValueError(f"measurements not divisible by reuse {r}")
    elif name == "homeopathic-scan":
        _require(cfg, "n", "k_list", "circuits", "seed")
    elif name == "moment-table":
        _require(cfg, "n_list", "max_m")
    elif name == "tail-experiment":
        _require(cfg, "ensemble", "samples", "seed")
    elif name == "weingarten":
        _require(cfg, "t", "n", "group")
    elif name == "optimal-reuse":
        _require(cfg, "alpha", "v1")
        if "vstar" not in cfg and "k" not in cfg:
            raise ValueError("optimal-reuse needs either vstar or a T-gate count k")
    return cfg


# ---------------------------------------------------------------------------
# Chunked, thread-safe sampling helpers (top level so they pickle).

def _chunks(total):
    return [(i, min(CHUNK, total - i * CHUNK))
            for i in range((total + CHUNK - 1) // CHUNK)]


def _vstar_chunk(args):
    spec_json, seed, chunk_id, count = args
    spec = EnsembleSpec.from_json(spec_json)
    return tl.pair_conditional_means(spec, substream(seed, chunk_id), count)


def _xr_chunk(args):
    spec_json, seed, chunk_id, count, reuse = args
    spec = EnsembleSpec.from_json(spec_json)
    return tl.sample_pair_xvalues(spec, substream(seed, chunk_id), count, reuse=reuse)


def _parallel_concat(fn, tasks, threads):
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(fn, tasks))
    else:
        parts = [fn(t) for t in tasks]
    return np.concatenate(parts)


def pair_vstar_samples(spec, seed, circuits, threads=1):
    tasks = [(spec.to_json(), seed, cid, cnt) for cid, cnt in _chunks(circuits)]
    return _parallel_concat(_vstar_chunk, tasks, threads)


def pair_xr_samples(spec, seed, circuits, reuse, threads=1):
    tasks = [(spec.to_json(), seed, cid, cnt, reuse) for cid, cnt in _chunks(circuits)]
    return _parallel_concat(_xr_chunk, tasks, threads)


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
    if cfg.get("records_out"):
        records = acquire(run, state)
        write_records(records, cfg["records_out"])
        est = median_of_means(record_values(records, obs), run.batches)
        return {"estimate": est, "K": run.batches, "R": run.reuse,
                "N": run.measurements, "seed": run.seed}
    return estimate(run, state, obs)


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
        rows.append(ResultRow(
            params={"experiment": "variance-scan", "kind": spec.kind, "n": n,
                    "k": spec.k, "R": reuse, "N": cfg["measurements"],
                    "circuits": circuits, "v1_exact": v1,
                    "vstar": vstar, "vstar_se": vstar_se},
            estimate=vr, std_error=float(np.hypot(vr_se, pred_se)),
            theory=pred, theory_source="var_thrift"))
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
        rows.append(ResultRow(
            params={"experiment": "homeopathic-scan", "kind": "homeopathic",
                    "n": n, "k": k, "circuits": cfg["circuits"], "tr_o2": tr_o2},
            estimate=vstar, std_error=se,
            theory=bound, theory_source="vstar_bound"))
    return rows


def run_moment_table(cfg, threads=1):
    rows = []
    max_m = cfg["max_m"]
    for n in cfg["n_list"]:
        for m in range(max_m + 1):
            val = tl.clifford_moment(n, m)
            rows.append(ResultRow(params={
                "n": n, "m": m, "numerator": val.numerator,
                "denominator": val.denominator, "float_value": float(val)}))
    if cfg.get("include_limit", True):
        for m in range(max_m + 1):
            val = tl.limiting_moment(m)
            rows.append(ResultRow(params={
                "n": "inf", "m": m, "numerator": val.numerator,
                "denominator": val.denominator, "float_value": float(val)}))
    return rows


def run_tail_experiment(cfg, threads=1):
    spec = EnsembleSpec.from_json(cfg["ensemble"])
    rng = substream(cfg["seed"], 0)
    return tl.tail_experiment(spec, cfg["samples"], rng,
                              budget=cfg.get("budget", 10_000),
                              batches=cfg.get("batches", 40))


def run_weingarten(cfg, threads=1):
    t, n, group = cfg["t"], cfg["n"], cfg["group"]
    gram = mo.gram_matrix(t, n, group)
    wg = mo.weingarten_matrix(t, n, group)
    if group == "clifford" and t == 4:
        names = [lab.name() for lab in mo.commutant_labels(t)]
    else:
        names = [pi.cycle_label() for pi in mo.symmetric_group(t)]
    rows = []
    for matrix_name, matrix in (("gram", gram), ("weingarten", wg)):
        for i, ri in enumerate(names):
            for j, cj in enumerate(names):
                val = Fraction(matrix[i, j])
                rows.append(ResultRow(params={
                    "matrix": matrix_name, "t": t, "n": n, "group": group,
                    "row": ri, "col": cj,
                    "numerator": val.numerator, "denominator": val.denominator}))
    return rows


def run_optimal_reuse(cfg, threads=1):
    vstar = cfg.get("vstar")
    if vstar is None:
        vstar = 30.0 * 0.75 ** cfg["k"]
    model = tl.CostModel(alpha=cfg["alpha"], budget=cfg.get("budget", 1.0),
                         v1=cfg["v1"], k=cfg.get("k", 0),
                         batches=cfg.get("batches", 1),
                         max_reuse=cfg.get("max_reuse", 1024))
    best = tl.optimal_reuse(model, vstar)
    objective = tl.reuse_objective(model, vstar, best)
    return [ResultRow(params={
        "experiment": "optimal-reuse", "alpha": model.alpha,
        "budget": model.budget, "v1": model.v1, "vstar": vstar,
        "k": model.k, "max_reuse": model.max_reuse,
        "best_reuse": best, "objective": objective,
        "accuracy": objective / model.budget,
        "heuristic_reuse": tl.continuous_reuse_heuristic(model.alpha, model.v1, vstar),
    })]


_RUNNERS = {
    "estimate": run_estimate,
    "variance-scan": run_variance_scan,
    "homeopathic-scan": run_homeopathic_scan,
    "moment-table": run_moment_table,
    "tail-experiment": run_tail_experiment,
    "weingarten": run_weingarten,
    "optimal-reuse": run_optimal_reuse,
}

JSON_ONLY = ("estimate", "tail-experiment")


def run_experiment(cfg, threads=1):
    validate_config(cfg)
    return _RUNNERS[cfg["experiment"]](cfg, threads=threads)


# ---------------------------------------------------------------------------
# Emission.

def _format_value(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def rows_to_csv(rows, fields=None):
    flats = [r.flat() for r in rows]
    if fields is None:
        fields = []
        for f in flats:
            for key in f:
                if key not in fields:
                    fields.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for f in flats:
        writer.writerow([_format_value(f[k]) if k in f else "" for k in fields])
    return buf.getvalue()


def rows_to_json(rows):
    return json.dumps([r.flat() for r in rows], sort_keys=True, indent=2) + "\n"


def emit(result, fmt, path=None, fields=None):
    """Serialize an experiment result; returns the text, writes if path given.

    ``fields`` pins the CSV column order (and yields a header-only file for
    an empty row list); by default columns follow first appearance.
    """
    if isinstance(result, dict):
        text = json.dumps(result, sort_keys=True, indent=2) + "\n"
    elif fmt == "json":
        text = rows_to_json(result)
    elif fmt == "csv":
        text = rows_to_csv(result, fields=fields)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text
