"""Experiment registry: reproducible runs, theory columns, CSV/JSON emission.

Configs are JSON objects with a ``schema`` version, an ``experiment`` name
and the keys of that experiment's table in ``KEYS``; every stochastic
experiment owes its entire transcript to (config, seed).  Circuit loops are
split into fixed-size chunks, each driven by a substream derived from (seed,
chunk index), so results are byte-identical for any ``--threads`` setting.
"""

import csv
import functools
import io
import json
import math
import os
import shutil
import sys
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

from . import dense
from . import moments as mo
from . import tails as tl
from .ensembles import EnsembleSpec, require_at_least, substream
from .protocol import ObservableSpec, RunConfig, estimate, stabilizer_pair
from .stabilizer import PauliString

SCHEMA_VERSION = 1
CHUNK = 512

# Each experiment's keys beside ``schema`` and ``experiment``.  A key's type is
# int, float (finite), bool, str (a path), list (non-empty, of ints), a tuple
# of choices, or the class that reads its JSON object; low bounds an int or a
# list entry; default is what the runner reads when the key is absent; help is
# that of the key's flag (see cli), None for no flag.
Key = namedtuple("Key", "name type low default help")
REQUIRED = object()

_SEED = Key("seed", int, 0, REQUIRED, "override the config seed")
_EXACT_SEED = _SEED._replace(default=None)  # accepted, as --seed is common, and ignored
_ENSEMBLE = Key("ensemble", EnsembleSpec, None, REQUIRED, "circuit ensemble")

KEYS = {
    "estimate": (_ENSEMBLE, Key("measurements", int, 1, REQUIRED, "measurements N"),
                 Key("reuse", int, 1, REQUIRED, "measurements per circuit R"),
                 Key("batches", int, 1, REQUIRED, "median-of-means batches K"),
                 Key("observable", ObservableSpec, None, {"type": "pair"},
                     "estimate this Pauli (e.g. ZZI) instead of the stabilizer projector"),
                 Key("records_out", str, None, None, "also write the records as JSON lines"),
                 _SEED),
    "variance-scan": (_ENSEMBLE, Key("measurements", int, 1, REQUIRED, "measurements N"),
                      Key("reuse_list", list, 1, REQUIRED, "comma-separated reuse counts"),
                      Key("vstar_circuits", int, 2, REQUIRED, "circuits for V*"), _SEED),
    "homeopathic-scan": (Key("n", int, 1, REQUIRED, "qubits"),
                         Key("k_list", list, None, REQUIRED, "comma-separated T-gate counts"),
                         Key("circuits", int, 2, REQUIRED, "circuits per T-gate"), _SEED),
    "moment-table": (Key("n_list", list, 1, REQUIRED, "comma-separated qubit counts"),
                     Key("max_m", int, 0, REQUIRED, "largest moment order"),
                     Key("include_limit", bool, None, True, None), _EXACT_SEED),
    "tail-experiment": (_ENSEMBLE, Key("samples", int, 1, REQUIRED, "pair values drawn"),
                        Key("budget", int, 1, 10_000, "values per replication"),
                        Key("batches", int, 1, 40, "batch means per median"), _SEED),
    "weingarten": (Key("t", int, 1, REQUIRED, "moment order"),
                   Key("n", int, 0, REQUIRED, "qubits"),
                   Key("group", ("unitary", "clifford"), None, REQUIRED, "commutant group"),
                   _EXACT_SEED),
    "optimal-reuse": (Key("alpha", float, None, REQUIRED, "cost of a new circuit"),
                      Key("budget", float, None, 1.0, "measurement budget"),
                      Key("v1", float, None, REQUIRED, "single-shot variance V_1"),
                      Key("vstar", float, None, None, "V* (default 30 * 0.75**k)"),
                      Key("k", int, 0, None, "T-gate count"),
                      Key("max_reuse", int, 1, 1024, "largest reuse scanned"), _EXACT_SEED),
}
EXPERIMENTS = tuple(KEYS)


def _observable(o_cfg):
    """The Pauli ObservableSpec an observable config names, None for the pair."""
    if not isinstance(o_cfg, dict):
        raise ValueError(f"observable must be a JSON object, got {o_cfg!r:.80}")
    if "type" not in o_cfg:
        raise ValueError("observable is missing ['type']")
    kind = o_cfg["type"]
    if kind not in ("pair", "pauli"):
        raise ValueError(f"unknown observable type {kind!r:.80}")
    allowed = ("type", "label") if kind == "pauli" else ("type",)
    unknown = [key for key in o_cfg if key not in allowed]
    if unknown:
        raise ValueError(f"observable has unknown keys {unknown}")
    if kind == "pair":
        return None
    label = o_cfg.get("label")
    if not isinstance(label, str):
        raise ValueError(f"a Pauli observable needs a string label, got {label!r:.80}")
    # refuses a non-Hermitian label before any output file is opened
    return ObservableSpec.pauli(PauliString.from_label(label))


_PLAIN = {float: ((int, float), "a number"), bool: (bool, "true or false"),  # isinstance, noun
          str: (str, "a path string"), list: (list, "a list")}


def _check(key, value):
    """Refuse a given value of the wrong type or under the key's bound."""
    if key.type is int:
        require_at_least(key.name, value, key.low)
    elif key.type is EnsembleSpec:
        EnsembleSpec.from_json(value)
    elif key.type is ObservableSpec:
        _observable(value)
    elif isinstance(key.type, tuple):
        if value not in key.type:
            raise ValueError(f"unknown {key.name} {value!r:.80}")
    else:
        types, noun = _PLAIN[key.type]
        # a bool is an int to Python, not a number here
        if not isinstance(value, types) or (isinstance(value, bool) and key.type is float):
            raise ValueError(f"{key.name} must be {noun}, got {value!r:.80}")
        # argparse floats and JSON both let nan and +-inf through
        if key.type is float and not math.isfinite(value):
            raise ValueError(f"{key.name} must be finite, got {value!r}")
        if key.type is list and not value:
            raise ValueError(f"{key.name} must not be empty")
        for entry in value if key.type is list and key.low is not None else ():
            require_at_least(f"{key.name} entry", entry, key.low)


def _estimate_rules(cfg):
    if cfg["measurements"] % (cfg["reuse"] * cfg["batches"]):
        raise ValueError("measurements must be a multiple of reuse*batches")
    pauli, n = _observable(cfg["observable"]), cfg["ensemble"]["n"]
    if pauli is not None and pauli.n != n:
        raise ValueError(f"Pauli label {cfg['observable']['label']!r} acts on {pauli.n} "
                         f"qubits, the ensemble on {n}")


def _variance_scan_rules(cfg):
    for r in cfg["reuse_list"]:
        if cfg["measurements"] % r:
            raise ValueError(f"measurements not divisible by reuse {r}")
        # V_R, like V*, is a sample variance over circuits: measurements // r of them
        if cfg["measurements"] // r < 2:
            raise ValueError(f"measurements // reuse {r} must be at least 2 circuits, "
                             f"got {cfg['measurements'] // r}")


def _weingarten_rules(cfg):
    t, n, group = cfg["t"], cfg["n"], cfg["group"]
    # the t! permutations are independent iff 2^n >= t, that is n >= (t-1).bit_length()
    if group == "unitary" and n < (t - 1).bit_length():
        raise ValueError(f"the unitary Gram matrix is singular for 2^{n} < t = {t}")
    if group == "clifford" and n < t - 1:
        raise ValueError(f"the Gram matrix is singular for n = {n} < t - 1 = {t - 1}")
    # the orbital table has one entry per label pair: (t!)^2 is over the budget
    # from t = 7 on, and past 20! (64 bits) refused unbuilt
    if group == "unitary" and t > 20:
        dense.check_entries(f"({t}!)^2", f"the {t}!x{t}! label-pair orbital table at t = {t}")
    size = mo.commutant_size(t, group)
    dense.check_entries(size ** 2, f"the {size}x{size} label-pair orbital table at t = {t}")


def _optimal_reuse_rules(cfg):
    if cfg["vstar"] is None and cfg["k"] is None:
        raise ValueError("optimal-reuse needs either vstar or a T-gate count k")


_RULES = {"estimate": _estimate_rules, "variance-scan": _variance_scan_rules,
          "homeopathic-scan": lambda cfg: [EnsembleSpec("homeopathic", cfg["n"], k=k)
                                           for k in cfg["k_list"]],
          "tail-experiment": lambda cfg: tl.check_replications(cfg["samples"], cfg["budget"],
                                                               cfg["batches"]),
          "weingarten": _weingarten_rules,
          "optimal-reuse": _optimal_reuse_rules}


def validate_config(cfg):
    """The config with every absent key at its table default, or a one-line
    ValueError: for an unknown key, then for each given key's type and bound
    in table order, then for missing keys, then for the cross-key rules."""
    if type(cfg.get("schema")) is not int or cfg["schema"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema {cfg.get('schema')!r}")
    name = cfg.get("experiment")
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    keys = KEYS[name]
    names = ["schema", "experiment"] + [key.name for key in keys]
    unknown = [key for key in cfg if key not in names]
    if unknown:
        raise ValueError(f"config for {name!r} has unknown keys {unknown}")
    for key in keys:
        if key.name in cfg:
            _check(key, cfg[key.name])
    missing = [key.name for key in keys if key.default is REQUIRED and key.name not in cfg]
    if missing:
        raise ValueError(f"config for {name!r} is missing {missing}")
    cfg = {**{key.name: key.default for key in keys}, **cfg}
    if name in _RULES:
        _RULES[name](cfg)
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
    state, pair = stabilizer_pair(spec.n)
    obs = _observable(cfg["observable"]) or pair
    if cfg["records_out"] is None:
        return estimate(run, state, obs)
    return _write_all_or_nothing(cfg["records_out"], functools.partial(estimate, run, state, obs))


# A tabular result: its column names, and rows, an iterable of value tuples in
# column order.
Table = namedtuple("Table", "columns rows")


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
        rows.append(("variance-scan", spec.kind, n, spec.k, reuse, cfg["measurements"],
                     circuits, v1, vstar, vstar_se, vr, float(np.hypot(vr_se, pred_se)),
                     pred, "var_thrift"))
    return Table(("experiment", "kind", "n", "k", "R", "N", "circuits", "v1_exact", "vstar",
                  "vstar_se", "estimate", "std_error", "theory", "theory_source"), rows)


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
        rows.append(("homeopathic-scan", "homeopathic", n, k, cfg["circuits"], tr_o2,
                     vstar, se, bound, "vstar_bound"))
    return Table(("experiment", "kind", "n", "k", "circuits", "tr_o2", "estimate",
                  "std_error", "theory", "theory_source"), rows)


def run_moment_table(cfg, threads=1):
    rows = []
    for n in cfg["n_list"] + (["inf"] if cfg["include_limit"] else []):
        for m in range(cfg["max_m"] + 1):
            val = tl.limiting_moment(m) if n == "inf" else tl.clifford_moment(n, m)
            rows.append((n, m, val.numerator, val.denominator, float(val)))
    return Table(("n", "m", "numerator", "denominator", "float_value"), rows)


def run_tail_experiment(cfg, threads=1):
    spec = EnsembleSpec.from_json(cfg["ensemble"])
    return tl.tail_experiment(spec, cfg["samples"], substream(cfg["seed"], 0),
                              budget=cfg["budget"], batches=cfg["batches"])


def run_weingarten(cfg, threads=1):
    t, n, group = cfg["t"], cfg["n"], cfg["group"]
    # the Gram diagonal 2^(t n) is written, and has more than L digits exactly
    # when 2^(t n) >= 10^L, that is t n >= (10^L).bit_length()
    limit = sys.get_int_max_str_digits()
    if limit and t * n >= (10 ** limit).bit_length():
        raise _too_many_digits()
    orb, *values = mo.orbital_values(t, n, group)
    # G and W are constant on each orbital: one (numerator, denominator) per
    # orbital (an int or a Fraction)
    cells = [[(val.numerator, val.denominator) for val in vals] for vals in values]
    names = [lab.name() for lab in mo.group_labels(t, group)]
    rows = ((matrix, t, n, group, row, col, *cell[e])
            for matrix, cell in zip(("gram", "weingarten"), cells)
            for row, orb_row in zip(names, orb)
            for col, e in zip(names, orb_row))
    return Table(("matrix", "t", "n", "group", "row", "col", "numerator", "denominator"),
                 rows)


def run_optimal_reuse(cfg, threads=1):
    k = cfg["k"] or 0  # the row echoes k = 0 when only vstar is given
    # 0.75**k is 0.0 from k = 2591 on; min() keeps an int past 2^1024 from overflowing
    vstar = 30.0 * 0.75 ** min(k, 4000) if cfg["vstar"] is None else cfg["vstar"]
    model = tl.CostModel(alpha=cfg["alpha"], budget=cfg["budget"], v1=cfg["v1"],
                         max_reuse=cfg["max_reuse"])
    best = tl.optimal_reuse(model, vstar)
    objective = tl.reuse_objective(model, vstar, best)
    if not math.isfinite(objective / model.budget):
        raise ValueError(f"objective / budget = {objective!r} / {model.budget!r} at "
                         f"R = {best} overflows a float")
    heuristic = tl.continuous_reuse_heuristic(model.alpha, model.v1, vstar)
    # inf is the heuristic's own answer only for vstar = 0
    if vstar and not math.isfinite(heuristic):
        raise ValueError(f"heuristic_reuse sqrt((alpha - 1)(v1 - vstar) / vstar) at alpha = "
                         f"{model.alpha!r}, v1 = {model.v1!r}, vstar = {vstar!r} overflows a float")
    return Table(("experiment", "alpha", "budget", "v1", "vstar", "k", "max_reuse",
                  "best_reuse", "objective", "accuracy", "heuristic_reuse"),
                 [("optimal-reuse", model.alpha, model.budget, model.v1, vstar, k,
                   model.max_reuse, best, objective, objective / model.budget, heuristic)])


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
    require_at_least("threads", threads)
    cfg = validate_config(cfg)
    return _RUNNERS[cfg["experiment"]](cfg, threads=threads)


# ---------------------------------------------------------------------------
# Emission.

_CSV_PLAIN = frozenset((int, str, bool, type(None)))


def _write_csv(table, fh):
    """A header, then one line per row: floats at 17 significant digits, None
    blank, anything else as str."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        # csv.writer writes these types as str (None blank); a row of only
        # them, such as every exact row, skips the per-value pass
        if not _CSV_PLAIN.issuperset(map(type, row)):
            row = [format(v, ".17g") if isinstance(v, float) else v for v in row]
        writer.writerow(row)


def _write_json(table, fh):
    """The bytes of json.dumps(rows as dicts, sort_keys=True, indent=2) + "\n",
    one row at a time."""
    sep = "[\n  "
    for row in table.rows:
        fh.write(sep + json.dumps(dict(zip(table.columns, row)), sort_keys=True,
                                  indent=2).replace("\n", "\n  "))
        sep = ",\n  "
    fh.write("[]\n" if sep == "[\n  " else "\n]\n")


def _write_all_or_nothing(path, write):
    """Run write(fh) on a new file beside path, renamed over path once it is
    complete, and return what write returns; on any error the new file is
    removed and path left as it was.

    Only an absent path, or a regular file that its real path names, can be
    replaced by a rename.  Anything else, such as /dev/null, a FIFO or
    /dev/stdout, is opened and written in place.  A replaced file keeps its
    permission bits, not its hard links.
    """
    real = os.path.realpath(path)  # a symlinked path keeps its link
    if os.path.exists(path) and not (os.path.isfile(real) and os.path.samefile(path, real)):
        with open(path, "w") as fh:
            return write(fh)
    tmp = os.path.join(os.path.dirname(real), f".shadowkit-{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "x")
    except OSError as exc:  # named by the path asked for, as open(path, "w") would be
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            if os.path.exists(real):
                shutil.copymode(real, tmp)
            result = write(fh)
        os.replace(tmp, real)
    except BaseException:
        os.remove(tmp)
        raise
    return result


def _too_many_digits():
    return ValueError(f"an exact value has more than {sys.get_int_max_str_digits()} digits, "
                      "the interpreter's int-to-string limit; use a smaller n")


def emit(result, fmt, path=None):
    """Serialize an experiment result: a Table as CSV or JSON rows, a dict as
    JSON whatever ``fmt`` says.  Returns the text, or "" for a Table streamed
    to ``path``, whose text is never held whole.  A regular file at ``path``
    is written all or nothing, through a temporary file in its directory and
    a rename, so a failure (such as an exact int past the interpreter's
    int-to-string limit) creates or changes no file."""
    try:
        if isinstance(result, dict):
            text = json.dumps(result, sort_keys=True, indent=2) + "\n"
            write = lambda fh: fh.write(text)
        elif fmt in ("csv", "json"):
            text = ""
            write = functools.partial(_write_csv if fmt == "csv" else _write_json, result)
        else:
            raise ValueError(f"unknown format {fmt!r}")
        if path:
            _write_all_or_nothing(path, write)
            return text
        buf = io.StringIO()
        write(buf)
        return buf.getvalue()
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise _too_many_digits() from None
