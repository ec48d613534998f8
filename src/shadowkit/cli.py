"""Command-line driver: `shadowkit <experiment> [--config ...] [flags]`.

Every subcommand accepts a JSON config (see ``configs/`` for templates) and
a few direct flags that override config entries; identical (config, seed)
pairs produce byte-identical output files.
"""

import argparse
import json
import sys

from .experiments import JSON_ONLY, SCHEMA_VERSION, emit, run_experiment


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format for tabular experiments")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for the circuit loops of variance-scan "
                        "and homeopathic-scan (other commands ignore it)")


def _ensemble_flags(p):
    p.add_argument("--kind", choices=("haar", "clifford", "homeopathic"))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shadowkit",
        description="Shadow estimation with circuit reuse, exact moment "
                    "machinery, and tail experiments.")
    sub = parser.add_subparsers(dest="experiment", required=True)

    p = sub.add_parser("estimate", help="run the full estimation protocol")
    _add_common(p)
    _ensemble_flags(p)
    p.add_argument("--measurements", type=int)
    p.add_argument("--reuse", type=int)
    p.add_argument("--batches", type=int)
    p.add_argument("--pauli", help="estimate this Pauli (e.g. ZZI) instead of "
                                   "the stabilizer projector")
    p.add_argument("--records-out", dest="records_out",
                   help="also write the shadow records as JSON lines")

    p = sub.add_parser("variance-scan", help="empirical V_R against the reuse formula")
    _add_common(p)
    _ensemble_flags(p)
    p.add_argument("--measurements", type=int)
    p.add_argument("--reuse-list", dest="reuse_list",
                   help="comma-separated reuse counts, e.g. 1,2,8,64")
    p.add_argument("--vstar-circuits", dest="vstar_circuits", type=int)

    p = sub.add_parser("homeopathic-scan", help="V* decay against the T-count bound")
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--k-list", dest="k_list", help="comma-separated T-gate counts")
    p.add_argument("--circuits", type=int)

    p = sub.add_parser("moment-table", help="exact estimator moments, finite n and limit")
    _add_common(p)
    p.add_argument("--n-list", dest="n_list", help="comma-separated qubit counts")
    p.add_argument("--max-m", dest="max_m", type=int)

    p = sub.add_parser("tail-experiment", help="empirical tails and mean-vs-median")
    _add_common(p)
    _ensemble_flags(p)
    p.add_argument("--samples", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--batches", type=int)

    p = sub.add_parser("weingarten", help="exact Gram/Weingarten matrices as CSV")
    _add_common(p)
    p.add_argument("--t", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--group", choices=("unitary", "clifford"))

    p = sub.add_parser("optimal-reuse", help="cost-optimal reuse count")
    _add_common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--budget", type=float)
    p.add_argument("--v1", type=float)
    p.add_argument("--vstar", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--max-reuse", dest="max_reuse", type=int)
    return parser


_INT_LISTS = ("reuse_list", "k_list", "n_list")
_ENSEMBLE_KEYS = ("kind", "n", "k")
_SKIP_KEYS = ("config", "out", "format", "threads", "experiment")


def config_from_args(args):
    cfg = {"schema": SCHEMA_VERSION}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config must be a JSON object, got {loaded!r:.80}")
        cfg.update(loaded)
    cfg["experiment"] = args.experiment
    overrides = {k: v for k, v in vars(args).items()
                 if v is not None and k not in _SKIP_KEYS}
    for key in _INT_LISTS:
        if key in overrides and isinstance(overrides[key], str):
            overrides[key] = [int(x) for x in overrides[key].split(",")]
    if args.experiment in ("estimate", "variance-scan", "tail-experiment"):
        ens = cfg.get("ensemble", {})
        if not isinstance(ens, dict):
            raise ValueError(f"ensemble must be a JSON object, got {ens!r:.80}")
        ens = dict(ens)
        for key in _ENSEMBLE_KEYS:
            if key in overrides:
                ens[key] = overrides.pop(key)
        ens.setdefault("k", 0)
        if ens:
            cfg["ensemble"] = ens
    if overrides.pop("pauli", None) is not None:
        cfg["observable"] = {"type": "pauli", "label": args.pauli}
    cfg.update(overrides)
    return cfg


def main(argv=None):
    """Run one subcommand; returns the exit status (2 for bad input or a file error)."""
    args = build_parser().parse_args(argv)
    fmt = "json" if args.experiment in JSON_ONLY else args.format
    try:
        result = run_experiment(config_from_args(args), threads=args.threads)
        text = emit(result, fmt, path=args.out)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"shadowkit {args.experiment}: error: {exc}\n")
        return 2
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
