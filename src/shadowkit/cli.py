"""Command-line driver: `shadowkit <experiment> [--config ...] [flags]`.

Each subcommand takes a JSON config (templates in ``configs/``) and flags
over its entries, both read off the experiment's table ``experiments.KEYS``:
a key's flag is --name with dashes for underscores (comma-separated for a
list), --kind, --n and --k fill the ``ensemble`` and --pauli the
``observable``.  An unknown key, a bad value or a comma-list piece that is
not an integer fails with one line and exit status 2 before any output file
is opened; identical (config, seed) pairs give byte-identical output.
"""

import argparse
import functools
import json
import os
import sys

from .ensembles import EnsembleSpec
from .experiments import KEYS, SCHEMA_VERSION, emit, run_experiment
from .protocol import ObservableSpec

_HELP = {"estimate": "run the full estimation protocol",
         "variance-scan": "empirical V_R against the reuse formula",
         "homeopathic-scan": "V* decay against the T-count bound",
         "moment-table": "exact estimator moments, finite n and limit",
         "tail-experiment": "empirical tails and mean-vs-median",
         "weingarten": "exact Gram/Weingarten matrices as CSV",
         "optimal-reuse": "cost-optimal reuse count"}


def _add_flags(p, key):
    if key.type is EnsembleSpec:
        p.add_argument("--kind", choices=("haar", "clifford", "homeopathic"), help=key.help)
        p.add_argument("--n", type=int, help="qubits")
        p.add_argument("--k", type=int, help="T-gate count of the homeopathic ensemble")
    elif key.type is ObservableSpec:
        p.add_argument("--pauli", help=key.help)
    else:
        p.add_argument("--" + key.name.replace("_", "-"), dest=key.name, help=key.help,
                       type=key.type if key.type in (int, float) else str,
                       choices=key.type if isinstance(key.type, tuple) else None)


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="shadowkit",
        description="Shadow estimation with circuit reuse, exact moment "
                    "machinery, and tail experiments.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, keys in KEYS.items():
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format for tabular experiments")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes for the circuit loops of variance-scan "
                            "and homeopathic-scan (other commands ignore it)")
        for key in keys:
            if key.help is not None:
                _add_flags(p, key)
    return parser


def _int(piece):
    """A comma-list piece as an int, or as it is for validate_config to refuse."""
    try:
        return int(piece)
    except ValueError:
        return piece


def config_from_args(args):
    """The --config object, or an empty one, with the given flags set over it."""
    cfg = {"schema": SCHEMA_VERSION}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config must be a JSON object, got {loaded!r:.80}")
        cfg.update(loaded)
    cfg["experiment"] = args.experiment
    for key in KEYS[args.experiment]:
        if key.type is EnsembleSpec:
            ens = cfg.setdefault("ensemble", {})
            if isinstance(ens, dict):  # validate_config refuses anything else
                ens.update({f: getattr(args, f) for f in ("kind", "n", "k")
                            if getattr(args, f) is not None})
        elif key.type is ObservableSpec:
            if args.pauli is not None:
                cfg["observable"] = {"type": "pauli", "label": args.pauli}
        elif (value := getattr(args, key.name, None)) is not None:
            cfg[key.name] = [_int(p) for p in value.split(",")] if key.type is list else value
    return cfg


def main(argv=None):
    """Run one subcommand; returns the exit status (2 for bad input or a file error)."""
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        records = cfg.get("records_out") if args.experiment == "estimate" else None
        # the records are written first, and --out would replace them
        if args.out and isinstance(records, str) and \
                os.path.realpath(records) == os.path.realpath(args.out):
            raise ValueError(f"--records-out and --out name the same file {args.out!r}")
        result = run_experiment(cfg, threads=args.threads)
        text = emit(result, args.format, path=args.out)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"shadowkit {args.experiment}: error: {exc}\n")
        return 2
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
