"""shadowkit benchmark: runs a workload and reports its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload estimate-n10 [--seed 1] [--seconds 60] [--trace 0]
    python3 perfbench/run.py --workload all        # every workload, one table
    python3 perfbench/run.py --selftest            # check the trace hooks

Each repetition of a workload is a fresh ``python3 perfbench/rep.py``
process that makes the CLI calls of every part of the workload; the
repetitions run one after another until ``--seconds`` is used up, and the
only other processes are the program's own pool workers.  The workload seed
(default ``DEFAULT_SEED``; ``HELDOUT_SEED`` is kept for later claims) gives
repetition ``i`` the program seed ``seed * 1000 + i``.  Outputs are checked
after every repetition.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json as medians over untraced repetitions; ``--trace 1``
alternates untraced and traced repetitions on the same program seed and
reports the per-layer metrics.  The last line of standard output is the
JSON result; everything written goes under ``perfbench/out/``.  The
environment is passed on unchanged: no ``*_NUM_THREADS`` variable is set.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import PARTS, WORKLOADS, sha256_file  # noqa: E402

DEFAULT_SEED = 1
HELDOUT_SEED = 7919
OUT_DIR = os.path.join("perfbench", "out")
REFERENCE = os.path.join(HERE, "reference.json")
REP_SCRIPT = os.path.join(HERE, "rep.py")
RUN_DEADLINE_S = 170      # whole run, set-up included; a repetition past it is killed
# Commands whose untraced time per repetition is a per-layer metric.
CLI_COMMANDS = ("estimate", "tail-experiment", "homeopathic-scan", "weingarten",
                "moment-table")

PROBE = r"""
import importlib.metadata as md, json, sys
sys.path.insert(0, "src")
import numpy
import shadowkit.cli  # warms the file cache and writes bytecode before timing
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception as exc:
    blas = f"unknown ({exc!r})"
try:
    scipy = md.version("scipy")
except md.PackageNotFoundError:
    scipy = "not installed"
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy, "blas": blas}))
"""


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def environment():
    probe = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                           text=True, timeout=120)
    if probe.returncode == 0:
        env = json.loads(probe.stdout.strip().splitlines()[-1])
    else:
        env = {"probe_error": probe.stderr.strip().splitlines()[-1:]}
    commit = None
    if os.path.isdir(".git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    lines = 0
    for path in sorted(glob.glob(os.path.join("src", "shadowkit", "*.py"))):
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    env.update({"nproc": len(os.sched_getaffinity(0)),
                "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                                    if k.endswith("_NUM_THREADS")},
                "git_commit": commit, "source_lines": lines})
    return env


def _stop_group(pgid):
    """Kill what is left of a repetition's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_rep(parts, rep_seed, outdir, traced, deadline):
    """One repetition; returns its record (``problems`` empty when it passed)."""
    shutil.rmtree(outdir, ignore_errors=True)
    calls = []
    for part in parts:
        os.makedirs(os.path.join(outdir, part.name))
        calls += part.calls(rep_seed, os.path.join(outdir, part.name))
    spec = {"calls": calls, "traced": traced}
    record = {"seed": rep_seed, "traced": traced, "problems": [], "notes": []}
    spec["spawned"] = time.monotonic()
    proc = subprocess.Popen([sys.executable, REP_SCRIPT, json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.communicate()
        record["problems"].append("timed out")
        return record
    # Pool workers left behind by the repetition must not outlive it.
    _stop_group(proc.pid)
    record["elapsed_s"] = time.monotonic() - spec["spawned"]
    record["stderr"] = err.strip().splitlines()[-5:]
    if proc.returncode != 0:
        record["problems"].append(f"exit status {proc.returncode}: {record['stderr'][-1:]}")
        return record
    record.update(json.loads(out.strip().splitlines()[-1]))
    record["digests"] = {}
    for part in parts:
        partdir = os.path.join(outdir, part.name)
        try:
            record["problems"] += [f"{part.name}: {p}" for p in part.check(partdir)]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            record["problems"].append(f"{part.name}: unreadable output: {exc!r}")
        record["digests"].update({f"{part.name}/{os.path.basename(p)}": sha256_file(p)
                                  for p in part.outputs(partdir) if os.path.exists(p)})
    return record


def compare_digests(parts, record, reference):
    """Exact outputs must match the reference; stochastic changes are notes."""
    for part in parts:
        refs = reference["digests"].get(part.name, {})
        expected = refs.get(str(record["seed"]) if part.stochastic else "any")
        if expected is None:
            if not part.stochastic:
                record["problems"].append(f"{part.name}: no reference digest recorded")
            continue
        for name, digest in expected.items():
            if record.get("digests", {}).get(f"{part.name}/{name}") != digest:
                msg = f"{part.name}/{name} digest differs from the seed-commit reference"
                (record["notes"] if part.stochastic else record["problems"]).append(msg)


def run_workload(name, seed, seconds, trace, reference):
    parts = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    base = os.path.join(OUT_DIR, name)
    records, durations = [], []
    i = 0
    while True:
        elapsed = time.monotonic() - start
        if i and elapsed + statistics.median(durations) > seconds:
            break
        if time.monotonic() > deadline:
            break
        t0 = time.monotonic()
        rep_seed = seed * 1000 + i
        plain = run_rep(parts, rep_seed, os.path.join(base, f"rep{i}"), False, deadline)
        records.append(plain)
        if trace:
            traced = run_rep(parts, rep_seed, os.path.join(base, f"rep{i}-traced"),
                             True, deadline)
            if traced.get("digests") != plain.get("digests") and not traced["problems"]:
                traced["problems"].append("traced outputs differ from untraced outputs")
            records.append(traced)
        durations.append(time.monotonic() - t0)
        for rec in records[-2 if trace else -1:]:
            compare_digests(parts, rec, reference)
            status = "FAIL " + "; ".join(rec["problems"]) if rec["problems"] else "ok"
            print(f"[{name}] seed {rec['seed']}{' traced' if rec['traced'] else ''}:"
                  f" wall {rec.get('wall_s', float('nan')):.4f} s  {status}",
                  file=sys.stderr, flush=True)
        i += 1
    return records


def _median(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def end_to_end(records):
    plain = [r for r in records if not r["traced"]]
    failed = sum(1 for r in records if r["problems"])
    return {"wall_s": _median(plain, "wall_s"),
            "setup_s": _median(plain, "setup_s"),
            "peak_rss_mb": _median(plain, "peak_rss_kb") / 1024,
            "success_rate": 1 - failed / len(records)}


def per_layer(records):
    traced = [r for r in records if r["traced"] and "layers" in r]
    plain = [r for r in records if not r["traced"]]
    names = sorted({k for r in traced for k in r["layers"]})
    out = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
    out["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    for command in CLI_COMMANDS:
        per_rep = [sum(t for c, t in r["call_s"] if c == command)
                   for r in plain if "call_s" in r]
        out[f"cli.{command.replace('-', '_')}_s"] = statistics.median(per_rep) if per_rep else 0.0
    return out


def metric_specs(trace):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def report(name, seed, trace, records, env):
    """Print the human summary, save the result file, return the JSON result."""
    values = per_layer(records) if trace else end_to_end(records)
    if trace:
        for part in WORKLOADS[name]:
            for key in EXPECTED_NONZERO[part.name]:
                if not values.get(key):
                    print(f"warning: {key} is zero on {name}", file=sys.stderr)
    metrics = {}
    for spec in metric_specs(trace):
        if spec["name"] not in values:
            print(f"warning: {spec['name']} was not measured", file=sys.stderr)
        metrics[spec["name"]] = {"value": values.get(spec["name"], 0.0), "unit": spec["unit"]}
    failed = sum(1 for r in records if r["problems"])
    plain = [r for r in records if not r["traced"]]
    print(f"== {name}  seed {seed}  trace {trace}  "
          f"({len(plain)} untraced, {len(records) - len(plain)} traced repetitions)")
    print("environment: " + json.dumps(env, sort_keys=True))
    for metric, m in metrics.items():
        print(f"  {metric:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':32s} {failed / len(records):.6g} ({failed} of {len(records)} failed)")
    if not trace:
        print(f"  (medians over {len(plain)} repetitions)")
    for rec in records:
        for note in rec["notes"]:
            print(f"  note: seed {rec['seed']}: {note}")
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    path = os.path.join(OUT_DIR, name, f"result-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, "environment": env, "repetitions": records}, fh,
                  indent=1, sort_keys=True)
    return result


# ---------------------------------------------------------------------------
# Self-test: every per-layer counter is nonzero where it should be.

EXPECTED_NONZERO = {
    "estimate-n10": ("clifford.sample_s", "clifford.circuits", "stabilizer.shot_s",
                     "stabilizer.evolve_s", "stabilizer.overlap_s", "protocol.acquire_s",
                     "protocol.eval_s", "ensembles.descriptor_s", "protocol.records_write_s",
                     "protocol.records_bytes", "experiments.emit_s",
                     "experiments.emit_bytes"),
    "tail-n31": ("clifford.sample_s", "bits.rank_batch_s"),
    "homeopathic-n6": ("clifford.sample_s", "stabilizer.statevector_s", "clifford.to_dense_s",
                       "tails.cond_means_s", "tails.cond_means_self_s",
                       "experiments.parallel_wait_s"),
    "exact-t4": ("moments.gram_s", "moments.weingarten_s", "exact.inverse_s",
                 "tails.moment_s", "experiments.emit_s", "experiments.emit_bytes"),
}


def expected_exact():
    """Exact per-layer counts that follow from the workload sizes."""
    from workloads import ESTIMATE, HOMEOPATHIC, TAIL
    e, h = ESTIMATE, HOMEOPATHIC
    circuits = h["circuits"]
    return {
        "estimate-n10": {"stabilizer.shots": e["measurements"],
                         "protocol.single_shot_calls": e["measurements"],
                         "protocol.fast_path_share": 1.0,
                         "clifford.circuits": e["measurements"] // e["reuse"]},
        "tail-n31": {"clifford.circuits": TAIL["samples"]},
        "homeopathic-n6": {"clifford.to_dense_calls": circuits * sum(h["k_list"]),
                           "clifford.circuits": circuits * sum(k + 1 for k in h["k_list"])},
        "exact-t4": {},
    }


def selftest():
    problems = []
    sys.path.insert(0, os.path.abspath("src"))
    import workloads as wl
    from shadowkit import moments, tails
    for n in (6, 10):
        if wl.pair_variance(n) != moments.stabilizer_pair_variance(n):
            problems.append(f"exact-law variance differs from the program's at n={n}")
    for m in (1, 2, 4):
        if wl.pair_moment(31, m) != tails.clifford_moment(31, m):
            problems.append(f"exact-law moment {m} differs from the program's at n=31")
    layer_names = {spec["name"] for spec in metric_specs(True)
                   if spec["name"] != "trace.overhead_s" and not spec["name"].startswith("cli.")}
    exact = expected_exact()
    for name, part in PARTS.items():
        outdir = os.path.join(OUT_DIR, "selftest", name)
        rec = run_rep((part,), DEFAULT_SEED * 1000, outdir, True,
                      time.monotonic() + RUN_DEADLINE_S)
        problems += [f"{name}: {p}" for p in rec["problems"]]
        problems += [f"{name}: {line}" for line in rec.get("stderr", [])
                     if "hook target not found" in line]
        layers = rec.get("layers", {})
        if set(layers) != layer_names:
            problems.append(f"{name}: traced metrics {sorted(layers)} do not match "
                            f"BENCHMARK.json per_layer")
        for key in EXPECTED_NONZERO[name]:
            if not layers.get(key):
                problems.append(f"{name}: {key} is zero")
        for key, want in exact[name].items():
            if layers.get(key) != want:
                problems.append(f"{name}: {key} = {layers.get(key)}, expected {want}")
        print(f"[selftest] {outdir}: " + ", ".join(f"{k}={layers.get(k)}"
                                                for k in sorted(EXPECTED_NONZERO[name])))
    for p in problems:
        print(f"[selftest] FAIL {p}")
    print("[selftest] " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run one traced repetition per part and check the hooks")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "shadowkit", "cli.py")):
        print("run.py: no src/shadowkit here; run it from the root of a shadowkit "
              "checkout", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None or args.seed < 0:
        parser.error("--workload is required and --seed must be >= 0")
    reference = load_reference()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    load_before = os.getloadavg()
    env = environment()
    results = {}
    for name in names:
        records = run_workload(name, args.seed, args.seconds, args.trace, reference)
        env.update(loadavg_before=load_before, loadavg_after=os.getloadavg())
        results[name] = report(name, args.seed, args.trace, records, env)
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
