"""The benchmark's workloads: the CLI calls of one repetition and its checks.

A repetition is one fresh interpreter that imports ``shadowkit`` and makes
the workload's ``shadowkit.cli.main`` calls.  A workload is a sequence of
parts; each part knows how to build its calls from a repetition seed and
how to check the files they write.  Checks compare against values derived
in this file from the exact law of the estimator (see ``support_dim_law``),
not against the code under test.
"""

import csv
import functools
import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

# Part sizes, chosen so one part takes about three seconds on a 2-CPU
# machine; NOTES.md gives the per-unit costs they come from.
ESTIMATE = {"n": 10, "measurements": 2000, "reuse": 4, "batches": 10}
TAIL = {"n": 31, "samples": 2000, "budget": 200, "batches": 10}
# The scan runs at --threads 1: at --threads 2 each pool worker's own
# 2-thread OpenBLAS pool oversubscribes the 2 CPUs and one repetition took
# anywhere from 4.6 to 33 s (NOTES.md), too wide for any bound.
HOMEOPATHIC = {"n": 6, "k_list": (0, 4), "circuits": 1024, "threads": 1}
EXACT_N = tuple(range(3, 11))
EXACT_GROUPS = ("clifford", "unitary")
MOMENT_TABLE_CONFIG = os.path.join("src", "shadowkit", "configs", "moment_table.json")

# The estimate-n10 check fails with probability at most ESTIMATE_ALPHA on a
# correct program; the interval comes from the exact law of the estimate.
ESTIMATE_ALPHA = 1e-9

# The other statistical checks allow Z_LIMIT standard errors.  For the sample
# moments and sample variances below the standard error is the larger of
# the row's own (sampled) one and the exact one: the sampled error alone is
# too small whenever the rare heavy-tail values are missing from a sample.
# With that rule no false alarm occurred in 50,000 simulated repetitions of
# either check drawn from the exact law (largest |z| seen: 4.2).
Z_LIMIT = 6


# ---------------------------------------------------------------------------
# The exact law of the single-shot estimator for the stabilizer pair.

def _gaussian_binomial(n, k):
    num = den = 1
    for i in range(k):
        num *= 2 ** (n - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def support_dim_law(n):
    """P(d = k), k = 0..n, for the Z-basis support dimension d of a uniformly
    random n-qubit stabilizer state: affine k-subspaces times the 2^(k(k+3)/2)
    phase patterns on each, over the 2^n prod(2^j + 1) states."""
    counts = [_gaussian_binomial(n, k) * 2 ** (n - k) * 2 ** (k * (k + 3) // 2)
              for k in range(n + 1)]
    total = 2 ** n * math.prod(2 ** j + 1 for j in range(1, n + 1))
    if sum(counts) != total:
        raise AssertionError("stabilizer state count mismatch")
    return [Fraction(c, total) for c in counts]


def pair_moment(n, m):
    """E[X^m] for X = (2^n + 1)(2^-d - 2^-n), exact."""
    d = 2 ** n
    return sum(p * ((d + 1) * (Fraction(1, 2 ** k) - Fraction(1, d))) ** m
               for k, p in enumerate(support_dim_law(n)))


def pair_variance(n):
    return pair_moment(n, 2) - pair_moment(n, 1) ** 2


def _central_moment(n, m):
    mu = pair_moment(n, 1)
    d = 2 ** n
    return sum(p * ((d + 1) * (Fraction(1, 2 ** k) - Fraction(1, d)) - mu) ** m
               for k, p in enumerate(support_dim_law(n)))


def raw_moment_se(n, m, samples):
    """Exact standard error of the sample m-th raw moment."""
    return math.sqrt(float(pair_moment(n, 2 * m) - pair_moment(n, m) ** 2) / samples)


@functools.lru_cache
def mom_interval(n, size, batches, alpha):
    """Interval that holds a median-of-means estimate with probability
    >= 1 - alpha: the estimate is the lower median of ``batches`` means of
    ``size`` circuit values X, each exactly distributed by support_dim_law.

    With X = c(2^j - 1), j = n - d and c = (2^n + 1)/2^n, a batch sum is c
    times an integer s, whose law is built by convolution.  The lower median
    is <= s iff at least m = (K-1)//2 + 1 batches are, and > s iff at least
    K - m + 1 batches are; each tail is held to alpha/2."""
    law = [float(p) for p in support_dim_law(n)]
    steps = [2 ** (n - k) - 1 for k in range(n + 1)]
    dist = np.array([1.0])
    for _ in range(size):
        new = np.zeros(len(dist) + steps[0])
        for step, p in zip(steps, law):
            new[step:step + len(dist)] += p * dist
        dist = new
    below = np.cumsum(dist)                            # P(sum <= s)
    above = np.append(np.cumsum(dist[::-1])[::-1][1:], 0.0)   # P(sum > s)
    m = (batches - 1) // 2 + 1

    def at_least(q, count):
        return sum(math.comb(batches, j) * q ** j * (1 - q) ** (batches - j)
                   for j in range(count, batches + 1))

    lo = int(np.argmax(at_least(below, m) > alpha / 2))
    hi = int(np.argmax(at_least(above, batches - m + 1) <= alpha / 2))
    scale = (2 ** n + 1) / 2 ** n / size
    return lo * scale, hi * scale


def sample_variance_se(n, samples):
    """Exact standard error of the sample variance (fourth-moment formula)."""
    v = pair_variance(n)
    mu4 = _central_moment(n, 4)
    return math.sqrt(float(mu4 - Fraction(samples - 3, samples - 1) * v * v) / samples)


# ---------------------------------------------------------------------------
# Parts and workloads.

def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


class Part:
    """One named part of a workload.  Subclasses give ``calls``, ``outputs``
    and ``check``; ``stochastic`` says whether outputs depend on the seed (a
    changed digest then is reported, not failed)."""
    name = None
    stochastic = True

    def calls(self, seed, outdir):
        raise NotImplementedError

    def outputs(self, outdir):
        raise NotImplementedError

    def check(self, outdir):
        """List of problems with the outputs; empty when they are correct."""
        raise NotImplementedError


class EstimateN10(Part):
    name = "estimate-n10"

    def calls(self, seed, outdir):
        e = ESTIMATE
        return [["estimate", "--kind", "clifford", "--n", str(e["n"]),
                 "--measurements", str(e["measurements"]), "--reuse", str(e["reuse"]),
                 "--batches", str(e["batches"]), "--seed", str(seed),
                 "--records-out", os.path.join(outdir, "records.jsonl"),
                 "--out", os.path.join(outdir, "estimate.json")]]

    def outputs(self, outdir):
        return [os.path.join(outdir, "estimate.json"), os.path.join(outdir, "records.jsonl")]

    def check(self, outdir):
        e = ESTIMATE
        n, big_n, r, k = e["n"], e["measurements"], e["reuse"], e["batches"]
        problems = []
        with open(os.path.join(outdir, "estimate.json")) as fh:
            res = json.load(fh)
        if (res.get("N"), res.get("R"), res.get("K")) != (big_n, r, k):
            problems.append(f"estimate header {res!r} does not match N={big_n} R={r} K={k}")
        # A shot's value depends only on the Z-support dimension of the
        # rotated state, so the R shots of a circuit agree and the estimate
        # is a median of K means of N/(RK) circuit values.
        lo, hi = mom_interval(n, big_n // (r * k), k, ESTIMATE_ALPHA)
        est = res.get("estimate", math.nan)
        if not lo - 1e-9 <= est <= hi + 1e-9:
            problems.append(f"estimate {est} outside [{lo:.4f}, {hi:.4f}], which holds a "
                            f"correct estimate with probability 1 - {ESTIMATE_ALPHA:g}")
        with open(os.path.join(outdir, "records.jsonl")) as fh:
            lines = [line for line in fh if line.strip()]
        if len(lines) != big_n // r:
            problems.append(f"records file has {len(lines)} lines, expected {big_n // r}")
        for i, line in enumerate(lines):
            rec = json.loads(line)
            outs = rec.get("outcomes", [])
            if (not rec.get("circuit", "").startswith(f"clifford:{n}:") or len(outs) != r
                    or any(len(x) != n or set(x) - {"0", "1"} for x in outs)):
                problems.append(f"record {i} is malformed: {line[:80]!r}")
                break
        return problems


class TailN31(Part):
    name = "tail-n31"

    def calls(self, seed, outdir):
        t = TAIL
        return [["tail-experiment", "--kind", "clifford", "--n", str(t["n"]),
                 "--samples", str(t["samples"]), "--budget", str(t["budget"]),
                 "--batches", str(t["batches"]), "--seed", str(seed),
                 "--out", os.path.join(outdir, "tail.json")]]

    def outputs(self, outdir):
        return [os.path.join(outdir, "tail.json")]

    def check(self, outdir):
        t = TAIL
        with open(os.path.join(outdir, "tail.json")) as fh:
            res = json.load(fh)
        problems = []
        if res.get("samples") != t["samples"] or res.get("replications", 0) < 10:
            problems.append(f"samples {res.get('samples')} / replications "
                            f"{res.get('replications')} do not match the workload")
        for m in (1, 2):
            truth = float(pair_moment(t["n"], m))
            se = max(res["moment_se"][str(m)], raw_moment_se(t["n"], m, t["samples"]))
            got = res["moments"][str(m)]
            if not abs(got - truth) <= Z_LIMIT * se:
                problems.append(f"moment {m} = {got} not within {Z_LIMIT} x {se:.4g} of {truth}")
        return problems


class HomeopathicN6(Part):
    name = "homeopathic-n6"

    def calls(self, seed, outdir):
        h = HOMEOPATHIC
        return [["homeopathic-scan", "--n", str(h["n"]),
                 "--k-list", ",".join(map(str, h["k_list"])),
                 "--circuits", str(h["circuits"]), "--seed", str(seed),
                 "--threads", str(h["threads"]),
                 "--out", os.path.join(outdir, "homeopathic.csv")]]

    def outputs(self, outdir):
        return [os.path.join(outdir, "homeopathic.csv")]

    def check(self, outdir):
        h = HOMEOPATHIC
        with open(os.path.join(outdir, "homeopathic.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if [int(r["k"]) for r in rows] != list(h["k_list"]):
            return [f"rows for k={[r.get('k') for r in rows]}, expected {list(h['k_list'])}"]
        for row in rows:
            est, bound = float(row["estimate"]), float(row["theory"])
            if row["theory_source"] != "vstar_bound" or not est <= bound:
                problems.append(f"k={row['k']}: estimate {est} above its bound {bound}")
            if int(row["k"]) == 0:
                # k = 0 is a plain Clifford circuit: V* is the variance V itself.
                truth = float(pair_variance(h["n"]))
                se = max(float(row["std_error"]), sample_variance_se(h["n"], h["circuits"]))
                if not abs(est - truth) <= Z_LIMIT * se:
                    problems.append(f"k=0: V* = {est} not within {Z_LIMIT} x {se:.4g} of {truth}")
        return problems


class ExactT4(Part):
    name = "exact-t4"
    stochastic = False

    def calls(self, seed, outdir):
        out = [["weingarten", "--t", "4", "--n", str(n), "--group", g,
                "--out", os.path.join(outdir, f"weingarten-{g}-n{n}.csv")]
               for g in EXACT_GROUPS for n in EXACT_N]
        out.append(["moment-table", "--config", MOMENT_TABLE_CONFIG,
                    "--out", os.path.join(outdir, "moment-table.csv")])
        return out

    def outputs(self, outdir):
        names = [f"weingarten-{g}-n{n}.csv" for g in EXACT_GROUPS for n in EXACT_N]
        return [os.path.join(outdir, f) for f in names + ["moment-table.csv"]]

    def check(self, outdir):
        # Exact outputs: the reference digests are the check (see run.py).
        return []


PARTS = {p.name: p for p in (EstimateN10(), TailN31(), HomeopathicN6(), ExactT4())}

# The benchmark's workloads, each run for a whole 60 s run.  The per-shot
# protocol path runs alone, so that a change to the scalar sampler and one to
# the batched sampler (in tail-n31) show in different workloads.  The other
# three parts share a repetition: two 60 s workloads average the host's speed
# drift better than four 30 s ones (NOTES.md, Steadiness).
WORKLOADS = {
    "estimate-n10": (PARTS["estimate-n10"],),
    "tail-homeopathic-exact": (PARTS["tail-n31"], PARTS["homeopathic-n6"], PARTS["exact-t4"]),
}
