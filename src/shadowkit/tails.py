"""Tail behavior of the single-shot estimator, and the circuit-reuse cost model.

For the stabilizer pair (rho = |S><S|, O = |S><S| - I/2^n) with Clifford
circuits the estimator takes the value

    X = (2^n + 1) (2^-d - 2^-n),

where d is the support dimension of the rotated state C|S> in the
computational basis: every outcome x that can occur has the same overlap
2^-d, so X is a function of the circuit alone.  This collapses sampling to
a rank statistic of uniformly random symplectic matrices and makes the
heavy upper tail (small d) explicit.  The exact m-th moments have a closed
form, evaluated here in rational arithmetic, along with their n -> infinity
limits whose super-exponential growth rules out useful subexponential tail
bounds.  For Haar circuits the moment generating function is bounded and a
Bernstein-type tail holds.

Haar and T-gate circuits are the protocol specialized to this pair: each
circuit acts on |0^n> to give its Born vector, as ``protocol.act`` does, and
its R shots are ``protocol.measure`` draws from that vector.  Born vectors
are made one capped batch at a time: a Haar vector alone, T-gate vectors
through ``ensembles.statevectors`` in batches of at most
``BORN_BATCH_ENTRIES`` entries.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bits as f2
from . import clifford as cl
from .ensembles import SampledCircuit, sample_circuits, statevectors
from .protocol import act, measure, median_of_means
from .stabilizer import StabilizerTableau


# ---------------------------------------------------------------------------
# Exact moments.

def clifford_moment(n, m):
    """E(X^m) for the stabilizer pair under Clifford shadows, exact."""
    d = 2 ** n
    total = Fraction(0)
    for k in range(m + 1):
        prod = Fraction(1)
        for ell in range(k):
            prod *= Fraction(2 ** ell + 1, 2 ** ell + d)
        total += math.comb(m, k) * (-1) ** (m - k) * Fraction(1, d ** (m - k)) * prod
    return Fraction(d + 1) ** m * total


def limiting_moment(m):
    """lim_n E(X_n^m): integer-valued, growing like 2^(m(m-1)/2)."""
    total = 0
    for k in range(m + 1):
        prod = 1
        for ell in range(k):
            prod *= 2 ** ell + 1
        total += math.comb(m, k) * (-1) ** (m - k) * prod
    return Fraction(total)


# ---------------------------------------------------------------------------
# Haar-side bounds.

def mgf_bound_haar(t, tr_orho, o_hs):
    """Bound on E(exp(t X)) for Haar shadows with a traceless observable."""
    a = abs(t) * o_hs
    if a >= 1:
        raise ValueError("bound requires |t| < 1/||O||_HS")
    return 1.0 + t * tr_orho + t * t * o_hs * o_hs * (3 - 2 * a) / (1 - a) ** 2


def bernstein_tail(eps, n_samples, o_hs):
    """Two-branch tail bound for the mean of N Haar single shots."""
    if eps <= 0:
        raise ValueError("threshold must be positive")
    if eps <= 12 * o_hs:
        return 2.0 * math.exp(-n_samples * eps * eps / (48 * o_hs * o_hs))
    return 2.0 * math.exp(-n_samples * eps / (4 * o_hs))


# ---------------------------------------------------------------------------
# Fast exact sampling of X for the stabilizer pair.

# Symplectic matrices drawn per batch by ``sample_pair_support_dims``.
SUPPORT_DIM_CHUNK = 4096


def sample_pair_support_dims(n, rng, count):
    """Support dimensions d of C|0^n> for uniform C, drawn in batches.

    Only the symplectic part matters: d is the F2 rank of the x-block of
    the transformed Z generators, i.e. of S[:n, n:].
    """
    out = np.empty(count, dtype=np.int64)
    done = 0
    while done < count:
        b = min(SUPPORT_DIM_CHUNK, count - done)
        s = cl.sample_symplectic_batch(n, rng, b)
        out[done:done + b] = f2.rank_f2_batch(s[:, :n, n:])
        done += b
    return out


def _circuit_fixed_xvalues(spec, rng, count):
    """Per-circuit X where the circuit alone fixes it, else None.

    On the Clifford path every admissible outcome gives the same value, set
    by the support dimension; the identity circuit always has d = 0.
    """
    n = spec.n
    d = 2 ** n
    if spec.kind == "clifford":
        dims = sample_pair_support_dims(n, rng, count)
        return (d + 1) * (np.exp2(-dims.astype(float)) - 2.0 ** -n)
    if spec.kind == "identity":
        return np.full(count, (d + 1) * (1 - 2.0 ** -n))
    return None


# Entries of the (circuits, 2^n) batch of T-gate Born vectors that
# ``_pair_born_vectors`` holds at once: 256 circuits at n = 6, one at n >= 14.
BORN_BATCH_ENTRIES = 2 ** 14


def _pair_born_vectors(spec, rng, count):
    """Rotated Born vectors |<x|U|0^n>|^2 for count circuits, unnormalized as
    ``protocol.act`` gives them, made one capped batch at a time as the
    returned iterator is read.

    Every circuit is drawn here, before any vector is made (T-gate circuits
    in one batch of segments), so a caller's later draws from ``rng`` come
    after all of them.  T-gate vectors are made BORN_BATCH_ENTRIES entries at
    a time by ``ensembles.statevectors``; Haar vectors one circuit at a time.
    """
    n = spec.n
    zero = StabilizerTableau.zero_state(n)
    if spec.kind == "homeopathic":
        per = spec.k + 1
        segments = cl.sample_uniform_batch(n, rng, count * per)
        circuits = [SampledCircuit("homeopathic", n, segments=segments[i * per:(i + 1) * per])
                    for i in range(count)]
        return _born_batches(circuits, zero, max(1, BORN_BATCH_ENTRIES >> n))
    circuits = sample_circuits(spec, [rng] * count)
    circuits.reverse()
    # each circuit is dropped once used, so no Haar unitary outlives its circuit
    return (act(circuits.pop(), zero) for _ in range(count))


def _born_batches(circuits, state, size):
    """The Born vectors of ``act``, one row at a time, from batches of size circuits."""
    for start in range(0, len(circuits), size):
        yield from np.abs(statevectors(circuits[start:start + size], state)) ** 2


def sample_pair_xvalues(spec, rng, count, reuse=1):
    """Per-circuit estimator values for the stabilizer pair under ``spec``.

    With reuse R each entry is the mean of the R single-shot values of one
    circuit.  On the Clifford path every admissible outcome gives the same
    value, so the R repetitions are collapsed analytically.
    """
    fixed = _circuit_fixed_xvalues(spec, rng, count)
    if fixed is not None:
        return fixed
    n = spec.n
    d = 2 ** n
    out = np.empty(count)
    for i, a in enumerate(_pair_born_vectors(spec, rng, count)):
        p = a / a.sum()
        out[i] = (d + 1) * (p[measure(a, reuse, rng)].mean() - 2.0 ** -n)
    return out


def pair_conditional_means(spec, rng, count):
    """Exact E_x[X|U] per circuit for the stabilizer pair.

    Equals (2^n+1)(sum_x p_x^2 - 2^-n) with p the rotated Born vector; on
    the Clifford path p is flat on its support so this is the single-shot
    value itself.
    """
    fixed = _circuit_fixed_xvalues(spec, rng, count)
    if fixed is not None:
        return fixed
    d = 2 ** spec.n
    born = (a / a.sum() for a in _pair_born_vectors(spec, rng, count))
    return np.fromiter(((d + 1) * ((p * p).sum() - 2.0 ** -spec.n) for p in born),
                       float, count)


# ---------------------------------------------------------------------------
# Sample statistics.

def variance_of_sample_variance(values):
    """(sample variance, its standard error) via the fourth-moment formula."""
    values = np.asarray(values, dtype=float)
    m = len(values)
    s2 = float(np.var(values, ddof=1))
    centered = values - values.mean()
    mu4 = float(np.mean(centered ** 4))
    var_s2 = (mu4 - (m - 3) / (m - 1) * s2 * s2) / m
    return s2, math.sqrt(max(var_s2, 0.0))


# ---------------------------------------------------------------------------
# The tail experiment.

def tail_experiment(spec, samples, rng, budget=10_000, batches=40):
    """Empirical moments, exceedance frequencies and the mean-vs-median
    comparison for the stabilizer pair under ``spec``.

    The sample stream is split into replications of ``budget`` values; each
    replication produces one plain mean and one median of ``batches`` batch
    means, compared by squared error against the exact expectation.
    """
    n = spec.n
    xs = sample_pair_xvalues(spec, rng, samples)
    # raw moments 1..8; the m-th's standard error reads the 2m-th
    raw = {m: float(np.sum(xs ** m) / len(xs)) for m in range(1, 9)}
    true_mean = 1.0 - 2.0 ** -n
    thresholds = [2.0, 2.0 ** (n / 2), 2.0 ** n / 4]
    deviations = np.abs(xs - true_mean)
    exceedance = [{"threshold": t, "frequency": float(np.mean(deviations >= t))}
                  for t in thresholds]
    reps = len(xs) // budget
    mean_errors, mom_errors = [], []
    for r in range(reps):
        block = xs[r * budget:(r + 1) * budget]
        mean_errors.append((float(np.mean(block)) - true_mean) ** 2)
        mom_errors.append((median_of_means(block, batches) - true_mean) ** 2)
    mean_errors = np.array(mean_errors)
    mom_errors = np.array(mom_errors)
    summary = {
        "ensemble": spec.to_json(),
        "samples": int(samples),
        "true_mean": true_mean,
        "moments": {str(m): raw[m] for m in range(1, 5)},
        "moment_se": {str(m): math.sqrt(max(raw[2 * m] - raw[m] ** 2, 0.0) / len(xs))
                      for m in range(1, 5)},
        "exceedance": exceedance,
        "replications": int(reps),
        "budget": int(budget),
        "batches": int(batches),
    }
    if reps:
        summary["mse_mean"] = float(mean_errors.mean())
        summary["mse_median_of_means"] = float(mom_errors.mean())
        summary["median_of_means_wins"] = float(np.mean(mom_errors < mean_errors))
    return summary


# ---------------------------------------------------------------------------
# Cost model and optimal reuse.

@dataclass(frozen=True)
class CostModel:
    """Generating a circuit costs alpha >= 1, re-using it costs 1, so N
    measurements at reuse R cost (N/R)(alpha + R - 1)."""
    alpha: float
    budget: float = 1.0
    v1: float = 1.0
    k: int = 0
    max_reuse: int = 1024

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("circuit generation cost must be >= 1")
        if self.budget <= 0:
            raise ValueError("budget must be positive")


def reuse_objective(model, vstar, reuse):
    """Accuracy proxy (alpha + R - 1) V_R, up to the fixed 1/C factor."""
    vr = model.v1 / reuse + (reuse - 1) / reuse * vstar
    return (model.alpha + reuse - 1) * vr


def optimal_reuse(model, vstar):
    """Integer R minimizing the cost-weighted variance, by exact scan.

    Ties break toward smaller R.  The continuous relaxation has its
    minimum at sqrt((alpha-1)(v1-vstar)/vstar); the scan is authoritative.
    """
    if not model.v1 >= vstar >= 0:
        raise ValueError("expected v1 >= vstar >= 0")
    best_r, best_val = 1, reuse_objective(model, vstar, 1)
    for r in range(2, model.max_reuse + 1):
        val = reuse_objective(model, vstar, r)
        # require a real improvement so float noise cannot break ties upward
        if val < best_val * (1 - 1e-12):
            best_r, best_val = r, val
    return best_r


def continuous_reuse_heuristic(alpha, v1, vstar):
    """Stationary point of the continuous relaxation; inf when vstar = 0."""
    if vstar <= 0:
        return math.inf
    return math.sqrt(max((alpha - 1) * (v1 - vstar), 0.0) / vstar)
