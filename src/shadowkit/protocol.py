"""Shadow estimation with and without circuit reuse.

The single-shot estimator for a circuit U and outcome x is

    X = (2^n + 1) <x| U O U^dag |x> - tr(O),

which is the inverse-frame-operator estimator for any of the supported
ensembles (all have the 2-design frame operator).  A record holds one
circuit and its R outcomes, and X is evaluated a chunk of same-spec circuits
at a time: ``shot_values`` maps B circuits and their (B, R) outcomes to (B, R)
values, one vectorized path per (circuit kind, observable kind) pair.  A
stabilizer projector is read off the circuits' ``act`` on its state: on a
Clifford circuit, one membership test of all B R outcomes against the
rotated tableaux' Z-basis supports picks the exact dyadic value on the
support (one per support dimension, made once per n) or off it; else one
gather from the Born vectors |U psi'|^2.  A Pauli is a sum of parities over
at most 2^k signed Pauli branches on a Clifford or T-gate circuit (one exact
parity on a Clifford), all from one ``push_rows``, and on a Haar circuit row
x of its unitary u gives Re(u[x] . P u[x]^*), in O(2^n) per shot.  No
observable is ever made dense.  ``single_shot`` is the one-circuit,
one-shot case.

States are stabilizer tableaux.  Acquisition draws N/R circuits and
measures each one R times.  Every circuit index owns a deterministic rng
substream derived from (seed, index), so circuits are drawn a chunk at a
time, from their own streams, and built in one batch, and transcripts are
reproducible bit for bit regardless of chunking or evaluation order.
``act`` is the one place where circuits act on a state, a list of same-spec
circuits at a time: a Clifford circuit gives the rotated tableau, its
Z-basis support found with the whole list's, any other circuit the Born
vector |U psi|^2.  Each circuit's R shots are drawn from that action in one
draw.  ``_circuit_shots`` is the one stream of chunks: ``acquire`` takes
its records half, and ``estimate`` its values too, reusing the action to
evaluate the projector of the state itself; each chunk's per-circuit means
are row means of its values, and its records are written in one write.
``record_values`` evaluates records read back from their descriptors, a
chunk of consecutive same-spec records at a time, to the same values.
Records are grouped into K batches and estimates are medians of batch means.
``conditional_means`` is the one place where E_x[X|U] is computed, over
``act``: exactly and in poly(n) on Clifford circuits, from the Born vector
otherwise.  ``conditional_mean``, ``estimate_vstar`` (V*) and the ``tails``
pair conditional means call it.

An outcome x is an int, qubit 0 its most significant bit.  Only a shadow
record holds it as a bitstring of exactly n characters 0/1: ``_records``
writes it and ``parse_outcome`` reads it back, refusing anything else;
``record_lines`` formats record lines with the bytes of ``json.dumps``.
"""

import functools
import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import clifford as cl
from . import stabilizer
from .ensembles import (EnsembleSpec, SampledCircuit, descriptors, push_rows,
                        require_at_least, sample_circuits, statevectors, substream)
from .stabilizer import StabilizerTableau, halves


@dataclass(frozen=True)
class ObservableSpec:
    """Observable in one of two forms: stabilizer projector minus identity
    (traceless by construction) or a Hermitian Pauli string."""
    kind: str
    payload: object
    n: int

    @classmethod
    def stabilizer_projector(cls, tab):
        """O = |S><S| - I/2^n."""
        return cls("stab_projector", tab, tab.n)

    @classmethod
    def pauli(cls, p):
        if not p.is_hermitian():
            raise ValueError(f"Pauli {p.label()} is not Hermitian")
        return cls("pauli", p, p.n)

    def trace(self):
        p = self.payload
        if self.kind == "stab_projector" or p.word:
            return Fraction(0)
        return Fraction(p.hermitian_sign() * 2 ** self.n)


@dataclass(frozen=True)
class RunConfig:
    ensemble: EnsembleSpec
    measurements: int              # N: total measurements
    reuse: int = 1                 # R: shots per circuit
    batches: int = 1               # K: median-of-means batches
    seed: int = 0

    def __post_init__(self):
        for name in ("measurements", "reuse", "batches"):
            require_at_least(name, getattr(self, name))
        require_at_least("seed", self.seed, 0)
        if self.measurements % (self.reuse * self.batches):
            raise ValueError("N must be a multiple of R*K")

    @property
    def circuits(self):
        return self.measurements // self.reuse


@dataclass
class ShadowRecord:
    circuit: str                   # serialized descriptor
    outcomes: list

    def to_json(self):
        """The record's line, without its newline: the one-record case of
        ``record_lines``."""
        return record_lines([self.circuit], [self.outcomes])[:-1]

    @classmethod
    def from_json(cls, line):
        """The record of one records-file line: a JSON object with a string
        ``circuit`` and a non-empty list ``outcomes``."""
        obj = json.loads(line)
        if not (isinstance(obj, dict) and isinstance(obj.get("circuit"), str)
                and isinstance(obj.get("outcomes"), list) and obj["outcomes"]):
            raise ValueError(f"record {line.strip()[:80]!r} is not an object with a "
                             f"string circuit and a non-empty list of outcomes")
        return cls(circuit=obj["circuit"], outcomes=obj["outcomes"])


# Printable ASCII but '"' and '\\': the text json.dumps writes as it is.
_VERBATIM = re.compile(r'[ !#-\[\]-~]*')


def record_lines(descriptors, shots):
    """The records-file lines of circuit descriptors and their outcome
    strings, as one str: each line is the bytes of ``json.dumps({"circuit":
    descriptor, "outcomes": shots})`` and a newline.  Every string is written
    as it is, so one that JSON would escape is refused."""
    if not _VERBATIM.fullmatch("".join(descriptors) + "".join(map("".join, shots))):
        raise ValueError("record text must be printable ASCII without quotes or backslashes")
    return "".join(['{"circuit": "%s", "outcomes": ["%s"]}\n' % (desc, '", "'.join(outs))
                    for desc, outs in zip(descriptors, shots)])


def write_records(records, path):
    with open(path, "w") as fh:
        fh.write(record_lines([r.circuit for r in records], [r.outcomes for r in records]))


def read_records(path):
    with open(path) as fh:
        return [ShadowRecord.from_json(line) for line in fh if line.strip()]


def _records(circuits, outcomes):
    """The descriptors of a chunk of same-spec circuits and their (B, R) int
    outcomes as bitstrings, n characters 0/1 each, qubit 0 first."""
    width = f"0{circuits[0].n}b"
    return descriptors(circuits), [[format(x, width) for x in row] for row in outcomes.tolist()]


def parse_outcome(x, n):
    """The int of a record's outcome, which must be exactly n characters 0/1."""
    if not (isinstance(x, str) and len(x) == n and not x.strip("01")):
        raise ValueError(f"outcome {x!r} is not a string of {n} characters 0/1")
    return int(x, 2)


# ---------------------------------------------------------------------------
# Single-shot estimator, evaluated a chunk of circuits at a time.

def shot_values(o, circuits, outcomes, actions=None):
    """The (B, R) values X of B same-spec circuits at their (B, R) int
    outcomes, one vectorized path per (circuit kind, observable kind) pair, as
    listed above.  ``actions`` are the circuits' ``act`` on o.payload when
    the caller already holds them."""
    n, d = o.n, 2 ** o.n
    if circuits[0].n != n:
        raise ValueError("circuit and observable act on different qubit counts")
    outcomes, kind = np.asarray(outcomes, dtype=np.int64), circuits[0].kind
    if o.kind == "pauli":
        tr = float(o.trace())
        if kind == "haar":
            # <x|U P U^dag|x> = u[x] . P u[x]^* from row x of the unitary u
            p, values = o.payload, np.empty(outcomes.shape)
            for b, circuit in enumerate(circuits):
                u = circuit.dense()
                values[b] = [(d + 1) * float(np.real(u[x] @ p.apply(u[x].conj()))) - tr
                             for x in outcomes[b].tolist()]
            return values
        z, w = _pauli_parities(o, circuits)
        total = np.zeros(outcomes.shape)
        for zj, wj in zip(z.T[..., None], w.T[..., None]):     # summed in order
            total += np.where(np.bitwise_count(zj & outcomes) & 1, -wj, wj)
        return (d + 1) * total - tr
    if actions is None:     # leaving a Haar unitary built, as the caller may read it
        actions = [a for _, a in itertools.islice(act(list(circuits), o.payload), len(circuits))]
    if kind == "clifford":
        supports = stabilizer.stack_supports(actions)
        on, off = _projector_values(n)
        return np.where(stabilizer.in_z_supports(supports, outcomes), on[supports[3], None], off)
    return (d + 1) * (np.take_along_axis(np.array(actions), outcomes, axis=1) - 2.0 ** -n)


@functools.cache
def _projector_values(n):
    """A Clifford circuit's exact projector values as floats: (2^n + 1)(2^-dim
    - 2^-n) on a support of each dimension 0..n, and -(2^n + 1) 2^-n off it."""
    d = 2 ** n
    on = [float((d + 1) * (Fraction(1, 2 ** dim) - Fraction(1, d))) for dim in range(n + 1)]
    return np.array(on), float((d + 1) * (Fraction(0) - Fraction(1, d)))


def _pauli_parities(o, circuits):
    """(B, m) arrays z, w with <x|U P U^dag|x> = sum_j w[b, j] (-1)^(z[b, j].x)
    for a Pauli P and each of B same-spec Clifford or T-gate circuits U, from
    one ``push_rows`` call; a circuit with fewer than m terms has (0, 0.0)
    after them, which add 0 to its sum.

    With U ~ (c - is P_k)...(c - is P_1) C (``push_rows``), U P U^dag is
    Q = C P C^dag pushed through the factors: a branch Q that anticommutes
    with P_j becomes (Q - i P_j Q)/sqrt(2).  The Z-type ones of the at most
    2^k branches are the parities; a Clifford circuit has one branch.
    """
    p = o.payload
    rows, phases = push_rows(circuits, [p.word], [p.phase])
    terms = [_branches(r, ph, o.n) for r, ph in zip(rows.tolist(), phases.tolist())]
    width = max(map(len, terms))
    # z < 2^31 is exact as a float
    table = np.array([t + [(0, 0.0)] * (width - len(t)) for t in terms])
    table = table.reshape(len(terms), width, 2)
    return table[..., 0].astype(np.int64), table[..., 1]


def _branches(rows, phases, n):
    """The parities of one circuit's pushed row Q (``rows[0]``) and branch
    Paulis P_j (the rest), as ``_pauli_parities`` gives them."""
    branches = {halves(rows[0], n): 1j ** phases[0]}
    for b, phase in zip(rows[1:], phases[1:]):
        (bx, bz), split = halves(b, n), {}
        for (x, z), c in branches.items():
            if ((x & bz).bit_count() + (z & bx).bit_count()) % 2:
                c *= math.sqrt(0.5)
                # -i P_j Q = -i^(1 + phase + 2 bz.x) X^(bx ^ x) Z^(bz ^ z)
                key, a = (x ^ bx, z ^ bz), 1 + phase + 2 * (bz & x).bit_count()
                split[key] = split.get(key, 0) - 1j ** a * c
            split[x, z] = split.get((x, z), 0) + c
        branches = split
    # <x|i^a Z^z|x> = i^a (-1)^(z.x), and the sum over branches is real
    return [(z, c.real) for (x, z), c in branches.items() if x == 0]


def single_shot(o, circuit, x):
    """The estimator value X for one classical shadow (circuit, x), with x a
    bitstring as in a record: the one-circuit, one-shot case of
    ``shot_values``."""
    return float(shot_values(o, [circuit], [[parse_outcome(x, o.n)]])[0, 0])


# ---------------------------------------------------------------------------
# Acquisition and estimation.

# Entries of the (circuits, 2^n) batch of T-gate Born vectors that ``act``
# holds at once: 256 circuits at n = 6, one at n >= 14.
BORN_BATCH_ENTRIES = 2 ** 14


def act(circuits, state):
    """Yield (circuit, action) for each of a list of same-spec circuits, in
    order: the rotated tableau of a Clifford circuit, else the Born vector
    |U psi|^2.  The whole Clifford list is rotated by one
    ``conjugate_rows_batch`` and its Z-basis supports found by one
    ``stabilizer.tableaux``; T-gate Born vectors come from ``statevectors``
    BORN_BATCH_ENTRIES entries at a time; a Haar circuit multiplies the
    state's statevector, made once.  The list is emptied as it is read, and
    a Haar circuit's unitary is dropped when the next circuit is asked for
    (``dense`` would build it again), so one unitary is alive at a time."""
    circuits.reverse()
    kind = circuits[-1].kind if circuits else None
    if kind == "clifford":
        rows = (np.broadcast_to(a, (len(circuits),) + a.shape) for a in (state.rows, state.phases))
        elements = [c.element for c in reversed(circuits)]
        for rotated in stabilizer.tableaux(*cl.conjugate_rows_batch(elements, *rows)):
            yield circuits.pop(), rotated
    elif kind == "haar":
        psi = state.statevector()
        while circuits:
            circuit = circuits.pop()
            yield circuit, np.abs(circuit.dense() @ psi) ** 2
            circuit._dense = None  # the caller has moved on: free U before the next is built
    elif kind:
        size = max(1, BORN_BATCH_ENTRIES >> state.n)
        while circuits:
            batch = [circuits.pop() for _ in range(min(size, len(circuits)))]
            yield from zip(batch, np.abs(statevectors(batch, state)) ** 2)


def measure(action, reuse, rng):
    """R Z-basis outcomes, as ints, drawn in one draw from a Born vector that
    ``act`` gave (a Clifford chunk draws through ``stabilizer.sample_z_bases``)."""
    return rng.choice(len(action), size=reuse, p=action / action.sum()).tolist()


# Circuits drawn, built, acted on, evaluated and written per chunk by
# ``_circuit_shots``: one Koenig-Smolin build, one conjugation and one
# ``z_support_arrays`` serve the whole chunk.  Each circuit keeps its rng
# stream (about 12 KB, tracemalloc) until its shots are drawn.  The CLI's
# n = 10 Clifford estimate (500 circuits, R = 4, records written) peaks at
# 39.2 MB RSS at 64, against 38.5 MB at 16 and 40.4 MB at 128.
CIRCUIT_CHUNK = 64


def _chunk_size(kind, n):
    """Circuits per chunk: CIRCUIT_CHUNK, or as many T-gate circuits as one
    batch of Born vectors holds, or one Haar circuit, whose Pauli values read
    the unitary that ``act`` made for its shots."""
    if kind == "haar":
        return 1
    if kind == "homeopathic":
        return min(CIRCUIT_CHUNK, max(1, BORN_BATCH_ENTRIES >> n))
    return CIRCUIT_CHUNK


def _circuit_shots(cfg, state, o=None):
    """Yield the N/R circuits of a run a chunk at a time, in order, each chunk
    as (circuits, outcomes, values): its (B, R) int outcomes and, when an
    observable o is given, their (B, R) ``shot_values``.

    Circuit t owns substream(seed, t).  A chunk's circuits are drawn from
    their streams first, built in one batch and acted on the state in one
    ``act``; each stream then goes on to its circuit's shots, so the bytes
    do not depend on the chunk size.  When O is the projector of the state's
    own tableau, the action on the state serves the evaluation too.
    """
    spec = cfg.ensemble
    shared = o is not None and o.kind == "stab_projector" and o.payload is state
    size = _chunk_size(spec.kind, spec.n)
    for start in range(0, cfg.circuits, size):
        rngs = [substream(cfg.seed, t) for t in range(start, min(start + size, cfg.circuits))]
        circuits = sample_circuits(spec, rngs)
        # ``act`` is not resumed past the last circuit until the values are
        # made, so they can read the last Haar unitary it built
        pairs = act(list(circuits), state)
        actions = [a for _, a in itertools.islice(pairs, len(circuits))]
        if circuits[0].kind == "clifford":
            outcomes = stabilizer.sample_z_bases(stabilizer.stack_supports(actions), rngs,
                                                 cfg.reuse)
        else:
            outcomes = np.array([measure(a, cfg.reuse, rng) for a, rng in zip(actions, rngs)])
        values = None if o is None else \
            shot_values(o, circuits, outcomes, actions if shared else None)
        next(pairs, None)       # now it drops that unitary
        yield circuits, outcomes, values


def acquire(cfg, state):
    """Run the data-acquisition loop: N/R records of R outcomes each, the
    records half of ``_circuit_shots``."""
    return [ShadowRecord(*rec) for circuits, outcomes, _ in _circuit_shots(cfg, state)
            for rec in zip(*_records(circuits, outcomes))]


def median_of_means(values, batches):
    """Median of K consecutive-batch means; even K takes the lower median."""
    require_at_least("batches", batches)
    values = np.asarray(values, dtype=float)
    if len(values) % batches:
        raise ValueError("value count must be divisible by the batch count")
    means = values.reshape(batches, -1).mean(axis=1)
    return float(np.sort(means)[(batches - 1) // 2])


def _record_chunks(records, n):
    """Consecutive records as (circuits, (B, R) int outcomes) chunks of
    ``_chunk_size``, split where the circuit spec or the outcome count
    changes; circuits are built from their descriptors a chunk at a time."""
    circuits, outcomes, key = [], [], None
    for rec in records:
        circuit = SampledCircuit.from_descriptor(rec.circuit)
        last, key = key, (circuit.kind, circuit.n, circuit.k, len(rec.outcomes))
        if circuits and (key != last or len(circuits) == _chunk_size(*key[:2])):
            yield circuits, np.array(outcomes)
            circuits, outcomes = [], []
        circuits.append(circuit)
        outcomes.append([parse_outcome(x, n) for x in rec.outcomes])
    if circuits:
        yield circuits, np.array(outcomes)


def record_values(records, o):
    """Per-record means of the single-shot estimator: ``shot_values`` on
    chunks of consecutive same-spec records, one ``act`` each."""
    out, done = np.empty(len(records)), 0
    for circuits, outcomes in _record_chunks(records, o.n):
        out[done:done + len(circuits)] = shot_values(o, circuits, outcomes).mean(axis=1)
        done += len(circuits)
    return out


def estimate(cfg, state, o, records_out=None):
    """Full protocol: acquire, evaluate, median of K batch means; the
    records are also written, one JSON line each and one write per chunk, to
    ``records_out`` when it is given, a text file open for writing.
    Each chunk of circuits is evaluated as sampled and then dropped, so no
    dense matrix outlives its chunk."""
    values, done = np.empty(cfg.circuits), 0
    for circuits, outcomes, shots in _circuit_shots(cfg, state, o):
        if records_out:
            records_out.write(record_lines(*_records(circuits, outcomes)))
        values[done:done + len(circuits)] = shots.mean(axis=1)
        done += len(circuits)
    est = median_of_means(values, cfg.batches)
    return {"estimate": est, "K": cfg.batches, "R": cfg.reuse,
            "N": cfg.measurements, "seed": cfg.seed}


# ---------------------------------------------------------------------------
# Conditional means and the reuse-limit variance V*.

def conditional_means(circuits, state, o):
    """Yield E_x[X | U], a float, for each of a list of same-spec circuits on
    the state, in order; the list is emptied as ``act`` reads it.  With p (q)
    the Z-basis law of U|psi> (U|S'>, p itself when S' is the state), the
    projector gives (2^n + 1)(sum_x p_x q_x - 2^-n): exact on a Clifford
    circuit (``z_overlap``), else off the normalized Born vectors.  On a
    Clifford circuit p is uniform on x0 + V, so a Pauli parity (-1)^(z.x)
    averages to (-1)^(z.x0) if z is orthogonal to V, else to 0; other
    circuits sum p_x X(x) over the Born vector.
    """
    if circuits and circuits[0].n != o.n:
        raise ValueError("circuit and observable act on different qubit counts")
    d = 2 ** o.n
    others = None if o.kind == "pauli" or o.payload is state else act(list(circuits), o.payload)
    for circuit, p in act(circuits, state):
        q = p if others is None else next(others)[1]
        if o.kind == "stab_projector" and circuit.kind == "clifford":
            yield float((d + 1) * (p.z_overlap(q) - Fraction(1, d)))
        elif o.kind == "stab_projector":
            p = p / p.sum()
            q = p if others is None else q / q.sum()
            yield float((d + 1) * ((p * q).sum() - 2.0 ** -o.n))
        elif circuit.kind == "clifford":
            x0, basis, _ = p.z_support()
            z, w = (a[0].tolist() for a in _pauli_parities(o, [circuit]))
            mean = sum(wj * (-1) ** (zj & x0).bit_count() for zj, wj in zip(z, w)
                       if not any((zj & b).bit_count() % 2 for b in basis))
            yield float((d + 1) * mean - o.trace())
        else:
            xs = np.flatnonzero(p)
            yield float(sum(p[xs] * shot_values(o, [circuit], xs[None])[0]))


def conditional_mean(o, circuit, state):
    """E_x[X | U]: the one-circuit case of ``conditional_means``."""
    return next(conditional_means([circuit], state, o))


def estimate_vstar(spec, state, o, circuits, rng):
    """Sample variance over circuits of the exact conditional mean E_x[X|U].

    This is the variance floor of the estimator under unlimited reuse; the
    inner expectation is contracted exactly so no R -> infinity
    extrapolation or nested sampling is involved.  The circuits are drawn
    one after another from ``rng``.
    """
    require_at_least("circuits", circuits, 2)
    vals = np.fromiter(conditional_means(sample_circuits(spec, [rng] * circuits), state, o),
                       float, circuits)
    return float(np.var(vals, ddof=1))


def stabilizer_pair(n, scramble=None):
    """A stabilizer state and its traceless projector observable.

    The pair (rho = |S><S|, O = |S><S| - I/2^n) used by the plateau and
    tail analyses; ``scramble`` optionally rotates |0^n> by a Clifford.
    """
    tab = StabilizerTableau.zero_state(n)
    if scramble is not None:
        tab = tab.apply_clifford(scramble)
    return tab, ObservableSpec.stabilizer_projector(tab)
