"""Per-layer spans for a traced repetition, recorded from outside the library.

``install`` replaces each hooked function by a wrapper that records a span
(name, start, end, parent) in memory.  A module-level function is replaced
under every name a ``shadowkit`` module holds it by, because callers look
functions up in different places: ``protocol`` imports ``overlap_sq`` and
``sample_circuit`` by name, ``cli`` imports ``emit`` by name, while ``tails``
and ``ensembles`` call through the ``cl.`` module attribute.  Methods are
replaced on their class.

Spans of one name do not nest: an inner call under a span of the same name
runs unwrapped, so ``clifford.sample`` times outermost sampler calls only.
Spans of forked pool workers are not collected: every workload runs its
work in the traced process.
"""

import functools
import importlib
import os
import sys
import time
from collections import Counter


def _count_arg(index, name):
    """Counter increment read from a call argument (a batch size)."""
    def get(args, kwargs, result):
        return args[index] if len(args) > index else kwargs[name]
    return get


def _one(args, kwargs, result):
    return 1


def _file_size(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _text_bytes(args, kwargs, result):
    return len(result.encode())


# (span name, "module:function" or "module:Class.method", counter, counter fn)
HOOKS = [
    ("clifford.sample", "clifford:sample_uniform", "clifford.circuits", _one),
    ("clifford.sample", "clifford:sample_uniform_batch", "clifford.circuits",
     _count_arg(2, "count")),
    ("clifford.sample", "clifford:sample_symplectic_batch", "clifford.circuits",
     _count_arg(2, "count")),
    ("clifford.to_dense", "clifford:CliffordElement.to_dense", None, None),
    ("bits.rank_batch", "bits:rank_f2_batch", None, None),
    ("stabilizer.shot", "stabilizer:StabilizerTableau.sample_z_basis", None, None),
    ("stabilizer.evolve", "stabilizer:StabilizerTableau.apply_clifford", None, None),
    ("stabilizer.overlap", "stabilizer:overlap_sq", None, None),
    ("stabilizer.statevector", "stabilizer:StabilizerTableau.statevector", None, None),
    ("ensembles.descriptor", "ensembles:SampledCircuit.descriptor", None, None),
    ("ensembles.descriptor", "ensembles:SampledCircuit.from_descriptor", None, None),
    ("protocol.acquire", "protocol:acquire", None, None),
    ("protocol.eval", "protocol:record_values", None, None),
    ("protocol.single_shot", "protocol:single_shot", None, None),
    ("protocol.single_shot_exact", "protocol:single_shot_exact", None, None),
    ("protocol.records_write", "protocol:write_records", "protocol.records_bytes",
     _file_size),
    ("tails.cond_means", "tails:pair_conditional_means", None, None),
    ("tails.moment", "tails:clifford_moment", None, None),
    ("tails.moment", "tails:limiting_moment", None, None),
    ("moments.gram", "moments:gram_matrix", None, None),
    ("moments.weingarten", "moments:weingarten_matrix", None, None),
    ("exact.inverse", "exact:inverse", None, None),
    ("experiments.parallel_wait", "experiments:pair_vstar_samples", None, None),
    ("experiments.emit", "experiments:emit", "experiments.emit_bytes", _text_bytes),
]

# Per-layer metrics that are call counts of a span, and the spans whose
# summed duration is reported as "<span>_s".
CALL_COUNTS = {"stabilizer.shots": "stabilizer.shot",
               "clifford.to_dense_calls": "clifford.to_dense",
               "protocol.single_shot_calls": "protocol.single_shot"}
TIMED = ("clifford.sample", "clifford.to_dense", "bits.rank_batch", "stabilizer.shot",
         "stabilizer.evolve", "stabilizer.overlap", "stabilizer.statevector",
         "ensembles.descriptor", "protocol.acquire", "protocol.eval",
         "protocol.records_write", "tails.cond_means", "tails.moment", "moments.gram",
         "moments.weingarten", "exact.inverse", "experiments.parallel_wait",
         "experiments.emit")
SELF_TIMED = ("tails.cond_means",)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []                 # [name, start, end, parent index]
        self.stack = []
        self.active = Counter()
        self.counts = Counter()

    def wrap(self, name, fn, counter=None, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.active[name]:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append([name, time.perf_counter(), None, parent])
            tracer.stack.append(idx)
            tracer.active[name] += 1
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    tracer.counts[counter] += count(args, kwargs, result)
                return result
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                tracer.stack.pop()
                tracer.active[name] -= 1

        return traced

    def install(self, hooks=HOOKS):
        """Wrap every hook target; returns the targets that do not exist."""
        missing = []
        for name, target, counter, count in hooks:
            modname, _, attr = target.partition(":")
            owner_name, _, fname = attr.rpartition(".")
            try:
                module = importlib.import_module("shadowkit." + modname)
            except ImportError:
                missing.append(target)
                continue
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(fname) if owner is not None else None
                if raw is None:
                    missing.append(target)
                elif isinstance(raw, classmethod):
                    setattr(owner, fname,
                            classmethod(self.wrap(name, raw.__func__, counter, count)))
                else:
                    setattr(owner, fname, self.wrap(name, raw, counter, count))
                continue
            fn = getattr(module, fname, None)
            if fn is None:
                missing.append(target)
                continue
            wrapped = self.wrap(name, fn, counter, count)
            for modname_, mod in list(sys.modules.items()):
                if modname_ == "shadowkit" or modname_.startswith("shadowkit."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
        return missing

    def collect(self):
        """Per-layer metrics from the recorded spans."""
        busy, calls, self_time = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            busy[name] += end - start
            calls[name] += 1
            self_time[name] += end - start - child[i]
        out = {f"{name}_s": busy[name] for name in TIMED}
        out.update({f"{name}_self_s": self_time[name] for name in SELF_TIMED})
        out.update({metric: calls[span] for metric, span in CALL_COUNTS.items()})
        for counter in ("clifford.circuits", "protocol.records_bytes",
                        "experiments.emit_bytes"):
            out[counter] = self.counts[counter]
        shots = calls["protocol.single_shot"]
        out["protocol.fast_path_share"] = (calls["protocol.single_shot_exact"] / shots
                                           if shots else 0.0)
        return out
