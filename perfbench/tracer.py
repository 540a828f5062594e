"""Outside-in span tracing of bottnull's layer functions.

``install()`` replaces each traced function at every module binding of the
same object (``ledger`` imports ``psupp`` and ``weights`` by name, ``bwb``
and ``repthy`` import ``weights`` by name), so a call is recorded whichever
module makes it.  Nothing under ``src/`` is edited; the wrappers live here.

Each span records (name, start, end, parent span, op id) in memory.  Self
time is a span's duration minus the time its child spans cover.  Counters
are computed from arguments and results after the span has closed, and that
counting time is hidden from the parent's self time as well, so it shows up
only in the tracing overhead.

Nothing finer than ``weyl.dot`` is wrapped: ``simple_reflection`` runs about
1.3M times in an A7 ``report``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _convolve(args, kwargs, out):
    pairs = len(args[0]) * len(args[1])
    return {"pairs": pairs, "out_weights": len(out)}


def _dot_walk(args, kwargs, out):
    steps = 0
    singular = 0
    for res in out:
        if res is None:
            singular += 1
        else:
            steps += res[0]
    return {"weights": len(out), "steps": steps, "singular": singular}


def _weights(args, kwargs, out):
    return {"distinct_weights": len(out), "total_dim": out.total_dim}


def _e_page(args, kwargs, out):
    return {"cells": len(out.cells)}


def _rref(args, kwargs, out):
    bits = 0
    for row in out:
        for x in row:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
            if b > bits:
                bits = b
    return {"rows_in": len(args[0]), "rows_out": len(out),
            "max_entry_bits": bits}


# (module, function, counter) for every traced function.  The order is the
# order of the per-layer metrics.
TARGETS = (
    ("rootsys", "build_root_system", None),
    ("weyl", "enumerate_elements", None),
    ("weyl", "dot", None),
    ("weyl", "to_dominant", None),
    ("_kernels", "convolve", _convolve),
    ("_kernels", "dot_walk_batch", _dot_walk),
    ("bundles", "weights", _weights),
    ("bwb", "psupp", None),
    ("bwb", "euler_characteristic", None),
    ("bwb", "euler_line", None),
    ("bwb", "kostant_check", None),
    ("bwb", "distinct_roots_check", None),
    ("repthy", "mult_in", None),
    ("repthy", "decompose_multiset", None),
    ("repthy", "irrep_character", None),
    ("repthy", "weyl_dim", None),
    ("ledger", "e_page", _e_page),
    ("ledger", "verdict", None),
    ("ledger", "validate_table", None),
    ("nullcone", "rref", _rref),
    ("nullcone", "in_nullcone", None),
    ("nullcone", "common_flag", None),
    ("nullcone", "resolution_sample", None),
    ("nullcone", "mat_inverse", None),
    ("nullcone", "triangularize", None),
)

# Metric names must start with a letter or digit: ``_kernels`` reads
# ``kernels``.
NAMES = tuple(f"{m.lstrip('_')}.{f}" for m, f, _ in TARGETS)


class Tracer:
    """Span recorder shared by all wrappers of one process."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list = []
        self.stack: list = []  # [span index, child seconds] per open span
        self.stats = {name: {"calls": 0, "self_s": 0.0} for name in NAMES}
        self.seen_chars: set = set()

    def wrap(self, name, fn, counter):
        stats = self.stats[name]
        spans = self.spans
        stack = self.stack
        tracer = self
        extra = None
        if name == "weyl.enumerate_elements":
            extra = self._enum_counter(fn)
        elif name == "repthy.irrep_character":
            extra = self._char_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            pre = extra(args, None, None) if extra else None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, tracer.op)
                stats["calls"] += 1
                stats["self_s"] += (t1 - t0) - frame[1]
            if counter is not None:
                for key, val in counter(args, kwargs, out).items():
                    if key == "max_entry_bits":
                        stats[key] = max(stats.get(key, 0), val)
                    else:
                        stats[key] = stats.get(key, 0) + val
            if extra is not None:
                extra(args, out, pre)
            if stack:
                stack[-1][1] += perf_counter() - t0
            return out

        for attr in ("cache_info", "cache_clear", "__wrapped__", "__doc__",
                     "__name__", "__qualname__"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _enum_counter(self, fn):
        stats = self.stats["weyl.enumerate_elements"]
        stats.update(elements=0, cache_hits=0)

        def count(args, out, pre):
            info = fn.cache_info()
            if out is None:  # before the call
                return info
            stats["cache_hits"] += info.hits - pre.hits
            if info.misses > pre.misses:
                stats["elements"] += len(out)
            return None

        return count

    def _char_counter(self, args, out, pre):
        if out is None:
            return None
        rs, lam = args[0], tuple(args[1])
        key = (rs.family, rs.rank, lam)
        stats = self.stats["repthy.irrep_character"]
        if key in self.seen_chars:
            stats["repeats"] = stats.get("repeats", 0) + 1
        self.seen_chars.add(key)
        return None

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def install(tracer: Tracer) -> None:
    """Replace every traced function at all of its bindings in bottnull."""
    import bottnull  # noqa: F401
    import bottnull.cli  # noqa: F401  (its by-name imports are bindings too)

    modules = [m for k, m in sorted(sys.modules.items())
               if k == "bottnull" or k.startswith("bottnull.")]
    for (mod_name, fn_name, counter), name in zip(TARGETS, NAMES):
        owner = sys.modules[f"bottnull.{mod_name}"]
        orig = getattr(owner, fn_name)
        wrapped = tracer.wrap(name, orig, counter)
        bound = 0
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"{mod_name}.{fn_name} has no binding")


def layer_metrics(stats: dict) -> dict[str, tuple[float, str]]:
    """Per-layer readings (value, unit) from summed per-function stats."""
    out: dict[str, tuple[float, str]] = {}
    for name in NAMES:
        s = stats.get(name, {})
        out[f"{name}.calls"] = (s.get("calls", 0), "count")
        out[f"{name}.self_s"] = (s.get("self_s", 0.0), "s")
    enum = stats.get("weyl.enumerate_elements", {})
    out["weyl.enumerate_elements.elements"] = (enum.get("elements", 0), "count")
    out["weyl.enumerate_elements.cache_hits"] = (enum.get("cache_hits", 0),
                                                 "count")
    conv = stats.get("kernels.convolve", {})
    pairs = conv.get("pairs", 0)
    out["kernels.convolve.pairs"] = (pairs, "count")
    out["kernels.convolve.out_weights"] = (conv.get("out_weights", 0), "count")
    out["kernels.convolve.merge_ratio"] = (
        conv.get("out_weights", 0) / pairs if pairs else 0.0, "ratio")
    walk = stats.get("kernels.dot_walk_batch", {})
    n = walk.get("weights", 0)
    out["kernels.dot_walk_batch.weights"] = (n, "count")
    out["kernels.dot_walk_batch.steps"] = (walk.get("steps", 0), "count")
    out["kernels.dot_walk_batch.singular_frac"] = (
        walk.get("singular", 0) / n if n else 0.0, "ratio")
    w = stats.get("bundles.weights", {})
    out["bundles.weights.distinct_weights"] = (w.get("distinct_weights", 0),
                                               "count")
    out["bundles.weights.total_dim"] = (w.get("total_dim", 0), "count")
    ch = stats.get("repthy.irrep_character", {})
    calls = ch.get("calls", 0)
    out["repthy.irrep_character.repeat_frac"] = (
        ch.get("repeats", 0) / calls if calls else 0.0, "ratio")
    out["ledger.e_page.cells"] = (stats.get("ledger.e_page", {}).get("cells", 0),
                                  "count")
    rr = stats.get("nullcone.rref", {})
    rows = rr.get("rows_in", 0)
    out["nullcone.rref.rows_in"] = (rows, "count")
    out["nullcone.rref.rank_frac"] = (
        rr.get("rows_out", 0) / rows if rows else 0.0, "ratio")
    out["nullcone.rref.max_entry_bits"] = (rr.get("max_entry_bits", 0), "bits")
    return out


def merge_stats(total: dict, part: dict) -> None:
    """Add one process's per-function stats into a running total."""
    for name, s in part.items():
        tgt = total.setdefault(name, {})
        for key, val in s.items():
            if key == "max_entry_bits":
                tgt[key] = max(tgt.get(key, 0), val)
            else:
                tgt[key] = tgt.get(key, 0) + val
