"""One pass of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload expr-session --seed 7 --t0 <clock>
        [--spans PATH] [--tiny] [--inject-wrong]

``--t0`` is the parent's ``time.perf_counter()`` just before it started this
interpreter (the clock is system-wide on Linux), so set-up time covers
interpreter start, the ``bottnull`` import and input generation.  Each op
of the stream is timed on its own and its answer checked right after,
outside the timed window.  Prints one JSON object.  With ``--spans`` the
layer functions are traced and the spans written to PATH.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

import tracer
import workloads
from checks import Checks

ROOT = Path(__file__).resolve().parent.parent


def _setup_tracer(spans: str | None):
    if spans is None:
        return None
    tr = tracer.Tracer()
    tracer.install(tr)
    tr.active = True  # set-up is traced too
    return tr


def _run(ops, after, tr):
    """Time each op, then check its answer outside the timed window.

    ``after(i, result, errors)`` checks op i and may set ``errors[j]`` for
    any op of the same input; answers are dropped once checked, so the
    process's peak memory is the program's own.
    """
    lat, cpu, errors = [], [], [None] * len(ops)
    for i, op in enumerate(ops):
        if tr is not None:
            tr.op = i
            tr.active = True
        c = time.process_time()
        t = time.perf_counter()
        try:
            result = op()
        except Exception as exc:  # an op that raises is a failed op
            result = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        lat.append((time.perf_counter() - t) * 1e3)
        cpu.append((time.process_time() - c) * 1e3)
        if tr is not None:
            tr.active = False
        after(i, result, errors)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return errors, {"wall_s": sum(lat) / 1e3, "lat_ms": lat, "cpu_ms": cpu,
                    "peak_rss_mb": rss}


def expr_session(bn, seed, tiny, checks, tr):
    rs_of = bn.build_root_system
    queries = workloads.session_queries(
        seed, lambda f, r, e: bn.dim(rs_of(f, r), e), tiny)

    def op(q):
        kind = q[0]
        if kind == "verdict":
            return lambda: bn.verdict(q[1], q[2], q[3])
        if kind == "validate_roundtrip":
            return lambda: bn.validate_table(
                bn.load_table(bn.save_table(bn.builtin_tables())))
        fn = {"weights": bn.weights, "psupp": bn.psupp,
              "decompose": bn.decompose}[kind]
        return lambda: fn(rs_of(q[1], q[2]), q[3])

    ops = [op(q) for q in queries]
    # Checks: each answer, each repeat against the first answer's digest,
    # and euler_from_psupp against euler_characteristic on a seeded sample.
    rng = random.Random(seed ^ 0x5EED)
    euler_pool = [i for i, q in enumerate(queries)
                  if q[0] == "psupp" and bn.dim(rs_of(q[1], q[2]), q[3]) <= 5000]
    euler_sample = set(rng.sample(euler_pool, min(8, len(euler_pool))))
    first: dict = {}

    def after(i, res, errors):
        if errors[i] is not None:
            return
        q = queries[i]
        reason = checks.session(bn, q, res, rs_of)
        if reason is None:
            reason = checks.session_repeat(first, q, res)
        if reason is None and i in euler_sample:
            reason = checks.session_euler(bn, rs_of(q[1], q[2]), q[3], res)
        errors[i] = reason

    ready = time.perf_counter()
    errors, timing = _run(ops, after, tr)
    return ready, timing, errors, [q[0] for q in queries]


def nullcone_tuples(bn, seed, tiny, checks, tr):
    nc = bn.nullcone
    cases = workloads.nullcone_cases(seed, tiny)
    ops, names, slots = [], [], []
    out: dict = {}
    for c, case in enumerate(cases):
        if case["kind"] == "resolution":
            g = nc.matrix_from_rows(case["g"])
            x = bn.MatrixTuple(n=case["n"], matrices=tuple(
                nc.matrix_from_rows(m) for m in case["x"]))

            def resolve(c=c, g=g, x=x):
                out[c] = bn.resolution_sample(g, x)
                return out[c]

            ops.append(resolve)
            names.append("resolution_sample")
            slots.append((c, "resolve"))
        else:
            out[c] = bn.MatrixTuple(n=case["n"], matrices=tuple(
                nc.matrix_from_rows(m) for m in case["x"]))

        def member(c=c):
            return bn.in_nullcone(out[c])

        def flag(c=c):
            f = bn.common_flag(out[c])
            return f, (None if f is None else bn.triangularize(out[c], f))

        ops += [member, flag]
        names += ["in_nullcone", "common_flag+triangularize"]
        slots += [(c, "member"), (c, "flag")]

    # Checks run once a case's last op (its flag) is done.  The ops of a
    # case whose resolution point failed are failed too.
    rng = random.Random(seed ^ 0xB0B)
    sample = set(rng.sample(range(len(cases)), min(8, len(cases))))
    member_of: dict = {}

    def after(i, res, errors):
        c, what = slots[i]
        case = cases[c]
        if what == "resolve":
            if errors[i] is None:
                errors[i] = checks.resolution_point(case["g"], case["x"], res)
            return
        if what == "member":
            member_of[c] = (i, res)
            return
        im, member = member_of.pop(c)
        tup = out.pop(c, None)
        if case["kind"] == "resolution" and errors[im - 1] is not None:
            errors[im] = errors[im] or "no resolution point"
            errors[i] = errors[i] or "no resolution point"
            return
        if errors[im] is not None or errors[i] is not None:
            return
        flag, tri = res
        reason = checks.membership(case, member, flag is not None)
        if reason is None and c in sample:
            reason = checks.brute_force(tup.matrices, member)
        errors[im] = reason
        if tri is not None:
            errors[i] = checks.triangular(tri)

    ready = time.perf_counter()
    errors, timing = _run(ops, after, tr)
    return ready, timing, errors, names


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("expr-session", "nullcone-tuples"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-wrong", action="store_true")
    args = ap.parse_args()

    import bottnull as bn

    tr = _setup_tracer(args.spans)
    run = expr_session if args.workload == "expr-session" else nullcone_tuples
    checks = Checks(ROOT, args.inject_wrong)
    ready, timing, errors, names = run(bn, args.seed, args.tiny, checks, tr)
    doc = {"setup_s": ready - args.t0, **timing, "ops": names,
           "failures": [[i, e] for i, e in enumerate(errors) if e is not None],
           "checks": dict(checks.kinds)}
    if tr is not None:
        tr.write_spans(args.spans)
        doc["stats"] = tr.stats
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
