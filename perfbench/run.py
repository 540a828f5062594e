"""bottnull benchmark: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py --workload {cli-cold,expr-session,nullcone-tuples,all}
        --seed N --seconds S --trace {0,1} [--tiny] [--inject-wrong]

Run from the root of a source checkout; the program is imported from
``src/`` and never edited.  Each workload is run in passes, one process at a
time, until about ``--seconds`` have gone by; every pass starts a fresh
interpreter, so warm-process effects stay inside one pass, and each process
is pinned to the CPU that is fastest when it starts:

- ``cli-cold``: one pass is a sweep of the ROADMAP's end-to-end CLI commands,
  each in a fresh interpreter (``python3 -m bottnull.cli``).
- ``expr-session``: one pass is a worker process answering a seeded stream of
  library queries (``perfbench/worker.py``).
- ``nullcone-tuples``: one pass is a worker process running the null-cone
  ops on a seeded grid of matrix tuples.

Answers are checked outside the timed windows.  ``--trace 0`` reports the
end-to-end metrics (see ``end_to_end``); ``--trace 1`` adds one traced pass
and reports the per-layer metrics instead.  The last line of stdout is one JSON
object; a fuller record, with the environment and the spans, is written
under ``perfbench/out/``.  ``--workload all`` runs the three workloads one
after another.  ``--tiny`` runs one small pass (for the self-test);
``--inject-wrong`` feeds one wrong expected value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads
from checks import Checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("cli-cold", "expr-session", "nullcone-tuples")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "peak_rss_mb": "MB"}
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _calib() -> float:
    """Fixed pure-Python reference loop; reported, never used to rescale."""
    runs = []
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        runs.append(time.perf_counter() - t)
    return statistics.median(runs)


CPUS = (sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else [])


def _probe_loop() -> float:
    t = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t


def _pin_fastest_cpu() -> None:
    """Pin this process, and so the next child, to the CPU that runs a short
    reference loop fastest just now.

    On the shared 2-vCPU host the benchmark was tuned on, each vCPU swings
    on its own between a fast and a slow state (see ``end_to_end``); this
    starts each timed process on the one that is fast.  The loop only
    places processes: no time is ever rescaled by it.
    """
    if len(CPUS) < 2:
        return
    best = None
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        t = min(_probe_loop() for _ in range(2))
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})


def _spawn(argv, out_path: Path, err_path: Path, pass_t0: bool = False):
    """Run a child to completion; return (rc, wall s, cpu s, peak rss MB).

    With ``pass_t0`` the child gets ``--t0`` with the clock reading taken
    just before it is started, after the placement probe.
    """
    _pin_fastest_cpu()
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        if pass_t0:
            argv = argv + ["--t0", repr(t0)]
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=CHILD_ENV,
                                cwd=ROOT)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def _fresh_import(tmp: Path, code: str) -> float:
    rc, wall, _, _ = _spawn([sys.executable, "-c", code], tmp / "imp.out",
                            tmp / "imp.err")
    if rc != 0:
        raise RuntimeError((tmp / "imp.err").read_text("utf-8", "replace"))
    return wall


# ---------------------------------------------------------------- cli-cold

def cli_pass(args, checks, tmp: Path, traced: bool, tag: str) -> dict:
    cmds = workloads.cli_commands(args.seed)
    setups, lat, cpu, rss, runs = [], [], [], [], []
    stats_files = {}
    for i, cmd in enumerate(cmds):
        if i % 4 == 0:  # set-up samples spread over the run
            setups.append(_fresh_import(tmp, "import bottnull.cli"))
        out, err = tmp / f"{i}.out", tmp / f"{i}.err"
        if traced:
            stats_files[cmd["name"]] = tmp / f"{i}.stats.json"
            spans = OUT / f"spans-cli-cold-seed{args.seed}-{cmd['name']}.jsonl"
            argv = [sys.executable, str(HERE / "clitrace.py"),
                    str(stats_files[cmd["name"]]), str(spans), str(i), "--"]
        else:
            argv = [sys.executable, "-m", "bottnull.cli"]
        rc, w, c, r = _spawn(argv + cmd["argv"], out, err)
        lat.append(w * 1e3)
        cpu.append(c * 1e3)
        rss.append(r)
        runs.append((cmd["name"], rc, out, err))
    failures, known = [], []
    for name, rc, out, err in runs:
        reason = checks.cli(name, rc, out.read_bytes(), err.read_bytes())
        if reason is not None:
            failures.append([name, reason])
            if checks.known_defect(name, reason):
                known.append(name)
    rec = {"tag": tag, "setups": setups,
           "wall_s": sum(lat) / 1e3, "lat_ms": lat, "cpu_ms": cpu, "rss_mb": rss,
           "names": [c["name"] for c in cmds],
           "attempted": len(cmds), "failures": failures, "known": known}
    if traced:
        rec["cmd_stats"] = {name: json.loads(p.read_text("utf-8"))
                            for name, p in stats_files.items()}
    return rec


# ---------------------------------------------------------------- workers

def worker_pass(args, tmp: Path, traced: bool, tag: str) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload",
            args.workload, "--seed", str(args.seed)]
    if traced:
        argv += ["--spans",
                 str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    if args.tiny:
        argv.append("--tiny")
    if args.inject_wrong:
        argv.append("--inject-wrong")
    out, err = tmp / "worker.out", tmp / "worker.err"
    rc, _, _, _ = _spawn(argv, out, err, pass_t0=True)
    if rc != 0:
        raise RuntimeError(f"worker exited {rc}: "
                           + err.read_text("utf-8", "replace")[-2000:])
    rec = json.loads(out.read_text("utf-8"))
    ops = rec.pop("ops")
    rec.update(tag=tag, attempted=len(ops), known=[], setups=[rec.pop("setup_s")],
               failures=[[f"{i}:{ops[i]}", e] for i, e in rec["failures"]])
    return rec


# ---------------------------------------------------------------- per layer

KERNEL_READINGS = (
    # The two kernel comparisons of benchmarks/bench_kernels.py.
    ("convolve-g2xg-A4", "convolve", ("A", 4), ("g^2", "g")),
    ("convolve-b2xb2-A6", "convolve", ("A", 6), ("b^2", "b^2")),
    ("dot_walk-g3-A4", "dot_walk_batch", ("A", 4), ("g^3",)),
    ("dot_walk-b4-A6", "dot_walk_batch", ("A", 6), ("b^4",)),
)


def kernel_readings(checks) -> dict:
    """Median of 5 timings of the kernel dispatcher, checked against the
    pure reference kernels."""
    from bottnull import _kernels, bundles, build_root_system
    from bottnull._kernels import _pykernels

    out = {}
    for name, fn, (family, rank), exprs in KERNEL_READINGS:
        rs = build_root_system(family, rank)
        ins = [dict(bundles.weights(rs, e).counts) for e in exprs]
        if fn == "convolve":
            call_args = (ins[0], ins[1])
        else:
            call_args = (list(ins[0]), rs.cartan)
        times = []
        for _ in range(5):
            t = time.perf_counter()
            got = getattr(_kernels, fn)(*call_args)
            times.append(time.perf_counter() - t)
        checks.kinds["kernels.agree-with-pure"] += 1
        if got != getattr(_pykernels, fn)(*call_args):
            raise RuntimeError(f"kernel {name} disagrees with the pure kernel")
        out[f"kernels.bench.{name}.s"] = (statistics.median(times), "s")
    return out


def per_layer(args, passes, traced, checks, tmp, calib) -> dict:
    stats: dict = {}
    if args.workload == "cli-cold":
        for part in traced["cmd_stats"].values():
            tracer.merge_stats(stats, part)
    else:
        stats = traced["stats"]
    m = tracer.layer_metrics(stats)
    names = [c["name"] for c in workloads.cli_commands(0)]
    for name in sorted(names):
        vals = [lat / 1e3 for p in passes if "names" in p
                for n, lat in zip(p["names"], p["lat_ms"]) if n == name]
        m[f"cli.{name}.wall_s"] = (
            per_op(args.workload)[1](vals) if vals else 0.0, "s")
    m["cli.interpreter_s"] = (
        statistics.median(_fresh_import(tmp, "pass") for _ in range(5))
        if args.workload == "cli-cold" else 0.0, "s")
    base = statistics.median(p["wall_s"] for p in passes)
    m["trace.overhead_frac"] = (traced["wall_s"] / base - 1, "ratio")
    m["host.calib_s"] = (calib[0], "s")
    m["host.calib_end_s"] = (calib[1], "s")
    m.update(kernel_readings(checks))
    return m


# ---------------------------------------------------------------- main

def environment(args) -> dict:
    import bottnull

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for p in sorted((SRC / "bottnull").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            digest.update(str(p.relative_to(SRC)).encode() + b"\0")
            digest.update(p.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "backend": bottnull.backend_name(),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def per_op(workload: str):
    """(name, function) that turns one op's times over a run's passes into
    its time; see ``end_to_end``."""
    return ("mean", statistics.fmean) if workload == "cli-cold" else ("best", min)


def end_to_end(passes, op_time) -> dict:
    """End-to-end metrics from the untraced passes.

    Every pass runs the same ops in the same order, and each op's time is
    ``op_time`` of its times over the passes: the mean on ``cli-cold``, the
    best (minimum) on the worker workloads.  Wall and CPU time are the sums
    of those times over the op set (so, the op set run once), and the
    latency quantiles are taken over them.  Set-up time and memory are
    medians over their samples.

    On the 2-vCPU Xeon VM the benchmark was tuned on, each vCPU's speed
    swings by about 55% between a fast and a slow state; fast spells last
    up to about half a second, slow ones up to a minute, and the two vCPUs
    swing independently.  A worker op takes milliseconds and is timed in
    10-30 passes, so its best meets a fast spell in nearly every run.  A
    CLI command takes 0.1-5 s and is timed in only 4-6 passes: a fast
    spell seldom covers ``report A7``, and the best of so few samples swings
    with the draw, while their mean follows the share of the run spent slow.
    Over fifteen sets of 4-10 seeds, the worst IQR/median of cli-cold's wall
    time, p50 and p90 averaged 0.18 with means and 0.23 with bests; on the
    worker workloads, bests were the steadier.  ``_pin_fastest_cpu`` raises
    the odds that an op starts on a fast vCPU.
    """
    med = statistics.median
    n = len(passes[0]["lat_ms"])
    lat = [op_time([p["lat_ms"][i] for p in passes]) for i in range(n)]
    cpu = [op_time([p["cpu_ms"][i] for p in passes]) for i in range(n)]
    if "rss_mb" in passes[0]:  # cli-cold: the largest command's memory
        rss = max(med(p["rss_mb"][i] for p in passes) for i in range(n))
    else:
        rss = med(p["peak_rss_mb"] for p in passes)
    return {
        "setup_s": med(s for p in passes for s in p["setups"]),
        "wall_s": sum(lat) / 1e3,
        "cpu_s": sum(cpu) / 1e3,
        "op_p50_ms": _quantile(lat, 0.5),
        "op_p90_ms": _quantile(lat, 0.9),
        "peak_rss_mb": rss,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one small pass per phase (self-test)")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="feed one wrong expected value (self-test)")
    args = ap.parse_args()
    if args.workload == "all":
        rc = 0
        for w in WORKLOADS:
            argv = [a if a != "all" else w for a in sys.argv]
            rc = max(rc, subprocess.run([sys.executable] + argv).returncode)
        return rc

    if not (SRC / "bottnull" / "__init__.py").is_file():
        print(f"perfbench: no bottnull sources under {SRC}", file=sys.stderr)
        return 1
    if not (ROOT / "tests" / "golden").is_dir():
        print("perfbench: tests/golden is missing", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = environment(args)
    checks = Checks(ROOT, args.inject_wrong)
    calib_start = _calib()
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        tmp = Path(tmpdir)
        _fresh_import(tmp, "import bottnull.cli")  # warm the bytecode cache
        min_passes = 2 if args.workload == "cli-cold" else 3

        def one(traced: bool, tag: str) -> dict:
            if args.workload == "cli-cold":
                return cli_pass(args, checks, tmp, traced, tag)
            return worker_pass(args, tmp, traced, tag)

        passes = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            passes.append(one(False, f"pass{len(passes)}"))
            took = time.perf_counter() - t
            elapsed = time.perf_counter() - start
            # Stop once another pass would end well past --seconds.
            if args.tiny or (len(passes) >= min_passes
                             and elapsed + took / 2 > args.seconds):
                break
        traced = one(True, "traced") if args.trace else None
        calib = (calib_start, _calib())
        layers = (per_layer(args, passes, traced, checks, tmp, calib)
                  if args.trace else {})

    runs = passes + ([traced] if traced else [])
    for p in runs:
        for k, v in p.pop("checks", {}).items():
            checks.kinds[k] += v
    attempted = sum(p["attempted"] for p in runs)
    failures = [[p["tag"]] + f for p in runs for f in p["failures"]]
    unexplained = [f for p in runs for f in p["failures"]
                   if f[0] not in p["known"]]
    how, op_time = per_op(args.workload)
    e2e = end_to_end(passes, op_time)
    metrics = ({k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
               if args.trace else
               {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()})
    result = {"correct": not unexplained, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}

    record = {"env": env, "result": result, "end_to_end": e2e,
              "fail_rate": len(failures) / attempted,
              "failures": failures, "checks": dict(checks.kinds),
              "passes": runs, "calib_s": list(calib)}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n",
                            "utf-8")

    n = len(passes)
    ops = len(passes[0]["lat_ms"])
    samples = sum(len(p["setups"]) for p in passes)
    each = f"each op's {how} of {n} passes"
    quant = (f"nearest rank over the {ops} ops of {each}; "
             f"{ops - math.ceil(0.9 * ops)} ops beyond p90")
    notes = {"setup_s": f"median of {samples} set-up samples",
             "wall_s": f"sum over the {ops} ops of {each}",
             "cpu_s": f"sum over the {ops} ops of {each}",
             "op_p50_ms": quant, "op_p90_ms": quant,
             "peak_rss_mb": f"median of {n} passes"}
    if args.workload == "cli-cold":
        notes["peak_rss_mb"] = "largest per-command median"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for k, v in e2e.items():
        print(f"  {k:<12} {v:>12.4f} {E2E_UNITS[k]:<5} {notes[k]}")
    print(f"  {'fail_rate':<12} {record['fail_rate']:>12.4f} ratio "
          f"{len(failures)} of {attempted} ops failed")
    for f in failures:
        print(f"    failed: {' '.join(str(x) for x in f)}")
    for k, (v, u) in layers.items():
        print(f"  {k:<44} {v:>14.6g} {u}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
