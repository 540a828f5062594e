"""Self-test of the benchmark, at tiny size.

    python3 perfbench/selftest.py

For each workload it runs ``run.py --tiny`` untraced and traced and checks
that every metric of ``BENCHMARK.json`` is emitted with its unit, that every
output check kind ran, and that the layer split holds.  It then feeds one
deliberately wrong expected value (``--inject-wrong``) and checks that the
failure count rises.  Last, it checks that the benchmark exits non-zero,
printing no result, in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3

REQUIRED_CHECKS = {
    "cli-cold": {"cli.report-golden", "cli.report-passed",
                 "cli.verdict-witness", "cli.decompose-total-dim",
                 "cli.psupp-digest"},
    "expr-session": {"session.weights-dim", "session.psupp-ran",
                     "session.decompose-dim", "session.verdict-known",
                     "session.validate-roundtrip", "session.repeat-identical",
                     "session.psupp-euler"},
    "nullcone-tuples": {"nullcone.resolution-conjugate",
                        "nullcone.member-flag-agree",
                        "nullcone.resolution-member",
                        "nullcone.flag-triangularizes", "nullcone.brute-force"},
}


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
            "--tiny", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"], doc
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
    assert isinstance(doc["failed"], int)
    return doc


def record_of(workload: str, trace: int) -> dict:
    path = HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text("utf-8"))


def same_metrics(doc: dict, declared: list, what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    assert got == want, f"{what}: emitted {got} != declared {want}"
    for k, v in doc["metrics"].items():
        assert isinstance(v["value"], (int, float)), (k, v)


def layer_split(workload: str, metrics: dict, record: dict) -> None:
    val = {k: v["value"] for k, v in metrics.items()}
    if workload == "expr-session":
        assert val["weyl.enumerate_elements.calls"] == 0
    elif workload == "nullcone-tuples":
        busy = [k for k, v in val.items() if k.endswith(".self_s") and v > 0
                and not k.startswith("nullcone.")]
        assert not busy, f"non-nullcone layers recorded time: {busy}"
    else:
        traced = next(p for p in record["passes"] if p["tag"] == "traced")
        stats = traced["cmd_stats"]["report-A7"]
        shares = {k: s["self_s"] for k, s in stats.items()}
        weyl = sum(v for k, v in shares.items()
                   if k.startswith("weyl.") or k == "repthy.mult_in")
        rest = max(v for k, v in shares.items()
                   if not (k.startswith("weyl.") or k == "repthy.mult_in"))
        assert weyl > rest, f"weyl + mult_in {weyl:.3f} s <= {rest:.3f} s"


def bare_directory_fails() -> None:
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("expr-session", 0, cwd=bare)
        assert proc.returncode != 0, "benchmark passed without the program"
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert not last.startswith("{"), "printed a result without the program"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    for w in bench["workloads"]:
        name = w["name"]
        base = result_of(run(name, 0))
        same_metrics(base, bench["end_to_end"], f"{name} trace 0")
        assert base["correct"], f"{name}: outputs wrong at tiny size"
        kinds = set(record_of(name, 0)["checks"])
        missing = REQUIRED_CHECKS[name] - kinds
        assert not missing, f"{name}: checks not exercised: {missing}"

        traced = result_of(run(name, 1))
        same_metrics(traced, bench["per_layer"], f"{name} trace 1")
        layer_split(name, traced["metrics"], record_of(name, 1))
        assert "kernels.agree-with-pure" in record_of(name, 1)["checks"]

        wrong = result_of(run(name, 0, "--inject-wrong"))
        assert wrong["failed"] > base["failed"], (
            f"{name}: a wrong expected value did not raise the failures")
        assert not wrong["correct"]
        print(f"ok {name}: {base['attempted']} ops, {base['failed']} failed; "
              f"with a wrong expected value {wrong['failed']} failed")
    bare_directory_fails()
    print("ok bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
