"""Output checks, run outside the timed phase.

Each check returns ``None`` when the output is right, or a one-line reason.
A failed check counts the op as failed.  ``Checks.kinds`` counts every check
kind run, so the self-test can tell that each one was exercised.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

HERE = Path(__file__).resolve().parent


class Checks:
    """Expected values plus a tally of the check kinds exercised."""

    def __init__(self, root: Path, inject_wrong: bool = False):
        self.root = root
        self.expected = json.loads((HERE / "expected.json").read_text("utf-8"))
        self.kinds: Counter = Counter()
        # One deliberately wrong expected value per workload; the self-test
        # confirms that the failure count rises.
        self.wrong_membership = inject_wrong
        if inject_wrong:
            self.expected["cli"]["decompose_A7_g3_total_dim"] += 1
            self.expected["verdicts"]["rows"]["B2/2"][0] = "yes"

    # ------------------------------------------------------------ cli-cold

    def cli(self, name: str, rc: int, stdout: bytes, stderr: bytes):
        exp = self.expected["cli"]
        kind, system = name.split("-", 1)
        if kind == "report" and system in exp["golden_reports"]:
            self.kinds["cli.report-golden"] += 1
            golden = (self.root / "tests" / "golden"
                      / f"report_{system.lower()}.json").read_bytes()
            if rc != 0:
                return f"exit {rc}: {_line(stderr)}"
            return None if stdout == golden else "stdout differs from golden"
        if rc != 0:
            return f"exit {rc}: {_line(stderr)}"
        doc = json.loads(stdout)
        payload = doc["payload"]
        if kind == "report":
            self.kinds["cli.report-passed"] += 1
            return None if payload["passed"] is True else "report not passed"
        if kind == "verdict":
            self.kinds["cli.verdict-witness"] += 1
            want = exp["verdict_A5_r4_witness"]
            ok = any([w["a"], w["b"], w["dimension"]] == want
                     for w in payload["witnesses"])
            return None if ok else f"no witness {want}"
        if kind == "decompose":
            self.kinds["cli.decompose-total-dim"] += 1
            want = exp["decompose_A7_g3_total_dim"]
            got = payload["total_dim"]
            return None if got == want else f"total_dim {got} != {want}"
        self.kinds["cli.psupp-digest"] += 1
        digest = hashlib.sha256(stdout).hexdigest()
        want = exp["psupp_A7_b4_sha256"]
        return None if digest == want else f"stdout digest {digest[:12]}"

    def known_defect(self, name: str, reason: str | None) -> bool:
        """True when a failure is the documented defect of this op."""
        sig = self.expected["cli"]["known_defects"].get(name)
        return bool(sig and reason and sig in reason)

    # ------------------------------------------------------------ expr-session

    def session(self, bn, query: tuple, result, rs_of):
        kind = query[0]
        if kind == "weights":
            _, family, rank, expr = query
            self.kinds["session.weights-dim"] += 1
            want = bn.dim(rs_of(family, rank), expr)
            got = result.total_dim
            return None if got == want else f"total_dim {got} != dim {want}"
        if kind == "decompose":
            _, family, rank, expr = query
            self.kinds["session.decompose-dim"] += 1
            rs = rs_of(family, rank)
            want = bn.dim(rs, expr)
            got = result.dimension(rs)
            if any(m < 0 for _, m in result.sorted_items()):
                return "negative multiplicity in a genuine module"
            return None if got == want else f"dimension {got} != dim {want}"
        if kind == "verdict":
            _, family, rank, r = query
            self.kinds["session.verdict-known"] += 1
            rs = rs_of(family, rank)
            got = [result.normal, result.rational, result.path,
                   [[w.a, w.b, w.module.dimension(rs)]
                    for w in result.witnesses]]
            want = self.expected["verdicts"]["rows"][f"{family}{rank}/{r}"]
            return None if got == want else f"verdict {got} != {want}"
        if kind == "validate_roundtrip":
            self.kinds["session.validate-roundtrip"] += 1
            want = self.expected["validate_roundtrip_entries"]
            if not result.passed:
                return "; ".join(result.failures)
            return None if result.checked == want else (
                f"checked {result.checked} != {want}")
        self.kinds["session.psupp-ran"] += 1
        return None

    def session_euler(self, bn, rs, expr: str, ps):
        self.kinds["session.psupp-euler"] += 1
        a = bn.euler_from_psupp(rs, ps)
        b = bn.euler_characteristic(rs, expr)
        return None if a == b else f"euler_from_psupp {a} != euler {b}"

    def session_repeat(self, first: dict, query: tuple, result):
        """The second answer to a query matches the first one's digest."""
        digest = hashlib.sha256(repr(_canonical(result)).encode()).digest()
        if query not in first:
            first[query] = digest
            return None
        self.kinds["session.repeat-identical"] += 1
        return None if first[query] == digest else "repeat gave another answer"

    # ------------------------------------------------------------ nullcone

    def resolution_point(self, g, x, point):
        """point * g == g * x_i for each i, so point_i = g x_i g^-1."""
        self.kinds["nullcone.resolution-conjugate"] += 1
        gq = _fr(g)
        for xi, pi in zip(x, point.matrices):
            if _mul(pi, gq) != _mul(gq, _fr(xi)):
                return "resolution point is not g x g^-1"
        return None

    def membership(self, case, member: bool, flag_member: bool):
        self.kinds["nullcone.member-flag-agree"] += 1
        if member != flag_member:
            return "in_nullcone and common_flag disagree"
        if case["kind"] == "resolution":
            self.kinds["nullcone.resolution-member"] += 1
            want = not self.wrong_membership
            if member != want:
                return f"resolution point membership {member}"
        return None

    def triangular(self, mats):
        self.kinds["nullcone.flag-triangularizes"] += 1
        for m in mats:
            n = len(m)
            if any(m[i][j] != 0 for i in range(n) for j in range(i + 1)):
                return "flag does not triangularize the tuple"
        return None

    def brute_force(self, mats, member: bool):
        self.kinds["nullcone.brute-force"] += 1
        want = brute_force_member(mats)
        return None if want == member else (
            f"in_nullcone {member} but brute force {want}")


def brute_force_member(mats) -> bool:
    """Every length-n product of the matrices is zero.

    Works on integer matrices (each scaled by its denominators' lcm, which
    does not change whether a product vanishes), extends words one letter at
    a time, and prunes a prefix once its product is zero.
    """
    ints = []
    for m in mats:
        den = lcm(*(x.denominator for row in m for x in row))
        ints.append([[int(x * den) for x in row] for row in m])
    n = len(ints[0])
    stack = [(m, 1) for m in ints]
    while stack:
        prod, length = stack.pop()
        if not any(any(row) for row in prod):
            continue
        if length == n:
            return False
        for m in ints:
            stack.append((_mul(m, prod), length + 1))
    return True


def _canonical(result):
    if hasattr(result, "multiset_view"):
        return sorted((k, sorted(v.items()))
                      for k, v in result.multiset_view().items())
    if hasattr(result, "sorted_items"):
        return result.sorted_items()
    return repr(result)


def _fr(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _line(stderr: bytes) -> str:
    text = stderr.decode("utf-8", "replace").strip().splitlines()
    return text[-1] if text else ""
