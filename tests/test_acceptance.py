"""Acceptance gate: the ten headline reproductions with their time budgets.

Each test prints one ``ACCEPTANCE <n> <slug>: PASS/FAIL`` line (shown with
``pytest -s`` or in failure output) and enforces its wall-clock budget.
Everything asserted here is exact integer/rational arithmetic.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import oracles
from bottnull import bundles, bwb, ledger, nullcone, repthy, weyl
from bottnull.rootsys import build_root_system

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(idx, slug, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {idx} {slug}: FAIL")
        raise
    elapsed = time.monotonic() - t0
    ok = budget is None or elapsed < budget
    timing = f"{elapsed:.2f}s" + (f", budget {budget}s" if budget else "")
    print(f"ACCEPTANCE {idx} {slug}: {'PASS' if ok else 'FAIL'} ({timing})")
    assert ok, f"{slug}: {elapsed:.2f}s exceeded the {budget}s budget"


def test_criterion_01_psupp_tables():
    with criterion(1, "psupp-tables", 60):
        # b (x) b over A2..A6: support {0} in every contributing degree.
        for rank in range(2, 7):
            rs = build_root_system("A", rank)
            view = bwb.psupp(rs, "b^2").set_view()
            zero = (0,) * rank
            assert view and all(s == {zero} for s in view.values()), rank

        # Third tensor power, rank-2 branch: extra classes in degrees 2, 3.
        a2 = build_root_system("A", 2)
        view = bwb.psupp(a2, "b^3").set_view()
        z2 = (0, 0)
        assert view[2] == {z2, (1, 1), (3, 0), (0, 3)}
        assert view[3] == {z2, (1, 1)}
        assert all(s == {z2} for k, s in view.items() if k not in (2, 3))

        # Rank-3 branch: one extra class in degree 3 only.
        a3 = build_root_system("A", 3)
        view = bwb.psupp(a3, "b^3").set_view()
        z3 = (0, 0, 0)
        assert view[3] == {z3, (0, 2, 0)}
        assert all(s == {z3} for k, s in view.items() if k != 3)

        # Rank >= 4: plain {0} everywhere.
        a4 = build_root_system("A", 4)
        view = bwb.psupp(a4, "b^3").set_view()
        assert view and all(s == {(0,) * 4} for s in view.values())

        # Fourth tensor power: rank 5 gets one extra class in degree 5 only;
        # rank 6 stays at {0} throughout.
        a5 = build_root_system("A", 5)
        ps = bwb.psupp(a5, "b^4")
        view = ps.set_view()
        z5 = (0,) * 5
        assert view[5] == {z5, (0, 0, 2, 0, 0)}
        assert all(s == {z5} for k, s in view.items() if k != 5)
        assert ps.multiset(5).get((0, 0, 2, 0, 0)) == 1

        a6 = build_root_system("A", 6)
        view = bwb.psupp(a6, "b^4").set_view()
        assert view and all(s == {(0,) * 6} for s in view.values())

        # Rank-2 orthogonal case: complete table, empty from degree 4 on.
        b2 = build_root_system("B", 2)
        view = bwb.psupp(b2, "b^2").set_view()
        assert view == {0: {z2}, 1: {z2}, 2: {z2, (0, 1)}, 3: {z2}}


def test_criterion_02_wedge_profiles():
    with criterion(2, "wedge-profiles", 5):
        for family, rank in (("A", 2), ("A", 3), ("B", 2)):
            rs = build_root_system(family, rank)
            counts = weyl.poincare_counts(rs)
            profile = [bwb.kostant_check(rs, k)
                       for k in range(len(rs.positive_roots) + 1)]
            assert profile == [counts.get(k, 0)
                               for k in range(len(rs.positive_roots) + 1)]
        a3 = build_root_system("A", 3)
        assert [bwb.kostant_check(a3, k) for k in range(7)] == \
            [1, 3, 5, 6, 5, 3, 1]


def test_criterion_03_distinct_roots_exhaustive():
    with criterion(3, "distinct-roots", 1):
        for family, rank, total in (("A", 2, 8), ("B", 2, 16), ("A", 3, 64)):
            rs = build_root_system(family, rank)
            rep = bwb.distinct_roots_check(rs)
            assert rep.exhaustive
            assert rep.subsets_checked == total
            assert not rep.violations


def test_criterion_04_dot_identities():
    with criterion(4, "dot-identities"):
        a2 = build_root_system("A", 2)
        a1_, a2_ = ((2, -1), (-1, 2))  # simple roots, fundamental coordinates
        assert weyl.dot(a2, (1, 2), (3, 0)) == tuple(-3 * c for c in a1_)
        assert weyl.dot(a2, (2, 1), (0, 3)) == tuple(-3 * c for c in a2_)
        assert weyl.dot(a2, (1, 2, 1), (1, 1)) == (-3, -3)

        a3 = build_root_system("A", 3)
        assert weyl.dot(a3, (2, 1, 3), (0, 2, 0)) == (3, -6, 3)  # -3*alpha_2

        # Rank 5: reflections 5, 1, 4, 2, 3 applied in that order to
        # alpha_1+2alpha_2+3alpha_3+2alpha_4+alpha_5 give -4*alpha_3.  With
        # words composing right-to-left that sequence is the word (3,2,4,1,5).
        a5 = build_root_system("A", 5)
        chi = (0, 0, 2, 0, 0)
        target = (0, 4, -8, 4, 0)
        assert weyl.dot(a5, (3, 2, 4, 1, 5), chi) == target
        step = chi
        for letter in (5, 1, 4, 2, 3):
            step = weyl.dot(a5, (letter,), step)
        assert step == target


def test_criterion_05_invariant_counts():
    with criterion(5, "invariant-counts", 120):
        for rank in (2, 3, 4):
            rs = build_root_system("A", rank)
            zero = (0,) * rank
            for expr, want in (("g*g", 1), ("g^3", 2)):
                assert repthy.invariant_dim(rs, expr) == want, (rank, expr)
                stripped = oracles.stripping_decompose(
                    rs, bundles.weights(rs, expr))
                assert stripped.get(zero, 0) == want, (rank, expr)


def test_criterion_06_table_validation_and_mutation():
    with criterion(6, "table-validation"):
        table = ledger.builtin_tables()
        assert ledger.validate_table(table).passed

        mutated = ledger.CohomologyTable()
        for e in table.entries():
            module = e.module
            if (e.family, e.rank, e.q, e.p) == ("A", 2, 2, 1):
                module = repthy.FormalGModule({(1, 1): 1})
            mutated.add(e.family, e.rank, e.q, e.p, module=module,
                        provenance=e.provenance)
        for family, rank, q in table.coverage():
            mutated.mark_complete(family, rank, q)
        assert not ledger.validate_table(mutated).passed


def test_criterion_07_verdicts():
    with criterion(7, "verdicts"):
        table = ledger.builtin_tables()
        for r in range(1, 7):
            v = ledger.verdict("A", 2, r, table)
            assert v.normal == "yes" and v.rational == "yes"
            assert v.path == "vanishing-criterion"

        assert ledger.verdict("B", 2, 2, table).normal == "no"
        assert ledger.verdict("A", 3, 3, table).normal == "no"

        v = ledger.verdict("A", 5, 4, table)
        assert v.rational == "normalization-not-rational"
        a5 = build_root_system("A", 5)
        assert repthy.weyl_dim(a5, (0, 0, 2, 0, 0)) == 175
        wit = [w for w in v.witnesses if (w.a, w.b) == (-4, 5)]
        assert wit and wit[0].module.dimension(a5) == 175

        # Negative control: the cell at (-2, 1) for two copies over A2 is
        # present but never a certain survivor (its lane is blocked).
        page = ledger.e_page("A", 2, 2, table)
        cell = page.cell(-2, 1)
        assert cell is not None and cell.possibly_nonzero
        assert not ledger.certain_survivors(page)


def test_criterion_08_nullcone_equivalence():
    with criterion(8, "nullcone-equivalence", 30):
        rng = random.Random(20260817)
        for n in (2, 3, 4):
            for r in (1, 2, 3):
                for i in range(100):
                    if i % 2 == 0:
                        uppers = tuple(oracles.random_strictly_upper(rng, n)
                                       for _ in range(r))
                        g = oracles.random_unimodular(rng, n)
                        sample = nullcone.resolution_sample(
                            g, nullcone.MatrixTuple(n=n, matrices=uppers))
                        t = sample
                        assert nullcone.in_nullcone(t)  # resolution point
                    else:
                        t = nullcone.MatrixTuple(
                            n=n,
                            matrices=tuple(oracles.random_traceless(rng, n)
                                           for _ in range(r)))
                    member = nullcone.in_nullcone(t)
                    assert member == oracles.brute_nullcone_member(t.matrices)
                    assert member == (nullcone.common_flag(t) is not None)
                    if r == 1:
                        x = t.matrices[0]
                        power = x
                        for _ in range(n - 1):
                            power = oracles.mat_mul(power, x)
                        vanishes = all(c == 0 for row in power for c in row)
                        assert member == vanishes


_ATOMS = "bnhqg"


def _random_small_expr(rng):
    kind = rng.randrange(8)
    a, b, c = (rng.choice(_ATOMS) for _ in range(3))
    if kind == 0:
        return a
    if kind == 1:
        return f"{a}*{b}"
    if kind == 2:
        return f"{a}*{b}*{c}"
    if kind == 3:
        return f"{a}^{rng.randint(2, 3)}"
    if kind == 4:
        return f"wedge^{rng.randint(1, 3)}({a})"
    if kind == 5:
        return f"sym^{rng.randint(1, 3)}({a})"
    if kind == 6:
        coords = ",".join(str(rng.randint(-2, 2)) for _ in range(2))
        return f"L[{coords}]*{a}"
    return f"({a}+{b})*{c}"


def test_criterion_09_euler_consistency():
    with criterion(9, "euler-consistency"):
        rng = random.Random(9)
        for family in ("A", "B"):
            rs = build_root_system(family, 2)
            for _ in range(25):
                text = _random_small_expr(rng)
                expr = bundles.parse(text)
                chi = bwb.euler_characteristic(rs, expr)
                assert chi == bwb.euler_from_psupp(rs, bwb.psupp(rs, expr)), \
                    (family, text)


def test_criterion_10_cli_report_goldens():
    with criterion(10, "cli-report-goldens"):
        for family, rank in (("A", 2), ("A", 3), ("A", 5), ("A", 6), ("B", 2)):
            golden = (GOLDEN_DIR / f"report_{family.lower()}{rank}.json")
            want = golden.read_text(encoding="utf-8")
            assert json.loads(want)["payload"]["passed"] is True
            proc = subprocess.run(
                [sys.executable, "-m", "bottnull.cli", "report",
                 "--family", family, "--rank", str(rank)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == want, (family, rank)
