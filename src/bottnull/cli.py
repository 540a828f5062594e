"""Command-line interface.

Subcommands: roots, weyl, bwb, weights, psupp, mult, dim, decompose,
nullcone, verdict, report.  Output is a versioned JSON envelope (or TSV for
tabular payloads) with fully deterministic bytes: sorted keys, fixed
separators, no timestamps, no machine-specific content.

Exit codes: 0 success, 1 usage/parse errors, 2 computation errors
(ledger gaps, non-module multisets, size caps, failed report checks).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction as Q

from . import bundles, bwb, ledger, nullcone, repthy, weyl
from .errors import (Error, InputError, UnsupportedFamilyRank,
                     ValidationFailure)
from .rootsys import (RootSystem, build_root_system, format_root_coords,
                      format_weight, parse_weight, root_to_weight,
                      weight_to_root_coords)

FORMAT_VERSION = "bott-null/1"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1: one usage line,
    one error line."""

    def error(self, message):
        print(" ".join(self.format_usage().split()), file=sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _print_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _print_tsv(header: list[str], rows: list[dict]) -> None:
    out = ["\t".join(header)]
    out.extend("\t".join(str(row[h]) for h in header) for row in rows)
    sys.stdout.write("\n".join(out) + "\n")


def _weight_rows(ws: bundles.WeightMultiset) -> list[dict]:
    """``{weight, mult}`` rows of a weight multiset."""
    return [{"weight": format_weight(w), "mult": m} for w, m in ws.sorted_items()]


def _module_rows(rs: RootSystem, module: repthy.FormalGModule) -> list[dict]:
    """``{weight, mult, dim}`` rows of a G-module, one per irreducible."""
    return [{"weight": format_weight(w), "mult": m, "dim": repthy.weyl_dim(rs, w)}
            for w, m in module.sorted_items()]


def _read_text(path: str) -> str:
    """The contents of an input file, which must be UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from exc


def _parse_word(rs: RootSystem, text: str) -> tuple[int, ...]:
    try:
        letters = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"bad word {text!r}; expected comma-separated letters")
    if any(not 1 <= i <= rs.rank for i in letters):
        raise InputError(f"word letters must be in 1..{rs.rank}")
    return letters


# ---------------------------------------------------------------- commands
#
# Each command takes the root system (None for nullcone) and the parsed
# arguments, and returns its JSON payload, its TSV header and its TSV rows:
# dicts that ``_print_tsv`` picks the header's columns from (None for the
# JSON-only nullcone and verdict).  ``main`` alone chooses the format and
# prints.
_Output = tuple[dict, list[str] | None, list[dict] | None]


def _cmd_roots(rs: RootSystem | None, args) -> _Output:
    rows = [{"index": i,
             "root": format_root_coords(tuple(Q(c) for c in r.root_coords)),
             "fund": format_weight(r.fund_coords),
             "height": r.height}
            for i, r in enumerate(rs.positive_roots)]
    payload = {
        "cartan": [list(row) for row in rs.cartan],
        "positive_roots": rows,
        "positive_count": len(rows),
        "rho": format_weight(rs.rho),
        "dim_g": rs.dim_g,
    }
    return payload, ["index", "root", "fund", "height"], rows


def _cmd_weyl(rs: RootSystem | None, args) -> _Output:
    if args.word is None:
        if args.weight is not None:
            raise InputError("--weight needs --word: the word to act by")
        counts = sorted(weyl.poincare_counts(rs).items())
        payload = {"order": sum(v for _, v in counts),
                   "by_length": {str(k): v for k, v in counts}}
        return payload, ["length", "count"], [{"length": k, "count": v}
                                              for k, v in counts]
    word = _parse_word(rs, args.word)
    reduced = weyl.reduce_word(rs, word)
    inversions = sorted(weyl.inversion_set(rs, word))
    payload = {
        "word": list(word),
        "reduced": list(reduced),
        "length": len(reduced),
        "inversions": [format_weight(g) for g in inversions],
    }
    if args.weight is not None:
        lam = parse_weight(rs, args.weight)
        payload["weight"] = format_weight(lam)
        payload["act"] = format_weight(weyl.act(rs, word, lam))
        payload["dot"] = format_weight(weyl.dot(rs, word, lam))
    row = {h: json.dumps(v) if isinstance(v, list) else v
           for h, v in payload.items()}
    return payload, sorted(payload), [row]


def _cmd_bwb(rs: RootSystem | None, args) -> _Output:
    lam = parse_weight(rs, args.weight)
    res = bwb.line_cohomology(rs, lam)
    payload = {"input": format_weight(lam), "vanishes": res.vanishes}
    header = ["input", "vanishes"]
    if not res.vanishes:
        payload["degree"] = res.degree
        payload["weight"] = format_weight(res.weight)
        payload["weight_root_coords"] = format_root_coords(
            weight_to_root_coords(rs, res.weight))
        payload["dimension"] = repthy.weyl_dim(rs, res.weight)
        header += ["degree", "weight", "dimension"]
    return payload, header, [{**payload, "vanishes": str(res.vanishes).lower()}]


def _cmd_weights(rs: RootSystem | None, args) -> _Output:
    expr = bundles.parse(args.expr)
    ws = bundles.weights(rs, expr)
    rows = _weight_rows(ws)
    payload = {
        "expr": bundles.unparse(expr),
        "dim": ws.total_dim,
        "distinct": len(rows),
        "weights": rows,
    }
    return payload, ["weight", "mult"], rows


def _cmd_psupp(rs: RootSystem | None, args) -> _Output:
    expr = bundles.parse(args.expr)
    ps = bwb.psupp(rs, expr)
    degrees = {str(k): _weight_rows(ps.multiset(k)) for k in ps.degrees()}
    payload = {
        "expr": bundles.unparse(expr),
        "degrees": degrees,
        "set_view": {str(k): sorted(format_weight(w) for w in ps.support(k))
                     for k in ps.degrees()},
    }
    rows = [{"degree": k, **e} for k, entries in degrees.items() for e in entries]
    return payload, ["degree", "weight", "mult"], rows


def _cmd_mult(rs: RootSystem | None, args) -> _Output:
    expr = bundles.parse(args.expr)
    mu = parse_weight(rs, args.weight)
    payload = {"expr": bundles.unparse(expr), "weight": format_weight(mu),
               "mult": repthy.mult_in(rs, expr, mu)}
    return payload, ["expr", "weight", "mult"], [payload]


def _cmd_dim(rs: RootSystem | None, args) -> _Output:
    expr = bundles.parse(args.expr)
    payload = {"expr": bundles.unparse(expr), "dim": bundles.dim(rs, expr)}
    return payload, ["expr", "dim"], [payload]


def _cmd_decompose(rs: RootSystem | None, args) -> _Output:
    expr = bundles.parse(args.expr)
    module = repthy.decompose(rs, expr)
    rows = _module_rows(rs, module)
    payload = {
        "expr": bundles.unparse(expr),
        "modules": rows,
        "total_dim": module.dimension(rs),
    }
    return payload, ["weight", "mult", "dim"], rows


def _cmd_nullcone(rs: RootSystem | None, args) -> _Output:
    text = _read_text(args.input)
    if args.op == "resolve":
        try:
            doc = json.loads(text)
            if not isinstance(doc, dict):
                raise ValueError("expected a JSON object")
            g = nullcone.matrix_from_rows(doc["g"])
            if any(len(row) != len(g) for row in g):
                raise ValueError("g must be a square matrix")
            mats = tuple(nullcone.matrix_from_rows(m) for m in doc["matrices"])
            t = nullcone.MatrixTuple(n=len(g), matrices=mats)
        except KeyError as exc:
            raise InputError(
                f"bad resolve document: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad resolve document: {exc}") from exc
        sample = nullcone.resolution_sample(g, t)
        payload = {"op": "resolve", "n": sample.n, "r": sample.r,
                   "matrices": [nullcone.matrix_to_strings(m)
                                for m in sample.matrices]}
        return payload, None, None
    t = nullcone.tuple_from_json(text)
    payload = {"op": args.op, "n": t.n, "r": t.r}
    if args.op == "member":
        payload["member"] = nullcone.in_nullcone(t)
    else:
        flag = nullcone.common_flag(t)
        payload["member"] = flag is not None
        payload["flag"] = (None if flag is None else
                           [[str(x) for x in vec] for vec in flag.basis])
    return payload, None, None


def _witness_doc(rs: RootSystem, w: ledger.Witness) -> dict:
    return {
        "a": w.a,
        "b": w.b,
        "total_degree": w.a + w.b,
        "module": _module_rows(rs, w.module),
        "dimension": w.module.dimension(rs),
        "reason": w.reason,
    }


def _cmd_verdict(rs: RootSystem | None, args) -> _Output:
    table = None
    if args.table is not None:
        text = _read_text(args.table)
        try:
            table = ledger.load_table(text)
            ledger.ensure_valid(table)
        except (ValueError, UnsupportedFamilyRank, ValidationFailure) as exc:
            raise InputError(f"bad table document: {exc}") from exc
    v = ledger.verdict(args.family, args.rank, args.copies, table)
    payload = {
        "r": v.r,
        "normal": v.normal,
        "rational": v.rational,
        "path": v.path,
        "witnesses": [_witness_doc(rs, w) for w in v.witnesses],
    }
    return payload, None, None


def _cmd_report(rs: RootSystem | None, args) -> _Output:
    checks = _report_checks(rs, seed=args.seed)
    payload = {"checks": checks,
               "passed": all(c["status"] == "pass" for c in checks)}
    return payload, ["id", "status", "detail"], checks


# ---------------------------------------------------------------- report suite

# The nonzero weights of psupp(b^q), by degree and with multiplicities, of
# the covered blocks that have any; every other covered block's potential
# support is the zero weight alone.  These are cited facts, not derived ones.
_CITED_PSUPP: dict[tuple[str, int, int], dict[int, dict[tuple[int, ...], int]]] = {
    ("A", 2, 3): {2: {(0, 3): 1, (1, 1): 6, (3, 0): 1}, 3: {(1, 1): 1}},
    ("A", 3, 3): {3: {(0, 2, 0): 1}},
    ("A", 5, 4): {5: {(0, 0, 2, 0, 0): 1}},
    ("B", 2, 2): {2: {(0, 1): 1}},
}


# What report checks for a system besides its blocks, one claim a row:
# (family, rank, check id, claim, source), the source naming where the claim
# comes from.  Rows of one check id make one check, in table order.
# - dot-identities: (word, lam, image), w . lam = image in simple-root
#   coordinates; for image -k alpha, L(lam) is in degree l(w) of psupp(b^k),
#   so each identity derives a weight of the cited potential support above.
# - verdict-*: (r, (normal, rational, path), cell, witness), ledger.verdict
#   for r copies; off the criterion, a certain survivor at cell whose module
#   is L(witness) or, for an int witness, has that dimension.
# - tensor-square-page-control: (r, cell, s), for r copies the cell and its
#   target on lane s are possibly nonzero, and no cell survives.
_CITED_CLAIMS = (
    ("A", 2, "dot-identities", ((1, 2), (3, 0), (-3, 0)), "cited psupp(b^3)"),
    ("A", 2, "dot-identities", ((2, 1), (0, 3), (0, -3)), "cited psupp(b^3)"),
    ("A", 2, "dot-identities", ((1, 2, 1), (1, 1), (-3, -3)), "cited psupp(b^3)"),
    ("A", 2, "dot-identities", ((1, 2), (1, 1), (-3, -1)), "cited psupp(b^3)"),
    ("A", 2, "dot-identities", ((2, 1), (1, 1), (-1, -3)), "cited psupp(b^3)"),
    ("A", 3, "dot-identities", ((2, 1, 3), (0, 2, 0), (0, -3, 0)),
     "cited psupp(b^3)"),
    # Letters 5,1,4,2,3 applied in that order; as a composition (rightmost
    # letter acting first) the word is (3,2,4,1,5).
    ("A", 5, "dot-identities",
     ((3, 2, 4, 1, 5), (0, 0, 2, 0, 0), (0, 0, -4, 0, 0)), "cited psupp(b^4)"),
    *(("A", 2, "verdict-criterion",
       (r, ("yes", "yes", "vanishing-criterion"), None, None),
       "paper: sl_3 null cones have rational singularities") for r in range(1, 7)),
    ("A", 2, "tensor-square-page-control", (2, (-2, 1), 2),
     "negative control: the (0,0) cell blocks the trivial H^1(b^2)"),
    ("A", 3, "verdict-not-normal",
     (3, ("no", "unknown", "page-scan"), (-3, 3), (0, 2, 0)),
     "page scan of the established sl_4 cube H^3(b^3) = L(0,2,0)"),
    ("A", 5, "verdict-normalization-not-rational",
     (4, ("unknown", "normalization-not-rational", "page-scan"), (-4, 5), 175),
     "paper: the A5 normalization has no rational singularities"),
    ("B", 2, "verdict-not-normal",
     (2, ("no", "unknown", "page-scan"), (-2, 2), (0, 1)),
     "paper: the B2 null cone is not normal"),
)


def _check(checks: list, check_id: str, ok: bool, detail: str) -> None:
    checks.append({"id": check_id, "status": "pass" if ok else "fail",
                   "detail": detail})


def _claim_holds(rs: RootSystem, table: ledger.CohomologyTable, check_id: str,
                 claim: tuple) -> bool:
    """Whether one claim of ``_CITED_CLAIMS`` holds for ``rs``."""
    if check_id == "dot-identities":
        word, lam, image = claim
        return weyl.dot(rs, word, lam) == root_to_weight(rs, image)
    if check_id == "tensor-square-page-control":
        r, (a, b), s = claim
        page = ledger.e_page(rs.family, rs.rank, r, table)
        return (not ledger.certain_survivors(page) and page.possibly_nonzero(a, b)
                and page.possibly_nonzero(a + s, b - s + 1))
    r, want, cell, witness = claim
    v = ledger.verdict(rs.family, rs.rank, r, table)
    return (v.normal, v.rational, v.path) == want and (cell is None or any(
        (w.a, w.b) == cell
        and (w.module.dimension(rs) == witness if isinstance(witness, int)
             else w.module == {witness: 1})
        for w in v.witnesses))


def _claims_detail(check_id: str, claims: list[tuple]) -> str:
    """The detail of the check that the claims of one check id make."""
    if check_id == "dot-identities":
        return f"{len(claims)} dot-action identities hold"
    if check_id == "verdict-criterion":
        return (f"normal and rational singularities for r = {claims[0][0]}.."
                f"{claims[-1][0]} via the vanishing criterion")
    if check_id == "tensor-square-page-control":
        return "; ".join(f"cell ({a},{b}) present but not isolated: the "
                         f"({a + s},{b - s + 1}) cell blocks lane s={s}"
                         for _, (a, b), s in claims)
    return "; ".join(
        f"r = {r}: certain survivor at ({a},{b}) in total degree {a + b}"
        + (f"; witness module has dimension {witness}"
           if isinstance(witness, int)
           else f" with module L({','.join(map(str, witness))})")
        for r, _, (a, b), witness in claims)


def _block_checks(checks: list, rs: RootSystem, table: ledger.CohomologyTable,
                  q: int) -> None:
    """``psupp-b{q}`` and ``table-b{q}`` for one covered tensor power b^q."""
    family, rank = rs.family, rs.rank
    zero = (0,) * rank
    ps = bwb.psupp(rs, f"b^{q}")
    found = {k: {w: m for w, m in ps.multiset(k).sorted_items() if w != zero}
             for k in ps.degrees()}
    found = {k: ws for k, ws in found.items() if ws}
    cited = _CITED_PSUPP.get((family, rank, q), {})
    ok = found == cited
    _check(checks, f"psupp-b{q}", ok,
           f"nonzero weights by degree {found}"
           + (", as cited" if ok else f", cited {cited}"))

    rep = ledger.validate_block(table, rs, q, ps)
    ok = rep.passed
    detail = ("; ".join(rep.failures) if not ok else
              f"{rep.checked} entries within potential-support bounds and "
              "alternating to chi_G")
    # An H^{q-1} exact at the zero weight holds the invariants of g^q there.
    if q >= 2:
        h = table.entry(family, rank, q, q - 1)
        have, most = (0, 0) if h is None else (h.lo.get(zero), h.hi.get(zero))
        if have == most:
            inv = repthy.invariant_dim(rs, f"g^{q}")
            ok = ok and have == inv
            detail += (f"; trivial multiplicity in H^{q - 1} is {have}, "
                       f"invariant dimension of g^{q} is {inv}")
    _check(checks, f"table-b{q}", ok, detail)


def _report_checks(rs: RootSystem, *, seed: int) -> list[dict]:
    checks: list[dict] = []
    family, rank = rs.family, rs.rank
    table = ledger.builtin_tables()
    is_a = family == "A"
    n = rank + 1

    for f, r, q in table.coverage():
        if (f, r) == (family, rank):
            _block_checks(checks, rs, table, q)

    if is_a:
        norm = bwb.highest_root_shift_norm(rs)
        _check(checks, "highest-root-norm", norm == 2 * n,
               f"(theta+rho,theta+rho)-(rho,rho) = {norm} = 2n")

    # Type A with n >= 3: A1 has chi = 5 against dim(g x g) - 1 = 8.
    if is_a and rank >= 2:
        euler_qq = bwb.euler_characteristic(rs, "q*q")
        want = rs.dim_g ** 2 - 1
        _check(checks, "tangent-square-a", euler_qq == want,
               f"chi(X, (g/b)^2) = {euler_qq} = dim(g x g) - 1")

    # The cited claims of this system, one check per check id in table
    # order: dot identities before the subset-sum check, the rest after it.
    claims: dict[str, list[tuple]] = {}
    for f, r, check_id, claim, _ in _CITED_CLAIMS:
        if (f, r) == (family, rank):
            claims.setdefault(check_id, []).append(claim)
    cited: list[dict] = []
    for check_id, group in claims.items():
        _check(cited, check_id,
               all([_claim_holds(rs, table, check_id, c) for c in group]),
               _claims_detail(check_id, group))
    checks += [c for c in cited if c["id"] == "dot-identities"]

    # One check of the sums of distinct positive roots: every subset through
    # the wedge profile where that is cheap, a seeded sample otherwise.
    if len(rs.positive_roots) <= bwb.PROFILE_MAX_ROOTS:
        try:
            ok, detail = True, ("wedge powers of n concentrate as "
                                f"trivial^count: {list(bwb.kostant_check(rs))}")
        except Error as exc:
            ok, detail = False, str(exc)
        _check(checks, "hodge-wedge-profile", ok, detail)
    else:
        dr = bwb.distinct_roots_check(rs, seed=seed)
        _check(checks, "distinct-roots", not dr.violations,
               f"{dr.subsets_checked} subsets (sampled, seed {seed}), "
               f"{len(dr.violations)} violations")

    checks += [c for c in cited if c["id"] != "dot-identities"]
    return checks


# ---------------------------------------------------------------- entry point

def _add_common(sub, *, tsv: bool = True) -> None:
    sub.add_argument("--family", choices=("A", "B"), required=True)
    sub.add_argument("--rank", type=int, required=True)
    if tsv:  # verdict prints JSON only
        sub.add_argument("--format", choices=("json", "tsv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bottnull",
                     description="Exact flag-variety cohomology combinatorics "
                                 "and null-cone verdicts.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("roots", help="positive roots and Cartan data")
    _add_common(p)
    p.set_defaults(fn=_cmd_roots)

    p = subs.add_parser("weyl", help="word reduction, actions, enumeration")
    _add_common(p)
    p.add_argument("--word", help="comma-separated 1-based letters, e.g. 1,2")
    p.add_argument("--weight", help="f:c1,c2,... or r:p/q,...; needs --word")
    p.set_defaults(fn=_cmd_weyl)

    p = subs.add_parser("bwb", help="line-bundle cohomology")
    _add_common(p)
    p.add_argument("--weight", required=True)
    p.set_defaults(fn=_cmd_bwb)

    p = subs.add_parser("weights", help="weight multiset of an expression")
    _add_common(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=_cmd_weights)

    p = subs.add_parser("psupp", help="potential cohomology support")
    _add_common(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=_cmd_psupp)

    p = subs.add_parser("mult", help="irreducible multiplicity in a module")
    _add_common(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(fn=_cmd_mult)

    p = subs.add_parser("dim", help="dimension of an expression")
    _add_common(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=_cmd_dim)

    p = subs.add_parser("decompose", help="decomposition into irreducibles")
    _add_common(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=_cmd_decompose)

    p = subs.add_parser("nullcone", help="matrix-tuple membership / flags")
    p.add_argument("--input", required=True, help="JSON file")
    p.add_argument("--op", choices=("member", "flag", "resolve"),
                   default="member")
    p.set_defaults(fn=_cmd_nullcone)

    p = subs.add_parser("verdict", help="normality / rational-singularity verdict")
    _add_common(p, tsv=False)
    p.add_argument("-r", "--copies", type=int, required=True)
    p.add_argument("--table", help="JSON cohomology table (default: built-in)")
    p.set_defaults(fn=_cmd_verdict)

    p = subs.add_parser("report", help="reproduce the established results")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the sampled distinct-roots check (A6, A7)")
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # verdict's -r is checked before the family and rank are.
        if getattr(args, "copies", 1) < 1:
            raise InputError(f"-r must be at least 1, got {args.copies}")
        rs = (build_root_system(args.family, args.rank)
              if args.command != "nullcone" else None)
        payload, header, rows = args.fn(rs, args)
        if getattr(args, "format", "json") == "tsv":
            _print_tsv(header, rows)
        else:
            _print_json({"version": FORMAT_VERSION, "command": args.command,
                         "root_system": None if rs is None else rs.describe(),
                         "payload": payload})
    except (InputError, OSError) as exc:
        print(f"bottnull: error: {exc}", file=sys.stderr)
        return 1
    except Error as exc:
        print(f"bottnull: error: {exc}", file=sys.stderr)
        return 2
    return 0 if payload.get("passed", True) else 2  # a failed report check


if __name__ == "__main__":
    sys.exit(main())
