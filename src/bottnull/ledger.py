"""Established cohomology tables for Borel-power bundles, the first-quadrant
page they induce, and the normality / rational-singularity verdict engine.

A ``CohomologyTable`` records H^p(X, b^{tensor q}) as an interval of formal
G-modules, lo <= H^p <= hi weight by weight (an exact entry has lo == hi),
with explicit completeness marks: within a declared (family, rank, q) the
absent degrees are genuinely zero; outside declared coverage nothing is known
and consumers raise ``LedgerGap``.  A page cell is possibly nonzero when its
hi is, and certainly nonzero when its lo is; the verdict engine lets every
possibly-nonzero cell block and only certainly-nonzero cells witness, so
verdicts hold for every multiplicity within the intervals.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from math import comb

from . import repthy
from ._record import Record
from .bundles import weights
from .bwb import PotentialSupport, alternating_module, psupp
from .errors import CheckFailed, LedgerGap, SizeCapExceeded, ValidationFailure
from .repthy import FormalGModule
from .rootsys import RootSystem, build_root_system

TABLE_FORMAT = "bott-null-ledger/2"
# Exact modules only, or "trivial-unresolved": C^m with m unknown.
_TABLE_FORMAT_1 = "bott-null-ledger/1"

NORMAL_YES = "yes"
NORMAL_NO = "no"
NORMAL_UNKNOWN = "unknown"
RATIONAL_YES = "yes"
RATIONAL_NO = "normalization-not-rational"
RATIONAL_UNKNOWN = "unknown"


class TableEntry(Record):
    """lo <= H^p(X, b^q) <= hi, weight by weight."""

    family: str
    rank: int
    q: int
    p: int
    lo: FormalGModule
    hi: FormalGModule
    provenance: str


class CohomologyTable:
    """Nonzero-only cohomology entries plus completeness marks."""

    def __init__(self):
        self._entries: dict[tuple[str, int, int, int], TableEntry] = {}
        self._complete: set[tuple[str, int, int]] = set()

    def add(self, family: str, rank: int, q: int, p: int, lo: FormalGModule,
            hi: FormalGModule | None = None, *, provenance: str = "") -> None:
        """Record lo <= H^p(X, b^q) <= hi; an exact H^p is ``lo`` alone."""
        if q < 1 or p < 0:
            raise ValueError(f"table key {family}/{rank}/{q}/{p} needs q >= 1 "
                             "and p >= 0")
        if (family, rank, q, p) in self._entries:
            raise ValueError(f"duplicate table key {family}/{rank}/{q}/{p}")
        self._entries[(family, rank, q, p)] = TableEntry(
            family=family, rank=rank, q=q, p=p, lo=lo,
            hi=lo if hi is None else hi, provenance=provenance)

    def mark_complete(self, family: str, rank: int, q: int) -> None:
        if q < 1:
            raise ValueError(f"complete mark {family}/{rank}/{q} needs q >= 1")
        self._complete.add((family, rank, q))

    def covers(self, family: str, rank: int, q: int) -> bool:
        return (family, rank, q) in self._complete

    def entry(self, family: str, rank: int, q: int, p: int) -> TableEntry | None:
        """The entry at (q, p), or None for an established zero.

        Raises LedgerGap when (family, rank, q) is outside declared coverage.
        """
        if not self.covers(family, rank, q):
            raise LedgerGap(family, rank, q)
        return self._entries.get((family, rank, q, p))

    def degrees(self, family: str, rank: int, q: int) -> tuple[int, ...]:
        """Degrees p with a recorded entry."""
        if not self.covers(family, rank, q):
            raise LedgerGap(family, rank, q)
        return tuple(sorted(p for (f, r, qq, p) in self._entries
                            if (f, r, qq) == (family, rank, q)))

    def entries(self) -> list[TableEntry]:
        return [self._entries[k] for k in sorted(self._entries)]

    def coverage(self) -> list[tuple[str, int, int]]:
        return sorted(self._complete)


def _module_from_pairs(pairs, rank: int) -> FormalGModule:
    if not isinstance(pairs, list):
        raise ValueError(f"module {pairs!r} is not a list of pairs")
    mults = {}
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(
                f"module entry {pair!r} is not a [weight, multiplicity] pair")
        coords, mult = pair
        if (not isinstance(coords, list) or len(coords) != rank
                or not all(type(c) is int and c >= 0 for c in coords)):
            raise ValueError(
                f"module weight {coords!r} is not a dominant weight of rank {rank}")
        if type(mult) is not int or mult < 1:
            raise ValueError(
                f"multiplicity {mult!r} of module weight {coords!r} is not a "
                "positive integer")
        if tuple(coords) in mults:
            raise ValueError(f"module weight {coords!r} is listed twice")
        mults[tuple(coords)] = mult
    return FormalGModule(mults)


def _module_to_pairs(module: FormalGModule) -> list:
    return [[list(w), m] for w, m in module.sorted_items()]


def save_table(table: CohomologyTable) -> str:
    entries = []
    for e in table.entries():
        bounds = {"module": e.lo} if e.lo == e.hi else {"lo": e.lo, "hi": e.hi}
        entries.append({"key": f"{e.family}/{e.rank}/{e.q}/{e.p}",
                        "provenance": e.provenance,
                        **{k: _module_to_pairs(m) for k, m in bounds.items()}})
    doc = {"version": TABLE_FORMAT,
           "complete": [f"{f}/{r}/{q}" for f, r, q in table.coverage()],
           "entries": entries}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_table(text: str) -> CohomologyTable:
    doc = _json_object(json.loads(text))
    if doc.get("version") not in (TABLE_FORMAT, _TABLE_FORMAT_1):
        raise ValueError(f"unsupported table format: {doc.get('version')!r}")
    table = CohomologyTable()
    try:
        for entry in _json_list(doc, "entries"):
            entry = _json_object(entry)
            family, rank, q, p = _parse_key(entry["key"], 3)
            provenance = entry.get("provenance", "")
            if not isinstance(provenance, str):
                raise ValueError(f"provenance of table key {entry['key']} is "
                                 "not a string")
            # Only /1 has the placeholder; every /1 entry has a module.
            if (doc["version"] == _TABLE_FORMAT_1
                    and entry["module"] == "trivial-unresolved"):
                lo, hi = FormalGModule(), _unresolved_bound(family, rank, q, p)
            elif "module" not in entry:
                lo, hi = (_module_from_pairs(entry[k], rank) for k in ("lo", "hi"))
            elif "lo" in entry or "hi" in entry:
                raise ValueError(f"table key {entry['key']} has a module and "
                                 "an interval")
            else:
                lo = hi = _module_from_pairs(entry["module"], rank)
            table.add(family, rank, q, p, lo, hi, provenance=provenance)
        for key in _json_list(doc, "complete"):
            table.mark_complete(*_parse_key(key, 2))
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from exc
    return table


def _unresolved_bound(family: str, rank: int, q: int, p: int) -> FormalGModule:
    """The hi of a "trivial-unresolved" H^p(X, b^q), whose lo is 0: the zero
    weight, as often as psupp(b^q) holds it in degree p."""
    if q < 1 or p < 0:  # a key that ``add`` refuses
        return FormalGModule()
    rs, name = build_root_system(family, rank), f"{family}/{rank}/{q}/{p}"
    zero = (0,) * rs.rank
    try:
        ps = psupp(rs, f"b^{q}")
    except SizeCapExceeded as exc:
        raise ValueError(f"{name}: {exc}") from exc
    count = ps.multiset(p).get(zero)
    if not count:
        raise ValueError(f"{name}: trivial-isotypic placeholder but the zero "
                         f"weight is outside potential support at degree {p}")
    return FormalGModule({zero: count})


def _json_object(doc) -> dict:
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    return doc


def _json_list(doc: dict, name: str) -> list:
    """``doc[name]``, which must be a list: a string's characters are not
    its keys."""
    value = doc[name]
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _parse_key(key: str, numbers: int) -> tuple:
    """``F/rank/q[/p]`` written as ``save_table`` writes it: ``int`` alone
    reads ``"A/2/1_0"`` as q = 10, and ``" A/2/2"`` has family ``" A"``."""
    if not isinstance(key, str):
        raise ValueError(f"table key {key!r} is not a string")
    if not re.fullmatch(r"[A-Z]+" + r"/(0|-?[1-9][0-9]*)" * numbers, key):
        raise ValueError(f"malformed table key {key!r}")
    family, *rest = key.split("/")
    return (family, *map(int, rest))


def builtin_tables() -> CohomologyTable:
    """The established cohomology of b^{tensor q} for the supported window."""
    t = CohomologyTable()

    # q = 1: all cohomology vanishes (every supported family/rank).
    for rank in range(1, 8):
        t.mark_complete("A", rank, 1)
    t.mark_complete("B", 2, 1)

    # q = 2, type A, n >= 3: H^1 = C, all other degrees zero.
    for rank in range(2, 8):
        t.add("A", rank, 2, 1,
              FormalGModule({(0,) * rank: 1}),
              provenance="established: tensor square, type A (n>=3); "
                          "H^1 is the trivial module")
        t.mark_complete("A", rank, 2)

    # q = 3, type A: concentrated in degree 2 (plus degree 3 exactly for n=4).
    t.add("A", 2, 3, 2,
          FormalGModule({(0, 0): 2, (1, 1): 5, (3, 0): 1, (0, 3): 1}),
          provenance="established: tensor cube, sl_3; "
                      "H^2 = C^2 + L(1,1)^5 + L(3,0) + L(0,3)")
    t.mark_complete("A", 2, 3)
    t.add("A", 3, 3, 2, FormalGModule({(0, 0, 0): 2}),
          provenance="established: tensor cube, sl_4; H^2 = C^2")
    t.add("A", 3, 3, 3, FormalGModule({(0, 2, 0): 1}),
          provenance="established: tensor cube, sl_4; H^3 = L(0,2,0)")
    t.mark_complete("A", 3, 3)
    for rank in range(4, 8):
        t.add("A", rank, 3, 2, FormalGModule({(0,) * rank: 2}),
              provenance="established: tensor cube, type A (n>=5); H^2 = C^2")
        t.mark_complete("A", rank, 3)

    # q = 4, type A, n = 6 and 7: H^2 = C^m2 and H^3 = C^m3, m2 and m3 not
    # known.  Each m_p is at most psupp_p(b^4)'s zero-weight count c_p (A5:
    # 4680, 4788; A6: 9360, 9222), and m2 - m3 = chi_G(0) = -3, so m2 is in
    # [0, min(c2, c3 - 3)].  For n = 6 additionally H^5 = L(0,0,2,0,0).
    for rank, m2 in ((5, 4680), (6, 9219)):
        zero = (0,) * rank
        for p, lo, hi in ((2, 0, m2), (3, 3, m2 + 3)):
            t.add("A", rank, 4, p, FormalGModule({zero: lo}),
                  FormalGModule({zero: hi}),
                  provenance=f"established: 4th tensor power, type A (n>=6); "
                             f"trivial-isotypic, multiplicity in [{lo}, {hi}] "
                             "by psupp(b^4) and chi_G(0) = -3")
        t.mark_complete("A", rank, 4)
    t.add("A", 5, 4, 5, FormalGModule({(0, 0, 2, 0, 0): 1}),
          provenance="established: 4th tensor power, sl_6; H^5 = L(0,0,2,0,0)")

    # B2, q = 2: H^1 = C and H^2 = L(alpha_1 + alpha_2) = L(0,1).
    t.add("B", 2, 2, 1, FormalGModule({(0, 0): 1}),
          provenance="established: tensor square, so_5; H^1 is trivial")
    t.add("B", 2, 2, 2, FormalGModule({(0, 1): 1}),
          provenance="established: tensor square, so_5; H^2 = L(0,1)")
    t.mark_complete("B", 2, 2)
    return t


@lru_cache(maxsize=None)
def _builtin() -> CohomologyTable:
    """The built-in table that ``e_page`` and ``verdict`` read when given no
    table: built once per process and never handed to a caller, who could
    mutate it (``builtin_tables()`` returns a fresh one)."""
    return builtin_tables()


class ValidationReport(Record):
    passed: bool
    checked: int
    failures: tuple[str, ...]


def validate_block(table: CohomologyTable, rs: RootSystem, q: int,
                   ps: PotentialSupport) -> ValidationReport:
    """Check the entries of one tensor power q against ``ps = psupp(rs, b^q)``.

    At every weight of an entry, its multiplicities must be positive and
    lo <= hi <= the potential support of its degree.  A complete block whose
    entries pass must also hold the G-equivariant Euler characteristic: by
    Borel-Weil-Bott, sum_p (-1)^p H^p equals chi_G = sum_k (-1)^k psupp_k,
    so at every weight chi_G lies between sum_even lo - sum_odd hi and
    sum_even hi - sum_odd lo (which are equal where every entry is exact).
    """
    failures: list[str] = []
    block = [e for e in table.entries()
             if (e.family, e.rank, e.q) == (rs.family, rs.rank, q)]
    least: dict[tuple[int, ...], int] = {}
    most: dict[tuple[int, ...], int] = {}
    for entry in block:
        name = f"{entry.family}/{entry.rank}/{entry.q}/{entry.p}"
        bound = ps.multiset(entry.p)
        odd = entry.p % 2
        for w in sorted(entry.lo.support() | entry.hi.support()):
            lo, hi, have = entry.lo.get(w), entry.hi.get(w), bound.get(w)
            least[w] = least.get(w, 0) + (-hi if odd else lo)
            most[w] = most.get(w, 0) + (-lo if odd else hi)
            if lo > hi:
                failures.append(f"{name}: multiplicity at least {lo} but at "
                                f"most {hi} at weight {w}")
            elif lo < 0:
                failures.append(f"{name}: multiplicity {lo} of weight {w} is "
                                "not positive")
            elif have == 0:
                failures.append(f"{name}: weight {w} outside potential support "
                                f"at degree {entry.p}")
            elif hi > have:
                failures.append(f"{name}: multiplicity {hi} of weight {w} exceeds "
                                f"potential-support bound {have}")
    if not failures and table.covers(rs.family, rs.rank, q):
        chi = alternating_module(ps)
        for w in sorted(chi.support() | least.keys()):
            low, high, want = least.get(w, 0), most.get(w, 0), chi.get(w)
            if not low <= want <= high:
                span = low if low == high else f"between {low} and {high}"
                failures.append(
                    f"{rs.family}/{rs.rank}/{q}: the recorded modules "
                    f"alternate to multiplicity {span} at highest weight {w}, "
                    f"chi_G has {want}")
    return ValidationReport(passed=not failures, checked=len(block),
                            failures=tuple(failures))


def validate_table(table: CohomologyTable) -> ValidationReport:
    """``validate_block`` on every tensor power that has entries or is
    marked complete, one potential support each."""
    failures: list[str] = []
    checked = 0
    blocks = {(e.family, e.rank, e.q) for e in table.entries()}
    for family, rank, q in sorted(blocks.union(table.coverage())):
        rs = build_root_system(family, rank)
        try:
            ps = psupp(rs, f"b^{q}")
        except SizeCapExceeded as exc:
            failures.append(f"{family}/{rank}/{q}: {exc}")
            continue
        report = validate_block(table, rs, q, ps)
        checked += report.checked
        failures.extend(report.failures)
    return ValidationReport(passed=not failures, checked=checked,
                            failures=tuple(failures))


def ensure_valid(table: CohomologyTable) -> None:
    report = validate_table(table)
    if not report.passed:
        raise ValidationFailure("; ".join(report.failures))


class PageCell(Record):
    """One page cell at (a, b) = (-q, p): copies * g^{tensor (r-q)} * H^p,
    with lo <= H^p <= hi from the table."""

    a: int
    b: int
    copies: int
    tensor_power: int
    lo: FormalGModule
    hi: FormalGModule

    @property
    def possibly_nonzero(self) -> bool:
        # Characters have no zero divisors: the cell is zero iff H^p is.
        return bool(self.hi)


class EPage(Record, uncompared=("cells",)):
    """First page of the filtration spectral sequence for r copies."""

    family: str
    rank: int
    r: int
    cells: dict[tuple[int, int], PageCell]

    def cell(self, a: int, b: int) -> PageCell | None:
        return self.cells.get((a, b))

    def possibly_nonzero(self, a: int, b: int) -> bool:
        cell = self.cells.get((a, b))
        return cell is not None and cell.possibly_nonzero

    def max_b(self) -> int:
        return max((b for _, b in self.cells), default=0)


def e_page(family: str, rank: int, r: int,
           table: CohomologyTable | None = None) -> EPage:
    """Assemble the page cells (-q, p) = C(r,q) * g^{(r-q)} * H^p(X, b^{q}).

    Raises LedgerGap when a needed tensor power lacks table coverage.
    """
    if table is None:
        table = _builtin()
    build_root_system(family, rank)  # raises UnsupportedFamilyRank
    trivial = FormalGModule({(0,) * rank: 1})
    cells: dict[tuple[int, int], PageCell] = {(0, 0): PageCell(
        a=0, b=0, copies=1, tensor_power=r, lo=trivial, hi=trivial)}
    for q in range(1, r + 1):
        for p in table.degrees(family, rank, q):  # may raise LedgerGap
            e = table.entry(family, rank, q, p)
            cells[(-q, p)] = PageCell(a=-q, b=p, copies=comb(r, q),
                                      tensor_power=r - q, lo=e.lo, hi=e.hi)
    return EPage(family=family, rank=rank, r=r, cells=cells)


def cell_module(rs: RootSystem, cell: PageCell) -> FormalGModule:
    """What a cell certainly holds, copies * g^tp (x) lo, decomposed:
    ``tensor_power`` Brauer-Klimyk steps over the weights of g, from
    copies * lo, so neither lo's characters nor g^tp's weights are built."""
    start = FormalGModule({mu: cell.copies * mult
                           for mu, mult in cell.lo._data.items()})
    return repthy.tensor_power(rs, start, weights(rs, "g"), cell.tensor_power)


class Witness(Record):
    a: int
    b: int
    module: FormalGModule
    reason: str


def certain_survivors(page: EPage) -> tuple[Witness, ...]:
    """Certainly-nonzero cells at a < 0 with no possibly-nonzero cell on
    any incoming or outgoing lane."""
    witnesses = []
    span = page.r + page.max_b() + 2
    for (a, b), cell in sorted(page.cells.items()):
        if a >= 0 or not cell.lo or any(
                page.possibly_nonzero(a - s, b + s - 1)
                or page.possibly_nonzero(a + s, b - s + 1)
                for s in range(1, span + 1)):
            continue
        rs = build_root_system(page.family, page.rank)
        witnesses.append(Witness(
            a=a, b=b, module=cell_module(rs, cell),
            reason=(f"cell ({a},{b}) has no possibly-nonzero source or "
                    f"target on any lane; contributes in total degree {a + b}")))
    return tuple(witnesses)


class Verdict(Record):
    family: str
    rank: int
    r: int
    normal: str
    rational: str
    path: str  # "vanishing-criterion" or "page-scan"
    witnesses: tuple[Witness, ...]


def _vanishing_criterion(table: CohomologyTable, family: str, rank: int) -> bool:
    """True when every tensor power q has cohomology only below degree q.

    Degrees beyond the number of positive roots vanish for dimension reasons,
    so coverage through q = #positive roots suffices for every r.
    """
    rs = build_root_system(family, rank)
    for q in range(1, len(rs.positive_roots) + 1):
        if not table.covers(family, rank, q):
            return False
        if any(p >= q for p in table.degrees(family, rank, q)):
            return False
    return True


def verdict(family: str, rank: int, r: int,
            table: CohomologyTable | None = None) -> Verdict:
    """Decide normality / rational singularities for the closure of r-tuples.

    First tries the vanishing criterion (implies rational singularities, hence
    normality, for every r); otherwise scans the page for certain survivors:
    total degree 0 refutes normality, total degree >= 1 refutes rationality of
    the normalization.  The abutment has no cohomology below total degree 0,
    so a certain survivor there raises ``CheckFailed``.
    """
    if table is None:
        table = _builtin()
    if r < 1:
        raise ValueError("r must be >= 1")
    if _vanishing_criterion(table, family, rank):
        return Verdict(family=family, rank=rank, r=r, normal=NORMAL_YES,
                       rational=RATIONAL_YES, path="vanishing-criterion",
                       witnesses=())
    page = e_page(family, rank, r, table)
    witnesses = certain_survivors(page)
    for w in witnesses:
        if w.a + w.b < 0:
            raise CheckFailed(f"cell ({w.a},{w.b}) certainly survives in total "
                              f"degree {w.a + w.b} < 0: the table is inconsistent")
    normal = NORMAL_NO if any(w.a + w.b == 0 for w in witnesses) else NORMAL_UNKNOWN
    rational = (RATIONAL_NO if any(w.a + w.b >= 1 for w in witnesses)
                else RATIONAL_UNKNOWN)
    return Verdict(family=family, rank=rank, r=r, normal=normal,
                   rational=rational, path="page-scan", witnesses=witnesses)
