"""Established cohomology tables for Borel-power bundles, the first-quadrant
page they induce, and the normality / rational-singularity verdict engine.

A ``CohomologyTable`` records H^p(X, b^{tensor q}) as formal G-modules, with
explicit completeness marks: within a declared (family, rank, q) the absent
degrees are genuinely zero; outside declared coverage nothing is known and
consumers raise ``LedgerGap``.  Placeholder entries record "trivial-isotypic,
multiplicity unresolved" facts without guessing a number; the verdict engine
treats them as possibly-nonzero blockers and never as witnesses, so verdicts
are independent of the unknown multiplicities.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb

from . import repthy
from ._record import Record
from .bundles import weights
from .bwb import PotentialSupport, psupp
from .errors import LedgerGap, SizeCapExceeded, ValidationFailure
from .repthy import FormalGModule
from .rootsys import RootSystem, build_root_system

TABLE_FORMAT = "bott-null-ledger/1"

NORMAL_YES = "yes"
NORMAL_NO = "no"
NORMAL_UNKNOWN = "unknown"
RATIONAL_YES = "yes"
RATIONAL_NO = "normalization-not-rational"
RATIONAL_UNKNOWN = "unknown"


class TableEntry(Record):
    family: str
    rank: int
    q: int
    p: int
    module: FormalGModule | None  # None <=> unresolved placeholder
    provenance: str

    @property
    def unresolved(self) -> bool:
        return self.module is None


class CohomologyTable:
    """Nonzero-only cohomology entries plus completeness marks."""

    def __init__(self):
        self._entries: dict[tuple[str, int, int, int], TableEntry] = {}
        self._complete: set[tuple[str, int, int]] = set()

    def add(self, family: str, rank: int, q: int, p: int, *,
            module: FormalGModule | None, provenance: str = "") -> None:
        """Record H^p(X, b^q); ``module=None`` records a placeholder."""
        if q < 1 or p < 0:
            raise ValueError(f"table key {family}/{rank}/{q}/{p} needs q >= 1 "
                             "and p >= 0")
        if (family, rank, q, p) in self._entries:
            raise ValueError(f"duplicate table key {family}/{rank}/{q}/{p}")
        self._entries[(family, rank, q, p)] = TableEntry(
            family=family, rank=rank, q=q, p=p, module=module,
            provenance=provenance)

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
        """Degrees p with recorded (nonzero or unresolved) cohomology."""
        if not self.covers(family, rank, q):
            raise LedgerGap(family, rank, q)
        return tuple(sorted(p for (f, r, qq, p) in self._entries
                            if (f, r, qq) == (family, rank, q)))

    def entries(self) -> list[TableEntry]:
        return [self._entries[k] for k in sorted(self._entries)]

    def coverage(self) -> list[tuple[str, int, int]]:
        return sorted(self._complete)


def _module_from_pairs(pairs, rank: int) -> FormalGModule:
    mults = {}
    for coords, mult in pairs:
        if (len(coords) != rank
                or not all(type(c) is int and c >= 0 for c in coords)):
            raise ValueError(
                f"module weight {coords!r} is not a dominant weight of rank {rank}")
        if type(mult) is not int or mult < 1:
            raise ValueError(
                f"multiplicity {mult!r} of module weight {coords!r} is not a "
                "positive integer")
        mults[tuple(coords)] = mult
    return FormalGModule(mults)


def _module_to_pairs(module: FormalGModule) -> list:
    return [[list(w), m] for w, m in module.sorted_items()]


def save_table(table: CohomologyTable) -> str:
    entries = []
    for e in table.entries():
        doc = {"key": f"{e.family}/{e.rank}/{e.q}/{e.p}",
               "provenance": e.provenance,
               "module": ("trivial-unresolved" if e.unresolved
                          else _module_to_pairs(e.module))}
        entries.append(doc)
    doc = {"version": TABLE_FORMAT,
           "complete": [f"{f}/{r}/{q}" for f, r, q in table.coverage()],
           "entries": entries}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_table(text: str) -> CohomologyTable:
    doc = json.loads(text)
    if doc.get("version") != TABLE_FORMAT:
        raise ValueError(f"unsupported table format: {doc.get('version')!r}")
    table = CohomologyTable()
    for entry in doc["entries"]:
        family, rank, q, p = entry["key"].split("/")
        module = entry["module"]
        table.add(family, int(rank), int(q), int(p),
                  module=(None if module == "trivial-unresolved"
                          else _module_from_pairs(module, int(rank))),
                  provenance=entry.get("provenance", ""))
    for key in doc["complete"]:
        family, rank, q = key.split("/")
        table.mark_complete(family, int(rank), int(q))
    return table


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
              module=FormalGModule({(0,) * rank: 1}),
              provenance="established: tensor square, type A (n>=3); "
                          "H^1 is the trivial module")
        t.mark_complete("A", rank, 2)

    # q = 3, type A: concentrated in degree 2 (plus degree 3 exactly for n=4).
    t.add("A", 2, 3, 2,
          module=FormalGModule({(0, 0): 2, (1, 1): 5, (3, 0): 1, (0, 3): 1}),
          provenance="established: tensor cube, sl_3; "
                      "H^2 = C^2 + L(1,1)^5 + L(3,0) + L(0,3)")
    t.mark_complete("A", 2, 3)
    t.add("A", 3, 3, 2, module=FormalGModule({(0, 0, 0): 2}),
          provenance="established: tensor cube, sl_4; H^2 = C^2")
    t.add("A", 3, 3, 3, module=FormalGModule({(0, 2, 0): 1}),
          provenance="established: tensor cube, sl_4; H^3 = L(0,2,0)")
    t.mark_complete("A", 3, 3)
    for rank in range(4, 8):
        t.add("A", rank, 3, 2, module=FormalGModule({(0,) * rank: 2}),
              provenance="established: tensor cube, type A (n>=5); H^2 = C^2")
        t.mark_complete("A", rank, 3)

    # q = 4, type A, n = 6 and 7: trivial-isotypic in degrees 2 and 3 with
    # unresolved multiplicity; for n = 6 additionally H^5 = L(0,0,2,0,0).
    for rank in (5, 6):
        for p in (2, 3):
            t.add("A", rank, 4, p, module=None,
                  provenance="established: 4th tensor power, type A (n>=6); "
                              "trivial-isotypic, multiplicity unresolved")
        t.mark_complete("A", rank, 4)
    t.add("A", 5, 4, 5, module=FormalGModule({(0, 0, 2, 0, 0): 1}),
          provenance="established: 4th tensor power, sl_6; H^5 = L(0,0,2,0,0)")

    # B2, q = 2: H^1 = C and H^2 = L(alpha_1 + alpha_2) = L(0,1).
    t.add("B", 2, 2, 1, module=FormalGModule({(0, 0): 1}),
          provenance="established: tensor square, so_5; H^1 is trivial")
    t.add("B", 2, 2, 2, module=FormalGModule({(0, 1): 1}),
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

    Placeholders must have the zero weight in potential support at their
    degree; explicit modules need supportwise containment and multiplicity
    domination.  A complete block whose entries pass must also alternate to
    the G-equivariant Euler characteristic: by Borel-Weil-Bott,
    sum_p (-1)^p H^p equals sum_k (-1)^k psupp_k weight by weight, except
    at the zero weight of a block that holds a placeholder.
    """
    failures: list[str] = []
    block = [e for e in table.entries()
             if (e.family, e.rank, e.q) == (rs.family, rs.rank, q)]
    zero = (0,) * rs.rank
    alternating: dict[tuple[int, ...], int] = {}
    for entry in block:
        name = f"{entry.family}/{entry.rank}/{entry.q}/{entry.p}"
        if entry.unresolved:
            if zero not in ps.support(entry.p):
                failures.append(
                    f"{name}: trivial-isotypic placeholder but the zero weight "
                    f"is outside potential support at degree {entry.p}")
            continue
        bound = ps.multiset(entry.p)
        for w, m in entry.module.sorted_items():
            alternating[w] = alternating.get(w, 0) + (-1) ** entry.p * m
            have = bound.get(w)
            if m < 1:
                failures.append(f"{name}: multiplicity {m} of weight {w} is "
                                "not positive")
            elif have == 0:
                failures.append(f"{name}: weight {w} outside potential support "
                                f"at degree {entry.p}")
            elif m > have:
                failures.append(f"{name}: multiplicity {m} of weight {w} exceeds "
                                f"potential-support bound {have}")
    if not failures and table.covers(rs.family, rs.rank, q):
        chi = repthy.alternating_module(ps)
        exempt = zero if any(e.unresolved for e in block) else None
        for w in sorted(chi.support() | alternating.keys()):
            if w != exempt and alternating.get(w, 0) != chi.get(w):
                failures.append(
                    f"{rs.family}/{rs.rank}/{q}: the recorded modules "
                    f"alternate to multiplicity {alternating.get(w, 0)} at "
                    f"highest weight {w}, chi_G has {chi.get(w)}")
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
    """One page cell at (a, b) = (-q, p): copies * g^{tensor (r-q)} * H^p."""

    a: int
    b: int
    copies: int
    tensor_power: int
    coh: FormalGModule | None  # the table's H^p; None for a placeholder

    @property
    def unresolved(self) -> bool:
        return self.coh is None

    @property
    def possibly_nonzero(self) -> bool:
        # Characters have no zero divisors: the cell is zero iff H^p is.
        return self.unresolved or bool(self.coh)


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
    cells: dict[tuple[int, int], PageCell] = {}
    for q in range(0, r + 1):
        if q == 0:
            cohs = {0: FormalGModule({(0,) * rank: 1})}
        else:  # table.degrees may raise LedgerGap
            cohs = {p: table.entry(family, rank, q, p).module
                    for p in table.degrees(family, rank, q)}
        for p, coh in cohs.items():
            cells[(-q, p)] = PageCell(a=-q, b=p, copies=comb(r, q),
                                      tensor_power=r - q, coh=coh)
    return EPage(family=family, rank=rank, r=r, cells=cells)


def cell_module(rs: RootSystem, cell: PageCell) -> FormalGModule:
    """The decomposed content of a resolved cell, copies * g^tp (x) H^p:
    ``tensor_power`` Brauer-Klimyk steps over the weights of g, from
    copies * H^p, so neither H^p's characters nor g^tp's weights are built."""
    start = FormalGModule({mu: cell.copies * mult
                           for mu, mult in cell.coh.sorted_items()})
    return repthy.tensor_power(rs, start, weights(rs, "g"), cell.tensor_power)


class Witness(Record):
    a: int
    b: int
    module: FormalGModule
    reason: str


def certain_survivors(page: EPage) -> tuple[Witness, ...]:
    """Cells at a < 0 with every incoming and outgoing lane zero on the page.

    Unresolved placeholder cells block neighbours (possibly nonzero) but are
    never reported: their own content is unknown.
    """
    witnesses = []
    span = page.r + page.max_b() + 2
    for (a, b), cell in sorted(page.cells.items()):
        if a >= 0 or not cell.coh:  # zero or a placeholder
            continue
        blocked = False
        for s in range(1, span + 1):
            if (page.possibly_nonzero(a - s, b + s - 1)
                    or page.possibly_nonzero(a + s, b - s + 1)):
                blocked = True
                break
        if not blocked:
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
    the normalization.
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
    normal = NORMAL_NO if any(w.a + w.b == 0 for w in witnesses) else NORMAL_UNKNOWN
    rational = (RATIONAL_NO if any(w.a + w.b >= 1 for w in witnesses)
                else RATIONAL_UNKNOWN)
    return Verdict(family=family, rank=rank, r=r, normal=normal,
                   rational=rational, path="page-scan", witnesses=witnesses)
