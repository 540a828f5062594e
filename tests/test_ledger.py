import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bottnull import bwb, ledger, repthy
from bottnull.bundles import weights
from bottnull.bwb import psupp
from bottnull.errors import (CheckFailed, LedgerGap, UnsupportedFamilyRank,
                             ValidationFailure)
from bottnull.ledger import (CohomologyTable, builtin_tables,
                             certain_survivors, e_page, ensure_valid,
                             load_table, save_table, validate_table, verdict)
from bottnull.rootsys import build_root_system


def test_builtin_coverage():
    table = builtin_tables()
    for rank in range(1, 8):
        assert table.covers("A", rank, 1)
        assert table.degrees("A", rank, 1) == ()
    for rank in range(2, 8):
        assert table.covers("A", rank, 2)
        assert table.degrees("A", rank, 2) == (1,)
    assert table.covers("B", 2, 1) and table.covers("B", 2, 2)
    assert table.degrees("B", 2, 2) == (1, 2)
    assert table.covers("A", 2, 3) and table.covers("A", 3, 3)
    assert table.covers("A", 5, 4) and table.covers("A", 6, 4)
    assert not table.covers("A", 2, 4)
    assert not table.covers("B", 2, 3)
    # The recorded degrees of every covered block: report checks each block
    # against psupp and chi_G but no longer restates these tuples.
    want = {("A", rank, 1): () for rank in range(1, 8)}
    want.update({("A", rank, 2): (1,) for rank in range(2, 8)})
    want.update({("A", rank, 3): (2,) for rank in (2, 4, 5, 6, 7)})
    want.update({("A", 3, 3): (2, 3), ("A", 5, 4): (2, 3, 5),
                 ("A", 6, 4): (2, 3), ("B", 2, 1): (), ("B", 2, 2): (1, 2)})
    assert {block: table.degrees(*block) for block in table.coverage()} == want


def test_builtin_entry_values():
    table = builtin_tables()
    e = table.entry("A", 2, 2, 1)
    assert e.lo == e.hi == {(0, 0): 1}
    e = table.entry("A", 2, 3, 2)
    assert e.lo == e.hi == {(0, 0): 2, (1, 1): 5, (3, 0): 1, (0, 3): 1}
    # The recorded q=3 module for A2 is the single degree-2 display
    # (multiplicities are the established alternating counts).
    assert table.entry("A", 2, 3, 3) is None
    e = table.entry("A", 3, 3, 3)
    assert e.lo == e.hi == {(0, 2, 0): 1}
    e = table.entry("B", 2, 2, 2)
    assert e.lo == e.hi == {(0, 1): 1}
    e = table.entry("A", 5, 4, 5)
    assert e.lo == e.hi == {(0, 0, 2, 0, 0): 1}
    e = table.entry("A", 5, 4, 2)
    assert (e.lo, e.hi) == ({}, {(0, 0, 0, 0, 0): 4680})
    e = table.entry("A", 5, 4, 3)
    assert (e.lo, e.hi) == ({(0, 0, 0, 0, 0): 3}, {(0, 0, 0, 0, 0): 4683})
    # Covered (q, p) with no entry means zero.
    assert table.entry("A", 2, 2, 2) is None
    assert table.entry("A", 2, 1, 1) is None


def test_entry_raises_on_gap():
    table = builtin_tables()
    with pytest.raises(LedgerGap) as err:
        table.entry("A", 2, 4, 1)
    assert (err.value.family, err.value.rank, err.value.q) == ("A", 2, 4)
    with pytest.raises(LedgerGap):
        table.degrees("B", 2, 3)


def test_alternating_dimensions_match_euler():
    # Recorded cohomology tables alternate to the Euler characteristic.
    from bottnull import bwb
    table = builtin_tables()
    cases = [("A", 2, 2, "b^2"), ("A", 2, 3, "b^3"), ("A", 3, 3, "b^3"),
             ("B", 2, 2, "b^2"), ("A", 4, 3, "b^3")]
    for family, rank, q, expr in cases:
        rs = build_root_system(family, rank)
        total = 0
        for p in table.degrees(family, rank, q):
            entry = table.entry(family, rank, q, p)
            assert entry.lo == entry.hi
            total += (-1) ** p * entry.lo.dimension(rs)
        assert total == bwb.euler_characteristic(rs, expr), (family, rank, q)


def test_validate_builtin_tables():
    report = validate_table(builtin_tables())
    assert report.passed
    assert report.failures == ()
    assert report.checked > 0
    ensure_valid(builtin_tables())


def test_validation_mutation_fails():
    table = builtin_tables()
    mutated = CohomologyTable()
    for e in table.entries():
        lo, hi = e.lo, e.hi
        if (e.family, e.rank, e.q, e.p) == ("A", 2, 2, 1):
            lo = hi = repthy.FormalGModule({(0, 0): 1, (1, 1): 1})
        mutated.add(e.family, e.rank, e.q, e.p, lo, hi,
                    provenance=e.provenance)
    for family, rank, q in table.coverage():
        mutated.mark_complete(family, rank, q)
    report = validate_table(mutated)
    assert not report.passed
    assert any("A" in f and "(1, 1)" in f for f in report.failures)
    with pytest.raises(ValidationFailure):
        ensure_valid(mutated)


def test_validation_catches_excess_multiplicity():
    table = CohomologyTable()
    # H^1(b (x) b) = C^9 exceeds the potential-support bound of 8.
    table.add("A", 2, 2, 1, repthy.FormalGModule({(0, 0): 9}))
    table.mark_complete("A", 2, 2)
    report = validate_table(table)
    assert not report.passed


def test_save_load_round_trip(tmp_path):
    table = builtin_tables()
    text = save_table(table)
    again = load_table(text)
    assert save_table(again) == text
    assert again.coverage() == table.coverage()
    assert again.entries() == table.entries()
    with pytest.raises(Exception):
        load_table('{"format": "other/9", "entries": []}')


NOT_DOMINANT = "not a dominant weight of rank 2"
NOT_POSITIVE = "not a positive integer"


@pytest.mark.parametrize("weight,mult,match", [
    ([0, 0, 0], 1, NOT_DOMINANT), ([0], 1, NOT_DOMINANT),
    ([-1, 0], 1, NOT_DOMINANT), ([1.0, 0], 1, NOT_DOMINANT),
    ([True, 0], 1, NOT_DOMINANT),
    ([0, 0], -1, NOT_POSITIVE), ([0, 0], 0, NOT_POSITIVE),
    ([0, 0], 1.9, NOT_POSITIVE), ([0, 0], 1.0, NOT_POSITIVE),
    ([0, 0], True, NOT_POSITIVE), ([0, 0], "1", NOT_POSITIVE),
], ids=[f"weight{i}" for i in range(5)]
   + ["mult-negative", "mult-zero", "mult-float", "mult-integral-float",
      "mult-bool", "mult-str"])
def test_load_table_rejects_bad_module_weights(weight, mult, match):
    doc = json.loads(save_table(builtin_tables()))
    (entry,) = [e for e in doc["entries"] if e["key"] == "A/2/2/1"]
    entry["module"] = [[weight, mult]]
    with pytest.raises(ValueError, match=match):
        load_table(json.dumps(doc))


def test_load_table_refuses_duplicate_and_out_of_range_keys():
    doc = json.loads(save_table(builtin_tables()))
    doc["entries"].append({"key": "A/2/2/1", "module": [[[0, 0], 2]]})
    with pytest.raises(ValueError, match="duplicate table key A/2/2/1"):
        load_table(json.dumps(doc))
    doc["entries"][-1]["key"] = "A/2/0/1"
    with pytest.raises(ValueError, match="A/2/0/1 needs q >= 1 and p >= 0"):
        load_table(json.dumps(doc))
    doc["entries"].pop()
    doc["complete"].append("A/2/-1")
    with pytest.raises(ValueError, match="A/2/-1 needs q >= 1"):
        load_table(json.dumps(doc))


def test_load_table_refuses_what_save_table_never_writes():
    # Each was once read: a repeated weight kept its last multiplicity, and
    # int() read "0_1" as 1 and kept " A" as a family.
    doc = json.loads(save_table(builtin_tables()))
    (entry,) = [e for e in doc["entries"] if e["key"] == "A/2/2/1"]
    entry["module"] = [[[0, 0], 2], [[0, 0], 1]]
    with pytest.raises(ValueError, match=r"module weight \[0, 0\] is listed twice"):
        load_table(json.dumps(doc))
    entry["module"] = [[[0, 0], 1]]
    for key in ("A/2/2/0_1", "A/2/2/+1", "A/2/2/01", "A/2/2/ 1", " A/2/2/1",
                "a/2/2/1", "A/2/2", "A/2/2/1/0"):
        entry["key"] = key
        with pytest.raises(ValueError, match="malformed table key"):
            load_table(json.dumps(doc))
    entry["key"] = "A/2/2/1"
    for key in ("A/2/1_0", " A/2/2", "A/2", "A/2/2/1"):
        doc["complete"].append(key)
        with pytest.raises(ValueError, match="malformed table key"):
            load_table(json.dumps(doc))
        doc["complete"].pop()
    assert save_table(load_table(json.dumps(doc))) == save_table(builtin_tables())


def _entry_module(module):
    def edit(doc):
        (entry,) = [e for e in doc["entries"] if e["key"] == "A/2/2/1"]
        entry["module"] = module
    return edit


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc.update(complete=[5]), "table key 5 is not a string"),
    (lambda doc: doc["entries"][0].update(key=5), "table key 5 is not a string"),
    (lambda doc: doc.update(complete="A/2/1"),
     "complete must be a list, got 'A/2/1'"),
    (lambda doc: doc.update(entries={}), "entries must be a list, got {}"),
    (_entry_module([[[0, 0]]]),
     r"module entry \[\[0, 0\]\] is not a \[weight, multiplicity\] pair"),
    (_entry_module([5]),
     r"module entry 5 is not a \[weight, multiplicity\] pair"),
    (_entry_module([[0, 1]]),
     "module weight 0 is not a dominant weight of rank 2"),
], ids=["complete-key-int", "entry-key-int", "complete-string",
        "entries-object", "pair-of-one", "pair-int", "pair-weight-int"])
def test_load_table_names_a_document_of_the_wrong_shape(edit, message):
    # Each once raised a message of Python internals ("expected string or
    # bytes-like object", "not enough values to unpack", "cannot unpack
    # non-iterable int object", "object of type 'int' has no len()"), or,
    # for a string of complete marks, named its first character as a key.
    doc = json.loads(save_table(builtin_tables()))
    edit(doc)
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_table(json.dumps(doc))


def test_load_table_refuses_a_provenance_that_is_not_a_string():
    doc = json.loads(save_table(builtin_tables()))
    first = doc["entries"][0]
    for value in (["x", 5], 5, None, {"text": "x"}):
        first["provenance"] = value
        with pytest.raises(ValueError, match=f"provenance of table key "
                                             f"{first['key']} is not a string"):
            load_table(json.dumps(doc))
    del first["provenance"]  # absent reads as ""
    assert load_table(json.dumps(doc)).entries()[0].provenance == ""


def _builtin_edited(edit):
    doc = json.loads(save_table(builtin_tables()))
    edit(doc)
    return load_table(json.dumps(doc))


def _without(key):
    def edit(doc):
        doc["entries"] = [e for e in doc["entries"] if e["key"] != key]
    return edit


def test_complete_blocks_must_alternate_to_the_euler_characteristic():
    # A3 q=4 marked complete with no entries claims H^*(X, b^4) = 0.
    report = validate_table(_builtin_edited(
        lambda doc: doc["complete"].append("A/3/4")))
    assert not report.passed
    assert all(f.startswith("A/3/4: ") for f in report.failures)
    assert ("A/3/4: the recorded modules alternate to multiplicity 0 at "
            "highest weight (0, 0, 0), chi_G has -3") in report.failures
    # B2 q=2 without its H^2 = L(0,1).
    report = validate_table(_builtin_edited(_without("B/2/2/2")))
    assert report.failures == (
        "B/2/2: the recorded modules alternate to multiplicity 0 at "
        "highest weight (0, 1), chi_G has 1",)
    # Placeholders exempt the zero weight of their block, nothing else.
    report = validate_table(_builtin_edited(_without("A/5/4/5")))
    assert report.failures == (
        "A/5/4: the recorded modules alternate to multiplicity 0 at "
        "highest weight (0, 0, 2, 0, 0), chi_G has -1",)
    with pytest.raises(ValidationFailure):
        ensure_valid(_builtin_edited(_without("A/2/3/2")))


def test_validate_block_uses_the_given_potential_support():
    table = builtin_tables()
    rs = build_root_system("A", 3)
    ps = psupp(rs, "b^3")
    report = ledger.validate_block(table, rs, 3, ps)
    assert report.passed and report.checked == 2
    # A potential support without H^3's weight refuses the recorded L(0,2,0).
    report = ledger.validate_block(table, rs, 3, psupp(rs, "b^2"))
    assert "A/3/3/3: weight (0, 2, 0) outside potential support at degree 3" \
        in report.failures


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2)])
def test_euler_module_of_psupp(family, rank):
    rs = build_root_system(family, rank)
    for q in (1, 2, 3):
        ws = weights(rs, f"b^{q}")
        chi = bwb.alternating_module(psupp(rs, ws))
        assert chi == repthy._signed_walk(rs, list(ws._data), ws._data.values())
        # Independently, by words: chi_G and the bundle's weights have the
        # same Weyl numerator sum_w sign(w) e^{w(lambda + rho)}.
        assert (oracles.weyl_numerator(rs, chi.mults)
                == oracles.weyl_numerator(rs, ws.counts)), (family, rank, q)


def test_validation_reports_non_positive_multiplicity():
    # A table built in code can hold a virtual module; validation refuses it.
    table = CohomologyTable()
    table.add("A", 3, 3, 3, repthy.FormalGModule({(0, 2, 0): -1}))
    table.mark_complete("A", 3, 3)
    report = validate_table(table)
    assert report.failures == (
        "A/3/3/3: multiplicity -1 of weight (0, 2, 0) is not positive",)
    with pytest.raises(ValidationFailure):
        ensure_valid(table)


def test_placeholder_outside_potential_support_is_refused():
    # A2 has no degree 4: psupp(b^2) lacks the zero weight there, so an old
    # placeholder has no interval to load as.
    doc = {"version": "bott-null-ledger/1", "complete": [],
           "entries": [{"key": "A/2/2/4", "module": "trivial-unresolved"}]}
    with pytest.raises(ValueError) as err:
        load_table(json.dumps(doc))
    assert str(err.value) == (
        "A/2/2/4: trivial-isotypic placeholder but the zero weight is "
        "outside potential support at degree 4")
    # Past the cost cap, the refusal names the key.
    doc["entries"][0]["key"] = "A/1/3000000/1"
    with pytest.raises(ValueError, match="^A/1/3000000/1: expression "):
        load_table(json.dumps(doc))
    # An unsupported system is refused before any weight of its rank is built.
    doc["entries"][0]["key"] = "A/1000000000/1/1"
    with pytest.raises(UnsupportedFamilyRank):
        load_table(json.dumps(doc))
    # Where the count is positive, the placeholder loads as [0, count].
    doc["entries"][0]["key"] = "A/2/2/1"
    (entry,) = load_table(json.dumps(doc)).entries()
    assert (entry.lo, entry.hi) == ({}, {(0, 0): 8})


def test_each_format_holds_only_its_own_entries():
    # The placeholder is old-format only; an old file never held lo and hi.
    doc = json.loads(save_table(builtin_tables()))
    (entry,) = [e for e in doc["entries"] if e["key"] == "A/2/2/1"]
    entry["module"] = "trivial-unresolved"
    with pytest.raises(ValueError, match="^module 'trivial-unresolved' is "
                                         "not a list of pairs$"):
        load_table(json.dumps(doc))
    doc["version"] = "bott-null-ledger/1"
    entry["module"] = entry["lo"] = entry["hi"] = [[[0, 0], 1]]
    with pytest.raises(ValueError, match="^table key A/2/2/1 has a module "
                                         "and an interval$"):
        load_table(json.dumps(doc))
    del entry["module"]
    with pytest.raises(ValueError, match="^missing key 'module'$"):
        load_table(json.dumps(doc))


def test_an_entry_is_one_interval_of_modules():
    table = CohomologyTable()
    module = repthy.FormalGModule({(0, 0): 1})
    wider = repthy.FormalGModule({(0, 0): 3, (1, 1): 1})
    with pytest.raises(TypeError):
        table.add("A", 2, 2, 1, module=module)
    with pytest.raises(TypeError):
        table.add("A", 2, 2, 1)
    table.add("A", 2, 2, 1, module)
    table.add("A", 2, 2, 2, module, wider)
    table.add("A", 2, 2, 3, repthy.FormalGModule(), wider)
    table.mark_complete("A", 2, 2)
    exact, interval, upper = table.entries()
    assert exact.lo == exact.hi == module
    assert (interval.lo, interval.hi) == (module, wider)
    assert (upper.lo, upper.hi) == ({}, wider)
    # An exact entry keeps the spelling of bott-null-ledger/1; an interval
    # is written as its two ends.
    text = save_table(table)
    doc = json.loads(text)
    assert doc["version"] == ledger.TABLE_FORMAT == "bott-null-ledger/2"
    assert [sorted(e) for e in doc["entries"]] == [
        ["key", "module", "provenance"], ["hi", "key", "lo", "provenance"],
        ["hi", "key", "lo", "provenance"]]
    assert doc["entries"][2]["lo"] == []
    again = load_table(text)
    assert again.entries() == table.entries()
    assert save_table(again) == text
    # Both spellings in one entry, or an interval with one end, is refused.
    doc["entries"][0]["hi"] = [[[0, 0], 2]]
    with pytest.raises(ValueError, match="^table key A/2/2/1 has a module "
                                         "and an interval$"):
        load_table(json.dumps(doc))
    del doc["entries"][0]["module"]
    with pytest.raises(ValueError, match="^missing key 'lo'$"):
        load_table(json.dumps(doc))
    builtin = builtin_tables()
    for (a, b), cell in e_page("A", 5, 4).cells.items():
        if a == -4:
            entry = builtin.entry("A", 5, 4, b)
            assert (cell.lo, cell.hi) == (entry.lo, entry.hi)
        assert cell.possibly_nonzero == bool(cell.hi)


def _set_bounds(key, lo, hi):
    """An edit that makes the entry at ``key`` the interval [lo, hi], each
    given as {weight: multiplicity}."""
    def edit(doc):
        (entry,) = [e for e in doc["entries"] if e["key"] == key]
        entry.pop("module", None)
        entry["lo"], entry["hi"] = ([[list(w), m] for w, m in end.items()]
                                    for end in (lo, hi))
    return edit


A5_ZERO = (0, 0, 0, 0, 0)


def test_interval_with_lo_above_hi_is_refused():
    table = _builtin_edited(_set_bounds("A/5/4/2", {A5_ZERO: 5}, {A5_ZERO: 4}))
    assert validate_table(table).failures == (
        "A/5/4/2: multiplicity at least 5 but at most 4 at weight "
        "(0, 0, 0, 0, 0)",)
    with pytest.raises(ValidationFailure):
        ensure_valid(table)


def test_interval_with_hi_above_potential_support_is_refused():
    # psupp(b^4) holds the zero weight 4788 times in degree 3.
    table = _builtin_edited(_set_bounds("A/5/4/3", {A5_ZERO: 3},
                                        {A5_ZERO: 4789}))
    assert validate_table(table).failures == (
        "A/5/4/3: multiplicity 4789 of weight (0, 0, 0, 0, 0) exceeds "
        "potential-support bound 4788",)
    with pytest.raises(ValidationFailure):
        ensure_valid(table)


def test_intervals_whose_alternating_range_misses_chi_are_refused():
    # H^3 at most C^2: H^2 - H^3 >= -2 at the zero weight, chi_G has -3.
    table = _builtin_edited(_set_bounds("A/5/4/3", {}, {A5_ZERO: 2}))
    assert validate_table(table).failures == (
        "A/5/4: the recorded modules alternate to multiplicity between -2 "
        "and 4680 at highest weight (0, 0, 0, 0, 0), chi_G has -3",)
    with pytest.raises(ValidationFailure):
        ensure_valid(table)


@pytest.mark.parametrize("rank", [5, 6])
def test_builtin_q4_intervals_follow_from_psupp_and_chi(rank):
    # H^2 = C^m2 and H^3 = C^m3 hold the zero weight alone at q = 4, so
    # m2 - m3 = chi_G(0) and each m_p lies in [0, psupp_p(0)].
    rs = build_root_system("A", rank)
    zero = (0,) * rank
    ps = psupp(rs, "b^4")
    chi = bwb.alternating_module(ps).get(zero)
    c2, c3 = (ps.multiset(p).get(zero) for p in (2, 3))
    lo2, hi2 = max(0, chi), min(c2, c3 + chi)
    table = builtin_tables()
    got = {e.p: (e.lo.get(zero), e.hi.get(zero)) for e in table.entries()
           if (e.family, e.rank, e.q) == ("A", rank, 4)
           and zero in e.hi.support()}
    assert got == {2: (lo2, hi2), 3: (lo2 - chi, hi2 - chi)}
    assert (chi, c2, c3) == {5: (-3, 4680, 4788), 6: (-3, 9360, 9222)}[rank]


def test_only_an_old_placeholder_costs_a_potential_support(monkeypatch):
    calls = []
    monkeypatch.setattr(ledger, "psupp", lambda *args: calls.append(args))
    text = save_table(builtin_tables())
    load_table(text)
    verdict("A", 5, 4, load_table(text))
    verdict("A", 5, 4)
    assert calls == []


OLD_TABLE = os.path.join(os.path.dirname(__file__), "golden",
                         "ledger_v1_builtin.json")


def test_old_table_format_loads_and_keeps_every_verdict():
    # save_table(builtin_tables()) as written before intervals: its
    # placeholders load as [0, psupp count], which validates, and the
    # frontier, gaps included, is unchanged.
    with open(OLD_TABLE, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert json.loads(text)["version"] == "bott-null-ledger/1"
    old = load_table(text)
    ensure_valid(old)
    assert old.coverage() == builtin_tables().coverage()
    entry = old.entry("A", 6, 4, 3)
    assert (entry.lo, entry.hi) == ({}, {(0,) * 6: 9222})
    with open(FRONTIER, "r", encoding="utf-8") as fh:
        assert frontier_tsv(old) == fh.read()


def test_e_page_corner_cell():
    page = e_page("A", 2, 2)
    corner = page.cell(0, 0)
    assert corner is not None
    rs = build_root_system("A", 2)
    assert ledger.cell_module(rs, corner).dimension(rs) == 64  # (dim g)^2
    assert corner.copies == 1 and corner.tensor_power == 2


def test_e_page_cell_contents():
    rs = build_root_system("A", 2)
    page = e_page("A", 2, 2)
    cell = page.cell(-2, 1)
    assert cell is not None
    # q=2, p=1: C(2,2) copies of g^0 (x) H^1(b (x) b) = C
    assert cell.copies == math.comb(2, 2)
    assert ledger.cell_module(rs, cell) == {(0, 0): 1}
    cell = page.cell(-1, 1)
    assert cell is None  # H^1(b) = 0
    # q=1 contributes nothing anywhere
    assert all(page.cell(-1, b) is None for b in range(0, 4))


# (family, rank) -> the largest r of the benchmark's verdict range.
VERDICT_RANGE = {("A", 1): 6, ("A", 2): 6, ("A", 3): 3, ("A", 4): 3,
                 ("A", 5): 4, ("A", 6): 4, ("A", 7): 3, ("B", 2): 2}


@pytest.mark.parametrize("family,rank", sorted(VERDICT_RANGE))
def test_e_page_cells_match_convolved_characters(family, rank):
    # Brauer-Klimyk cells against full characters convolved and decomposed.
    rs = build_root_system(family, rank)
    compared = 0
    for r in range(1, VERDICT_RANGE[family, rank] + 1):
        try:
            page = e_page(family, rank, r)
        except LedgerGap:
            continue
        for cell in page.cells.values():
            want = oracles.convolved_cell(rs, cell.lo, cell.copies,
                                          cell.tensor_power)
            assert ledger.cell_module(rs, cell) == want, (r, cell.a, cell.b)
            compared += 1
    assert compared


def test_e_page_interval_cells():
    rs = build_root_system("A", 5)
    zero = (0,) * 5
    page = e_page("A", 5, 4)
    # Possibly nonzero, and certainly holds nothing.
    cell = page.cell(-4, 2)
    assert cell is not None and (cell.lo, cell.hi) == ({}, {zero: 4680})
    assert cell.possibly_nonzero
    assert ledger.cell_module(rs, cell) == {}
    # Certainly nonzero: it holds at least C^3.
    cell = page.cell(-4, 3)
    assert (cell.lo, cell.hi) == ({zero: 3}, {zero: 4683})
    assert ledger.cell_module(rs, cell) == {zero: 3}
    cell = page.cell(-4, 5)
    assert cell.lo == cell.hi
    assert ledger.cell_module(rs, cell) == {(0, 0, 2, 0, 0): 1}
    # Two copies: the q = 2 cell is exact, g (x) g at (-1, 1) is absent.
    page = e_page("A", 5, 2)
    assert page.cell(-2, 1).lo == page.cell(-2, 1).hi == {zero: 1}


def test_e_page_requires_ledger():
    with pytest.raises(LedgerGap):
        e_page("A", 2, 4)
    with pytest.raises(LedgerGap):
        e_page("B", 2, 3)


def test_e_page_refuses_unsupported_rank():
    with pytest.raises(UnsupportedFamilyRank):
        e_page("A", 9, 2)


def _spy(monkeypatch, name):
    """Record the arguments of every call of ``ledger.<name>``."""
    calls = []
    real = getattr(ledger, name)

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(ledger, name, spy)
    return calls


def test_verdict_decomposes_only_its_witnesses(monkeypatch):
    weights_calls = _spy(monkeypatch, "weights")
    cell_calls = _spy(monkeypatch, "cell_module")
    # A6 r=4 scans the page and finds no witness: no expression is evaluated.
    assert verdict("A", 6, 4).witnesses == ()
    assert weights_calls == [] and cell_calls == []
    v = verdict("A", 5, 4)
    assert [(cell.a, cell.b) for _, cell in cell_calls] == [(-4, 5)]
    assert [(w.a, w.b) for w in v.witnesses] == [(-4, 5)]


def test_default_table_is_built_once_and_never_shared(monkeypatch):
    builds = _spy(monkeypatch, "builtin_tables")
    ledger._builtin.cache_clear()
    for _ in range(3):
        assert verdict("A", 3, 3).normal == ledger.NORMAL_NO
        assert e_page("A", 5, 4).cell(-4, 5) is not None
    assert len(builds) == 1
    # A table from builtin_tables() is the caller's own: its edits (a claimed
    # H^2(b^2) on A2, a coverage mark for A3 q=4) reach no default call.
    mine = builtin_tables()
    mine.add("A", 2, 2, 2, repthy.FormalGModule({(0, 0): 1}))
    mine.mark_complete("A", 3, 4)
    assert verdict("A", 2, 3, mine).path == "page-scan"
    assert verdict("A", 2, 3).path == "vanishing-criterion"
    with pytest.raises(LedgerGap):
        e_page("A", 3, 4)
    assert len(builds) == 1


def test_block_past_the_cost_cap_is_a_named_failure():
    table = builtin_tables()
    table.mark_complete("A", 1, 3000000)
    report = validate_table(table)
    assert report.failures == (
        "A/1/3000000: expression dimension has more than 4300 decimal "
        "digits",)
    with pytest.raises(ValidationFailure, match="^A/1/3000000: "):
        ensure_valid(table)


NEGATIVE_TABLE = os.path.join(os.path.dirname(__file__), "golden",
                              "ledger_a2_negative_degree.json")


def _negative_degree_table() -> CohomologyTable:
    """A2 with q = 1 complete and q = 2 complete, H^0 = C and H^1 = C^2."""
    table = CohomologyTable()
    table.mark_complete("A", 2, 1)
    table.add("A", 2, 2, 0, repthy.FormalGModule({(0, 0): 1}),
              provenance="inconsistent: H^0 = C, for a negative-degree check")
    table.add("A", 2, 2, 1, repthy.FormalGModule({(0, 0): 2}),
              provenance="inconsistent: H^1 = C^2, for a negative-degree check")
    table.mark_complete("A", 2, 2)
    return table


def test_certain_survivor_below_total_degree_zero_fails_the_verdict():
    # Each entry lies within psupp(b^2), whose zero weight has multiplicity
    # 4 and 8 in degrees 0 and 1, and 1 - 2 = chi_G(0) = -1: the table passes
    # validation.  Yet the cell (-2,0) certainly survives, in total degree
    # -2, where the abutment has no cohomology.
    table = _negative_degree_table()
    with open(NEGATIVE_TABLE, encoding="utf-8") as fh:
        assert fh.read() == save_table(table)  # the CLI's and CI's input
    assert validate_table(table).passed
    ps = psupp(build_root_system("A", 2), "b^2")
    assert [ps.multiset(p).get((0, 0)) for p in (0, 1)] == [4, 8]
    assert bwb.alternating_module(ps).get((0, 0)) == -1
    page = e_page("A", 2, 2, table)
    assert [(w.a, w.b) for w in certain_survivors(page)] == [(-2, 0)]
    with pytest.raises(CheckFailed, match=r"^cell \(-2,0\) certainly survives "
                       r"in total degree -2 < 0: the table is inconsistent$"):
        verdict("A", 2, 2, table)


def test_certain_survivors_examples():
    assert certain_survivors(e_page("A", 2, 2)) == ()
    wits = certain_survivors(e_page("A", 3, 3))
    assert [(w.a, w.b) for w in wits] == [(-3, 3)]
    assert wits[0].module == {(0, 2, 0): 1}
    wits = certain_survivors(e_page("A", 5, 4))
    assert [(w.a, w.b) for w in wits] == [(-4, 5)]
    wits = certain_survivors(e_page("B", 2, 2))
    assert [(w.a, w.b) for w in wits] == [(-2, 2)]


def test_negative_control_blocked_cell():
    page = e_page("A", 2, 2)
    cell = page.cell(-2, 1)
    assert cell is not None and cell.possibly_nonzero
    # The s=2 lane target (0, 0) is nonzero, so (-2,1) is not isolated.
    assert page.possibly_nonzero(0, 0)
    assert certain_survivors(page) == ()


@st.composite
def _random_a1_table(draw):
    """r <= 7 copies and an A1 table that covers q = 1..r: each (q, p) with
    p <= 6 is absent, an empty module, L(k)^m exactly, or an interval whose
    lo is 0 and whose hi is L(k)^m, or whose lo is L(k)^m and whose hi
    holds L(k) more often, and perhaps a second weight."""
    r = draw(st.integers(1, 7))
    top = draw(st.integers(0, 6))
    table = CohomologyTable()
    for q in range(1, r + 1):
        for p in range(top + 1):
            kind = draw(st.sampled_from(("absent", "empty", "exact", "upper",
                                         "interval")))
            weight, mult = (draw(st.integers(0, 3)),), draw(st.integers(1, 2))
            module = repthy.FormalGModule({weight: mult})
            if kind == "empty":
                table.add("A", 1, q, p, repthy.FormalGModule({}))
            elif kind == "exact":
                table.add("A", 1, q, p, module)
            elif kind == "upper":
                table.add("A", 1, q, p, repthy.FormalGModule({}), module)
            elif kind == "interval":
                hi = {weight: mult + draw(st.integers(1, 2))}
                if draw(st.booleans()):
                    hi[(draw(st.integers(0, 3)),)] = 1
                table.add("A", 1, q, p, module, repthy.FormalGModule(hi))
        table.mark_complete("A", 1, q)
    return r, table


@settings(max_examples=200, deadline=None, database=None)
@given(_random_a1_table())
def test_certain_survivors_match_the_total_degree_oracle(case):
    r, table = case
    page = e_page("A", 1, r, table)
    want = oracles.survivors_by_total_degree(page)
    assert [(w.a, w.b) for w in certain_survivors(page)] == want
    # A certain survivor below total degree 0 makes the page scan refuse the
    # table; the vanishing criterion reads no page.
    negative = any(a + b < 0 for a, b in want)
    try:
        v = verdict("A", 1, r, table)
    except CheckFailed:
        assert negative
        return
    if v.path == "page-scan":
        assert not negative
        assert [(w.a, w.b) for w in v.witnesses] == want
        assert v.normal == (ledger.NORMAL_NO if any(a + b == 0 for a, b in want)
                            else ledger.NORMAL_UNKNOWN)
        assert v.rational == (ledger.RATIONAL_NO
                              if any(a + b >= 1 for a, b in want)
                              else ledger.RATIONAL_UNKNOWN)


def test_verdicts():
    for r in range(1, 7):
        v = verdict("A", 2, r)
        assert v.normal == ledger.NORMAL_YES
        assert v.rational == ledger.RATIONAL_YES
        assert v.path == "vanishing-criterion"
        assert v.witnesses == ()
    v = verdict("A", 1, 2)
    assert (v.normal, v.rational) == (ledger.NORMAL_YES, ledger.RATIONAL_YES)
    v = verdict("A", 3, 3)
    assert v.normal == ledger.NORMAL_NO
    assert v.rational == ledger.RATIONAL_UNKNOWN
    assert v.path == "page-scan"
    assert [(w.a, w.b) for w in v.witnesses] == [(-3, 3)]
    v = verdict("A", 5, 4)
    assert v.normal == ledger.NORMAL_UNKNOWN
    assert v.rational == ledger.RATIONAL_NO
    rs = build_root_system("A", 5)
    assert v.witnesses[0].module.dimension(rs) == 175
    v = verdict("B", 2, 2)
    assert v.normal == ledger.NORMAL_NO
    assert v.witnesses[0].module == {(0, 1): 1}


def test_verdict_requires_positive_copies():
    with pytest.raises(ValueError):
        verdict("A", 2, 0)


def test_verdict_unknown_on_gap():
    # A2 satisfies the vanishing criterion for every r, so no page data
    # is ever needed; A3 r=4 falls back to the page scan and hits the
    # missing q=4 stratum.
    v = verdict("A", 2, 9)
    assert v.path == "vanishing-criterion"
    with pytest.raises(LedgerGap):
        verdict("A", 3, 4)


def test_placeholder_perturbation_does_not_change_verdict():
    # Materializing the A5 q=4 intervals as C^k and C^(k+3), points within
    # them, must not change the verdict: they are bystanders, not witnesses.
    base = builtin_tables()
    for k in (1, 2, 5):
        table = CohomologyTable()
        for e in base.entries():
            if e.lo != e.hi and (e.family, e.rank) == ("A", 5):
                table.add(e.family, e.rank, e.q, e.p,
                          repthy.FormalGModule({(0,) * 5: k + 3 * (e.p == 3)}),
                          provenance=e.provenance)
            else:
                table.add(e.family, e.rank, e.q, e.p, e.lo, e.hi,
                          provenance=e.provenance)
        for family, rank, q in base.coverage():
            table.mark_complete(family, rank, q)
        v = verdict("A", 5, 4, table)
        assert v.rational == ledger.RATIONAL_NO
        assert [(w.a, w.b) for w in v.witnesses] == [(-4, 5)]


def test_table_format_version():
    import json
    doc = json.loads(save_table(builtin_tables()))
    assert doc["version"] == ledger.TABLE_FORMAT


# ------------------------------------------------------------ verdict frontier

FRONTIER = os.path.join(os.path.dirname(__file__), "golden",
                        "verdict_frontier.tsv")
FRONTIER_SYSTEMS = [("A", rank) for rank in range(1, 8)] + [("B", 2)]


def frontier_tsv(table=None) -> str:
    """``ledger.verdict`` on ``table`` (by default the built-in one) for
    every supported system and r = 1..6, one row each: the path, normal,
    rational and the witness cells with their module dimensions, or the
    first tensor power q without coverage as ``gap q``."""
    rows = ["system\tr\tpath\tnormal\trational\twitnesses"]
    for family, rank in FRONTIER_SYSTEMS:
        rs = build_root_system(family, rank)
        for r in range(1, 7):
            try:
                v = verdict(family, rank, r, table)
            except LedgerGap as gap:
                rows.append(f"{family}{rank}\t{r}\tgap {gap.q}\t-\t-\t-")
                continue
            wits = ", ".join(f"({w.a},{w.b}) dim {w.module.dimension(rs)}"
                             for w in v.witnesses) or "-"
            rows.append(f"{family}{rank}\t{r}\t{v.path}\t{v.normal}\t"
                        f"{v.rational}\t{wits}")
    return "\n".join(rows) + "\n"


def test_verdict_frontier_matches_golden():
    with open(FRONTIER, "r", encoding="utf-8") as fh:
        want = fh.read()
    text = frontier_tsv()
    assert text == want
    # 12 criterion rows (A1, A2), 3 decided scans (A3 r=3, A5 r=4, B2 r=2),
    # 16 undecided scans and 17 gaps.
    rows = [row.split("\t")[2:5] for row in text.splitlines()[1:]]
    scans = [(normal, rational) for path, normal, rational in rows
             if path == "page-scan"]
    undecided = scans.count((ledger.NORMAL_UNKNOWN, ledger.RATIONAL_UNKNOWN))
    assert len(rows) == 48
    assert sum(path == "vanishing-criterion" for path, _, _ in rows) == 12
    assert (len(scans) - undecided, undecided) == (3, 16)
    assert sum(path.startswith("gap ") for path, _, _ in rows) == 17


def _builtin_pages():
    """Every page that ``e_page`` builds from the built-in table for the
    frontier's systems and r = 1..6, a gap skipped."""
    for family, rank in FRONTIER_SYSTEMS:
        for r in range(1, 7):
            try:
                page = e_page(family, rank, r)
            except LedgerGap:
                continue
            yield f"{family}{rank}", r, page


def test_certain_survivors_match_the_total_degree_oracle_on_builtin_pages():
    # The vanishing criterion decides A1 and A2 without a page; their pages
    # are checked here all the same.
    survivors, pages = {}, 0
    for system, r, page in _builtin_pages():
        want = oracles.survivors_by_total_degree(page)
        assert [(w.a, w.b) for w in certain_survivors(page)] == want, (system, r)
        pages += 1
        if want:
            survivors[system, r] = want
    assert pages == 23
    assert survivors == {("A3", 3): [(-3, 3)], ("A5", 4): [(-4, 5)],
                         ("B2", 2): [(-2, 2)]}


if __name__ == "__main__":
    # Record a deliberate change of the frontier.
    with open(FRONTIER, "w", encoding="utf-8") as fh:
        fh.write(frontier_tsv())
    print(FRONTIER)
