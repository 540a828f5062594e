import json
import math

import pytest

import oracles
from bottnull import ledger, repthy
from bottnull.bundles import weights
from bottnull.bwb import psupp
from bottnull.errors import (LedgerGap, UnsupportedFamilyRank,
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


def test_builtin_entry_values():
    table = builtin_tables()
    e = table.entry("A", 2, 2, 1)
    assert e.module == {(0, 0): 1} and not e.unresolved
    e = table.entry("A", 2, 3, 2)
    assert e.module == {(0, 0): 2, (1, 1): 5, (3, 0): 1, (0, 3): 1}
    # The recorded q=3 module for A2 is the single degree-2 display
    # (multiplicities are the established alternating counts).
    assert table.entry("A", 2, 3, 3) is None
    e = table.entry("A", 3, 3, 3)
    assert e.module == {(0, 2, 0): 1}
    e = table.entry("B", 2, 2, 2)
    assert e.module == {(0, 1): 1}
    e = table.entry("A", 5, 4, 5)
    assert e.module == {(0, 0, 2, 0, 0): 1}
    e = table.entry("A", 5, 4, 2)
    assert e.unresolved and e.module is None
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
            total += (-1) ** p * entry.module.dimension(rs)
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
        module = e.module
        if (e.family, e.rank, e.q, e.p) == ("A", 2, 2, 1):
            module = repthy.FormalGModule({(0, 0): 1, (1, 1): 1})
        mutated.add(e.family, e.rank, e.q, e.p, module=module,
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
    table.add("A", 2, 2, 1, module=repthy.FormalGModule({(0, 0): 9}))
    table.mark_complete("A", 2, 2)
    report = validate_table(table)
    assert not report.passed


def test_save_load_round_trip(tmp_path):
    table = builtin_tables()
    text = save_table(table)
    again = load_table(text)
    assert save_table(again) == text
    assert again.coverage() == table.coverage()
    for e in table.entries():
        other = again.entry(e.family, e.rank, e.q, e.p)
        assert other.unresolved == e.unresolved
        if not e.unresolved:
            assert other.module == e.module
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
    doc["entries"].append({"key": "A/2/2/1", "module": "trivial-unresolved"})
    with pytest.raises(ValueError, match="duplicate table key A/2/2/1"):
        load_table(json.dumps(doc))
    doc["entries"][-1]["key"] = "A/2/0/1"
    with pytest.raises(ValueError, match="A/2/0/1 needs q >= 1 and p >= 0"):
        load_table(json.dumps(doc))
    doc["entries"].pop()
    doc["complete"].append("A/2/-1")
    with pytest.raises(ValueError, match="A/2/-1 needs q >= 1"):
        load_table(json.dumps(doc))


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
        chi = repthy.alternating_module(psupp(rs, ws))
        assert chi == repthy.decompose_multiset(rs, ws, check=False)
        # Independently, by words: chi_G and the bundle's weights have the
        # same Weyl numerator sum_w sign(w) e^{w(lambda + rho)}.
        assert (oracles.weyl_numerator(rs, chi.mults)
                == oracles.weyl_numerator(rs, ws.counts)), (family, rank, q)


def test_validation_reports_non_positive_multiplicity():
    # A table built in code can hold a virtual module; validation refuses it.
    table = CohomologyTable()
    table.add("A", 3, 3, 3, module=repthy.FormalGModule({(0, 2, 0): -1}))
    table.mark_complete("A", 3, 3)
    report = validate_table(table)
    assert report.failures == (
        "A/3/3/3: multiplicity -1 of weight (0, 2, 0) is not positive",)
    with pytest.raises(ValidationFailure):
        ensure_valid(table)


def test_unresolved_is_derived_from_the_module():
    table = CohomologyTable()
    module = repthy.FormalGModule({(0, 0): 1})
    with pytest.raises(TypeError):
        table.add("A", 2, 2, 1, module=module, unresolved=True)
    with pytest.raises(TypeError):
        table.add("A", 2, 2, 1)
    table.add("A", 2, 2, 1, module=module)
    table.add("A", 2, 2, 2, module=None)
    table.mark_complete("A", 2, 2)
    resolved, placeholder = table.entries()
    assert not resolved.unresolved and resolved.module == module
    assert placeholder.unresolved and placeholder.module is None
    again = load_table(save_table(table))
    assert [(e.p, e.module, e.unresolved) for e in again.entries()] == \
        [(1, module, False), (2, None, True)]
    page = e_page("A", 5, 4)
    for cell in page.cells.values():
        assert cell.unresolved == (cell.coh is None)


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
            if cell.unresolved:
                continue
            want = oracles.convolved_cell(rs, cell.coh, cell.copies,
                                          cell.tensor_power)
            assert ledger.cell_module(rs, cell) == want, (r, cell.a, cell.b)
            compared += 1
    assert compared


def test_e_page_unresolved_cells():
    page = e_page("A", 5, 4)
    cell = page.cell(-4, 2)
    assert cell is not None and cell.unresolved and cell.coh is None
    assert cell.possibly_nonzero
    cell = page.cell(-4, 5)
    rs = build_root_system("A", 5)
    assert ledger.cell_module(rs, cell) == {(0, 0, 2, 0, 0): 1}


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


def test_block_past_the_cost_cap_is_a_named_failure():
    table = builtin_tables()
    table.mark_complete("A", 1, 3000000)
    report = validate_table(table)
    assert report.failures == (
        "A/1/3000000: expression evaluation exceeds the cost cap of "
        "5000000 weight terms",)
    with pytest.raises(ValidationFailure, match="^A/1/3000000: "):
        ensure_valid(table)


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
    # Materializing the unresolved A5 q=4 placeholders as C^k for various k
    # must not change the verdict: they are bystanders, not witnesses.
    base = builtin_tables()
    for k in (1, 2, 5):
        table = CohomologyTable()
        for e in base.entries():
            if e.unresolved and (e.family, e.rank) == ("A", 5):
                table.add(e.family, e.rank, e.q, e.p,
                          module=repthy.FormalGModule({(0, 0, 0, 0, 0): k}),
                          provenance=e.provenance)
            else:
                table.add(e.family, e.rank, e.q, e.p, module=e.module,
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
