"""Value semantics of the package's immutable value types (``_record.Record``).

The reprs below were printed by the frozen-data-class versions of these
classes, so they pin the text form byte for byte.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from conftest import rebuilt
from bottnull import bundles, bwb, ledger, nullcone, rootsys, weyl
from bottnull._record import FrozenInstanceError, Record
from bottnull.bundles import Atom, Line, Sum, Sym, Tensor, Wedge
from bottnull.errors import NotTraceFree
from bottnull.repthy import FormalGModule

A1 = rootsys.build_root_system("A", 1)

# Every value type, with keyword arguments in field order.
SAMPLES = [
    (bundles.Atom, dict(kind="g")),
    (bundles.Line, dict(coords=(1, -2))),
    (bundles.Tensor, dict(factors=(Atom("b"), Atom("g")))),
    (bundles.Sum, dict(terms=(Atom("b"), Atom("g")))),
    (bundles.Power, dict(base=Atom("b"), exponent=2)),
    (bundles.Wedge, dict(degree=2, inner=Atom("g"))),
    (bundles.Sym, dict(degree=2, inner=Atom("g"))),
    (ledger.TableEntry, dict(family="A", rank=1, q=1, p=1,
                             lo=FormalGModule({}), hi=FormalGModule({(0,): 1}),
                             provenance="x")),
    (ledger.ValidationReport, dict(passed=False, checked=2, failures=("a",))),
    (ledger.PageCell, dict(a=-1, b=1, copies=2, tensor_power=0,
                           lo=FormalGModule({}), hi=FormalGModule({(0,): 1}))),
    (ledger.EPage, dict(family="A", rank=1, r=1, cells={})),
    (ledger.Witness, dict(a=-1, b=1, module=FormalGModule({(2,): 3}),
                          reason="r")),
    (ledger.Verdict, dict(family="A", rank=2, r=1, normal="yes",
                          rational="yes", path="vanishing-criterion",
                          witnesses=())),
    (rootsys.Root, dict(root_coords=(1, 1), fund_coords=(1, 1))),
    (rootsys.RootSystem, dict(family="A", rank=1, cartan=A1.cartan,
                              positive_roots=A1.positive_roots,
                              symmetrizer=A1.symmetrizer)),
    (bwb.LineCohomology, dict(vanishes=False, degree=0, weight=(1, 1))),
    (bwb.DistinctRootsReport, dict(subsets_checked=8,
                                   violations=(((1, 1),),))),
    (nullcone.MatrixTuple, dict(n=2, matrices=(((Q(0), Q(1)), (Q(0), Q(0))),))),
    (nullcone.Flag, dict(basis=((1, 0), (0, 1)))),
    (weyl.DominanceResult, dict(singular=False, length=1, word=(1,),
                                dominant=(0, 1))),
]

REPRS = {
    'Atom': "Atom(kind='g')",
    'Line': 'Line(coords=(1, -2))',
    'Tensor': "Tensor(factors=(Atom(kind='b'), Atom(kind='g')))",
    'Sum': "Sum(terms=(Atom(kind='b'), Atom(kind='g')))",
    'Power': "Power(base=Atom(kind='b'), exponent=2)",
    'Wedge': "Wedge(degree=2, inner=Atom(kind='g'))",
    'Sym': "Sym(degree=2, inner=Atom(kind='g'))",
    'TableEntry': "TableEntry(family='A', rank=1, q=1, p=1, lo=FormalGModule({}), hi=FormalGModule({(0,): 1}), provenance='x')",
    'ValidationReport': "ValidationReport(passed=False, checked=2, failures=('a',))",
    'PageCell': 'PageCell(a=-1, b=1, copies=2, tensor_power=0, lo=FormalGModule({}), hi=FormalGModule({(0,): 1}))',
    'EPage': "EPage(family='A', rank=1, r=1, cells={})",
    'Witness': "Witness(a=-1, b=1, module=FormalGModule({(2,): 3}), reason='r')",
    'Verdict': "Verdict(family='A', rank=2, r=1, normal='yes', rational='yes', path='vanishing-criterion', witnesses=())",
    'Root': 'Root(root_coords=(1, 1), fund_coords=(1, 1))',
    'RootSystem': "RootSystem(family='A', rank=1, cartan=((2,),), positive_roots=(Root(root_coords=(1,), fund_coords=(2,)),), symmetrizer=(1,))",
    'LineCohomology': 'LineCohomology(vanishes=False, degree=0, weight=(1, 1))',
    'DistinctRootsReport': 'DistinctRootsReport(subsets_checked=8, violations=(((1, 1),),))',
    'MatrixTuple': 'MatrixTuple(n=2, matrices=(((Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(0, 1))),))',
    'Flag': 'Flag(basis=((1, 0), (0, 1)))',
    'DominanceResult': 'DominanceResult(singular=False, length=1, word=(1,), dominant=(0, 1))',
}

IDS = [cls.__name__ for cls, _ in SAMPLES]
HOLD_A_MODULE = {"TableEntry", "PageCell", "Witness"}


def test_every_value_type_is_sampled():
    assert sorted(IDS) == sorted(REPRS) and len(IDS) == 20
    assert all(issubclass(cls, Record) for cls, _ in SAMPLES)


@pytest.mark.parametrize("cls,kwargs", SAMPLES, ids=IDS)
def test_construction_repr_and_fields(cls, kwargs):
    by_keyword = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert repr(by_keyword) == repr(by_position) == REPRS[cls.__name__]
    assert cls._fields == cls.__match_args__ == tuple(kwargs)
    for name, value in kwargs.items():
        assert getattr(by_keyword, name) is value
    # Half by position, half by keyword.
    k = len(kwargs) // 2
    names = list(kwargs)
    mixed = cls(*[kwargs[n] for n in names[:k]],
                **{n: kwargs[n] for n in names[k:]})
    assert repr(mixed) == REPRS[cls.__name__]


@pytest.mark.parametrize("cls,kwargs", SAMPLES, ids=IDS)
def test_equality_and_hash(cls, kwargs):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and not a != b and a is not b
    if cls.__name__ in HOLD_A_MODULE:  # a FormalGModule is unhashable
        with pytest.raises(TypeError, match="unhashable type: 'FormalGModule'"):
            hash(a)
    else:
        assert hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != tuple(kwargs.values()) and a != object()
    assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls,kwargs", SAMPLES, ids=IDS)
def test_frozen(cls, kwargs):
    obj = cls(**kwargs)
    field = cls._fields[0]
    with pytest.raises(FrozenInstanceError, match="cannot assign to field"):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    with pytest.raises(FrozenInstanceError, match="cannot delete field"):
        delattr(obj, field)
    assert getattr(obj, field) is kwargs[field]
    assert issubclass(FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("cls,kwargs", SAMPLES, ids=IDS)
def test_pickle_round_trip(cls, kwargs):
    obj = cls(**kwargs)
    assert repr(pickle.loads(pickle.dumps(obj))) == repr(obj)


def test_equality_only_within_one_class():
    g = Atom("g")
    assert Wedge(2, g) != Sym(2, g) and Sym(2, g) != Wedge(2, g)
    assert Tensor((g,)) != Sum((g,)) and Sum((g,)) != Tensor((g,))
    assert Wedge(2, g) == Wedge(2, Atom("g")) != Wedge(3, g)
    assert Atom("g") != "g" and Line((1,)) != (1,)
    assert len({Wedge(2, g), Sym(2, g), Tensor((g,)), Sum((g,))}) == 4
    assert bundles.parse("wedge^2(g)") != bundles.parse("sym^2(g)")
    assert bundles.parse("b*g") == Tensor((Atom("b"), g)) != Sum((Atom("b"), g))


def test_epage_equality_ignores_cells():
    empty = FormalGModule()
    cell = ledger.PageCell(a=-1, b=1, copies=1, tensor_power=0, lo=empty,
                           hi=empty)
    full = ledger.EPage("A", 1, 1, {(-1, 1): cell})
    empty = ledger.EPage("A", 1, 1, {})
    assert full == empty and hash(full) == hash(empty)
    assert full != ledger.EPage("A", 1, 2, {(-1, 1): cell})
    assert "cells={(-1, 1): PageCell(a=-1" in repr(full)


def test_defaults_apply():
    assert bwb.LineCohomology(vanishes=True) == bwb.LineCohomology(True, None, None)
    assert repr(bwb.LineCohomology(True)) == (
        "LineCohomology(vanishes=True, degree=None, weight=None)")
    res = weyl.DominanceResult(singular=True)
    assert (res.length, res.word, res.dominant) == (None, None, None)
    assert weyl.DominanceResult(False, 2) == weyl.DominanceResult(
        singular=False, length=2, word=None, dominant=None)


@pytest.mark.parametrize("call,message", [
    (lambda: Atom(), "missing required argument 'kind'"),
    (lambda: bundles.Power(Atom("b")), "missing required argument 'exponent'"),
    (lambda: bwb.LineCohomology(degree=1), "missing required argument 'vanishes'"),
    (lambda: Atom("g", "h"), "takes 1 positional arguments but 2 were given"),
    (lambda: Atom(kind="g", colour=1), "unexpected keyword argument 'colour'"),
    (lambda: bundles.Power(base=Atom("b"), colour=1),
     "unexpected keyword argument 'colour'"),
    (lambda: Atom("g", kind="h"), "multiple values for argument 'kind'"),
    (lambda: weyl.DominanceResult(True, singular=False),
     "multiple values for argument 'singular'"),
])
def test_bad_calls_raise_type_error(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def test_matrix_tuple_validation_still_runs():
    zero = ((Q(0), Q(0)), (Q(0), Q(0)))
    with pytest.raises(ValueError, match="at least 1"):
        nullcone.MatrixTuple(0, (zero,))
    with pytest.raises(ValueError, match="at least one matrix"):
        nullcone.MatrixTuple(n=2, matrices=())
    with pytest.raises(ValueError, match="must be 2x2"):
        nullcone.MatrixTuple(2, (((Q(0),),),))
    with pytest.raises(NotTraceFree):
        nullcone.MatrixTuple(matrices=(((Q(1), Q(0)), (Q(0), Q(0))),), n=2)
    assert nullcone.MatrixTuple(2, (zero,)).r == 1


def test_root_system_keeps_a_dict_for_its_memos():
    a2 = rootsys.build_root_system("A", 2)
    copy = rebuilt(a2)
    assert copy == a2 and hash(copy) == hash(a2) and copy is not a2
    assert "expr_memo" not in vars(copy)
    memo = copy.expr_memo  # a cached_property writes to the instance dict
    assert vars(copy)["expr_memo"] is memo is copy.expr_memo
    assert memo is not a2.expr_memo
    with pytest.raises(FrozenInstanceError):
        copy.rank = 3


def test_matrix_tuple_memos_leave_its_value_semantics():
    kwargs = dict(SAMPLES)[nullcone.MatrixTuple]
    warm, cold = nullcone.MatrixTuple(**kwargs), nullcone.MatrixTuple(**kwargs)
    assert nullcone.in_nullcone(warm) and nullcone.common_flag(warm)
    assert vars(warm).keys() == {"n", "matrices", "_cleared", "_chain"}
    assert vars(cold).keys() == {"n", "matrices"}
    assert repr(warm) == REPRS["MatrixTuple"]
    assert warm == cold and hash(warm) == hash(cold)
    assert pickle.dumps(warm) == pickle.dumps(cold)


def test_importing_the_package_loads_no_dataclasses_or_inspect():
    """In a fresh interpreter (``-S``: no site hooks, which may import
    either module themselves), importing every module of the package and
    the CLI loads neither module."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, bottnull, bottnull.cli, bottnull._record; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
            "print(bottnull.__file__)")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    loaded, path = out.splitlines()
    assert loaded == "[]"
    assert os.path.samefile(os.path.dirname(path), os.path.join(src, "bottnull"))
