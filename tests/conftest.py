import os
import sys

import pytest

from bottnull.rootsys import A_RANKS, B_RANKS, RootSystem, build_root_system

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def cold_memos(monkeypatch):
    """Give every cached root system an empty ``expr_memo`` for one test, so
    ``psupp`` and ``decompose`` compute their answers there instead of
    reading an earlier test's; the old memos come back afterwards."""
    for family, ranks in (("A", A_RANKS), ("B", B_RANKS)):
        for rank in ranks:
            monkeypatch.setitem(vars(build_root_system(family, rank)),
                                "expr_memo", {})


def rebuilt(rs: RootSystem) -> RootSystem:
    """A root system equal to ``rs``, made afresh from its fields, so its
    memo (``expr_memo``) starts empty."""
    return RootSystem(*(getattr(rs, f) for f in RootSystem._fields))
