import os
import sys

import pytest

from bottnull import _kernels
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


def flag_one_sum(monkeypatch, target):
    """Make the batch walk report -target as a nontrivial dominant weight;
    returns the list of batch sizes walked, filled as the walk is called.

    ``psupp`` reaches the patched walk only for an expression that no
    earlier test left in the answer memo (see ``cold_memos``)."""
    real = _kernels.dot_walk_batch
    seen = []

    def patched(weights, cartan):
        seen.append(len(weights))
        out = real(weights, cartan)
        bad = tuple(-c for c in target)
        return [(1, (1,) + (0,) * (len(cartan) - 1)) if w == bad else res
                for w, res in zip(weights, out)]

    monkeypatch.setattr(_kernels, "dot_walk_batch", patched)
    return seen


def rebuilt(rs: RootSystem) -> RootSystem:
    """A root system equal to ``rs``, made afresh from its fields, so its
    memo (``expr_memo``) starts empty."""
    return RootSystem(*(getattr(rs, f) for f in RootSystem._fields))
