"""Weyl-group words, actions, chamber walks, and enumeration.

Words are tuples of 1-based simple-reflection indices, composed with the
rightmost letter applied first: ``act((1, 2), v) = s_1(s_2(v))``.  The
canonical word for an element is the one produced by the smallest-index
chamber walk on its rho-image.  Orbits, signed orbits and length counts
come from one layered breadth-first search and build no words.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from . import _kernels
from ._kernels._pykernels import chamber_walk
from ._record import Record
from .errors import InputError, NotDominant
from .rootsys import RootSystem, Weight


def simple_reflection(rs: RootSystem, i: int, weight: Sequence[int]) -> Weight:
    """Apply s_i (1-based) in fundamental coordinates: v - v[i] * alpha_i."""
    col = rs.simple_fund_columns[i - 1]
    c = weight[i - 1]
    return tuple(v - c * a for v, a in zip(weight, col))


def act(rs: RootSystem, word: Sequence[int], weight: Sequence[int]) -> Weight:
    """Linear action of the word on a weight (rightmost letter first)."""
    v = tuple(weight)
    for i in reversed(word):
        v = simple_reflection(rs, i, v)
    return v


def dot(rs: RootSystem, word: Sequence[int], weight: Sequence[int]) -> Weight:
    """Dot action: w . v = w(v + rho) - rho."""
    shifted = tuple(c + 1 for c in weight)
    moved = act(rs, word, shifted)
    return tuple(c - 1 for c in moved)


class DominanceResult(Record):
    """Outcome of dominantizing ``weight + rho``.

    Singular: the shifted weight lies on a wall.  Regular: ``dominant ==
    dot(word, weight)`` with ``length == len(word)`` minimal.
    """

    singular: bool
    length: int | None = None
    word: tuple[int, ...] | None = None
    dominant: Weight | None = None

    @property
    def regular(self) -> bool:
        return not self.singular


def to_dominant(rs: RootSystem, weight: Sequence[int]) -> DominanceResult:
    """Chamber walk on ``weight + rho``, flipping the smallest negative index.

    A coordinate -1 puts ``weight + rho`` on a wall already: singular, no walk.
    """
    if -1 in weight:
        return DominanceResult(singular=True)
    mu = [c + 1 for c in weight]
    letters = chamber_walk(mu, rs.simple_root_support)
    if 0 in mu:
        return DominanceResult(singular=True)
    dominant = tuple(c - 1 for c in mu)
    return DominanceResult(singular=False, length=len(letters),
                           word=tuple(reversed(letters)), dominant=dominant)


def reduce_word(rs: RootSystem, word: Sequence[int]) -> tuple[int, ...]:
    """Canonical reduced word of the element: chamber walk on its rho-image."""
    for i in word:
        if not 1 <= i <= rs.rank:
            raise InputError(f"letter {i} out of range 1..{rs.rank}")
    image = act(rs, word, rs.rho)
    return _canonical_word_from_image(rs, image)


def _canonical_word_from_image(rs: RootSystem, image: Weight) -> tuple[int, ...]:
    # If u(image) = rho with u = s_{c_k}...s_{c_1}, then the element sending
    # rho to image is u^{-1} = word (c_1, ..., c_k) in rightmost-first order.
    mu = list(image)
    letters = chamber_walk(mu, rs.simple_root_support)
    assert tuple(mu) == rs.rho
    return tuple(letters)


def length(rs: RootSystem, word: Sequence[int]) -> int:
    return len(reduce_word(rs, word))


def inversion_set(rs: RootSystem, word: Sequence[int]) -> frozenset[Weight]:
    """Positive roots inverted by the element, as fundamental coordinates.

    For a reduced word (i_1, ..., i_k): {alpha_{i_1}, s_{i_1} alpha_{i_2},
    s_{i_1} s_{i_2} alpha_{i_3}, ...}; input words are reduced first.
    """
    red = reduce_word(rs, word)
    out = []
    for t, i in enumerate(red):
        gamma = act(rs, red[:t], rs.simple_fund_columns[i - 1])
        out.append(gamma)
    return frozenset(out)


def _orbit_layers(rs: RootSystem, top: Weight) -> Iterator[list[Weight]]:
    """Layers of the linear Weyl orbit of a dominant weight, by depth.

    Breadth-first from ``top``, reflecting only where a coordinate is
    positive, i.e. only downwards: every orbit element is reached, because
    the chamber walk from it back to ``top`` only goes upwards.  Each
    downward step lengthens the (minimal) element by one, so all paths to
    an image have the same length and every image lies in exactly one layer:
    its depth is the length of the minimal element sending ``top`` to it.
    """
    support = rs.simple_root_support
    layer = [top]
    while layer:
        yield layer
        nxt: dict[Weight, None] = {}
        for mu in layer:
            for i, col in enumerate(support):
                c = mu[i]
                if c > 0:
                    img = list(mu)
                    for j, a in col:
                        img[j] -= c * a
                    nxt[tuple(img)] = None
        layer = list(nxt)


def orbit(rs: RootSystem, dominant: Weight) -> set[Weight]:
    """Linear Weyl orbit of a dominant weight (set view of the layered BFS)."""
    return {mu for layer in _orbit_layers(rs, dominant) for mu in layer}


def signed_orbit(rs: RootSystem, top: Weight) -> Iterator[tuple[Weight, int]]:
    """Each image w(top) of a regular dominant weight with sign (-1)^l(w).

    No words are built: for regular ``top`` the elements and the images
    correspond one to one, and the BFS depth of an image is its length.
    """
    if any(c <= 0 for c in top):
        raise NotDominant(f"{top} is not regular dominant")
    sign = 1
    for layer in _orbit_layers(rs, tuple(top)):
        for mu in layer:
            yield mu, sign
        sign = -sign


@lru_cache(maxsize=None)
def enumerate_elements(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """All Weyl-group elements as canonical words, sorted by (length, word)."""
    words = [_canonical_word_from_image(rs, img) for img in orbit(rs, rs.rho)]
    return tuple(sorted(words, key=lambda w: (len(w), w)))


def poincare_counts(rs: RootSystem) -> dict[int, int]:
    """Number of elements of each length: the layer sizes of the orbit of rho."""
    return {k: len(layer) for k, layer in enumerate(_orbit_layers(rs, rs.rho))}


def order(rs: RootSystem) -> int:
    return sum(poincare_counts(rs).values())


def dot_dominantize_batch(
    rs: RootSystem, weights: Iterable[Weight]
) -> list[tuple[int, Weight] | None]:
    """Batch form of to_dominant without words: None (singular) or (length,
    dominant), one entry per input weight (a tuple), in input order.

    Results are memoized in ``rs.dot_walk_memo``, which lives as long as
    ``rs`` (one per family and rank per process: ``build_root_system`` is
    cached) and holds one entry per distinct weight ever walked on it
    (about 180 bytes each), with no size cap.  Only the distinct weights
    missing from the memo are walked, in one ``_kernels.dot_walk_batch``
    call.
    """
    memo = rs.dot_walk_memo
    weights = list(weights)
    misses = [w for w in weights if w not in memo]
    if misses:
        misses = list(dict.fromkeys(misses))
        memo.update(zip(misses, _kernels.dot_walk_batch(misses, rs.cartan)))
    return [memo[w] for w in weights]


def linear_dominant(rs: RootSystem, weight: Sequence[int]) -> Weight:
    """Dominant representative of the linear (unshifted) Weyl orbit."""
    mu = list(weight)
    chamber_walk(mu, rs.simple_root_support)
    return tuple(mu)
