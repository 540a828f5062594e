"""Pure-Python kernels: the package's only implementation of its hot loops.

Weight sums run on packed keys: ``_packer`` maps each weight to one Python
int with a signed field per coordinate, so adding two packed keys adds the
weights.  ``_convolve_packed`` is the one pair loop: ``bundles.weights``
runs it on keys packed once per evaluation, ``repthy``'s Brauer-Klimyk
steps on keys packed once per ring walk, ``convolve`` on tuple keys.

``chamber_walk`` is the one chamber walk of the package; ``weyl`` builds its
dominantization, canonical words and linear orbit representatives on it.
It reflects along the nonzero entries of each simple root only (the sparse
table ``RootSystem.simple_root_support``, which ``dot_walk_batch`` builds
once per Cartan matrix).  The dot walks
(``dot_walk_batch``, ``weyl.to_dominant``) stop at the first wall; the
linear ones walk through zero coordinates.
"""

from __future__ import annotations

from functools import lru_cache

BACKEND = "pure"


def _packer(rank: int, bound: int):
    """``(pack, unpack)`` for weights of ``rank`` coordinates in
    ``[-bound, bound]``.

    ``pack(w) = sum(w[i] << (rank - 1 - i) * width)`` with ``width =
    bits(bound) + 1``, so ``pack(u) + pack(v) == pack(u + v)`` for any
    integer tuples, and keys within the bound sort like their tuples.
    ``unpack(keys)`` inverts ``pack`` on an iterable of keys of weights
    within the bound and returns their tuples in order.  Python ints have
    no width limit, so any bound works.
    """
    width = bound.bit_length() + 1
    half = 1 << (width - 1)  # > bound: a field plus half lies in [1, 2^width)
    shifts = range((rank - 1) * width, -1, -width)
    offset = sum(half << s for s in shifts)  # half in every field
    mask = (1 << width) - 1

    def pack(w) -> int:
        return sum(c << s for c, s in zip(w, shifts))

    def unpack(keys) -> list[tuple[int, ...]]:
        # One pass per coordinate over all keys, then one zip into tuples.
        keys = [key + offset for key in keys]
        return list(zip(*[[((key >> s) & mask) - half for key in keys]
                          for s in shifts]))

    return pack, unpack


def _convolve_packed(a: dict, b: dict) -> dict:
    """Minkowski convolution on packed keys (see ``_packer``): the larger
    operand outside, each distinct sum in the order the loop first meets it."""
    if len(a) < len(b):
        a, b = b, a
    pb = list(b.items())
    out: dict = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in pb:
            key = ka + kb
            out[key] = get(key, 0) + ca * cb
    return out


def convolve(a: dict, b: dict) -> dict:
    """Minkowski convolution of weight multisets with tuple keys: packed
    for ``max|c| of a + max|c| of b``, unpacked once per distinct sum."""
    if not a or not b:
        return {}
    bound = sum(max((abs(c) for w in m for c in w), default=0) for m in (a, b))
    pack, unpack = _packer(len(next(iter(a))), bound)
    out = _convolve_packed({pack(w): c for w, c in a.items()},
                           {pack(w): c for w, c in b.items()})
    return dict(zip(unpack(out), out.values()))


def chamber_walk(mu: list, support,
                 stop_at_wall: bool = False) -> list[int] | None:
    """Move ``mu`` into the dominant chamber in place by simple reflections.

    Each step reflects in the smallest index with a negative coordinate;
    ``support[i]`` holds the nonzero ``(j, a)`` entries of the fundamental
    coordinates of the simple root alpha_{i+1}, by increasing j.  Returns
    the 1-based letters in the order they were applied.

    With ``stop_at_wall``, returns ``None`` instead as soon as a coordinate
    of ``mu`` is 0, before the first step or when a reflection leaves one,
    and ``mu`` is left part-way: ``mu = w(nu)`` then lies on the
    wall of a simple root alpha_j, so ``nu`` lies on the wall of
    ``w^-1 alpha_j`` and its dominant representative is singular.  Without
    it the walk goes on through zero coordinates to the dominant chamber.
    """
    if stop_at_wall and 0 in mu:
        return None
    rank = len(mu)
    letters = []
    start = 0
    while True:
        for i in range(start, rank):
            c = mu[i]
            if c < 0:
                col = support[i]
                for j, a in col:
                    v = mu[j] - c * a
                    mu[j] = v
                    if not v and stop_at_wall:
                        return None
                letters.append(i + 1)
                # Coordinates below the first one s_i changed were, and
                # stay, non-negative.
                start = col[0][0]
                break
        else:
            return letters


@lru_cache(maxsize=None)
def _simple_root_table(cartan: tuple) -> tuple:
    """The sparse simple-root table of a Cartan matrix, once per matrix:
    column j's nonzero ``(i, cartan[i][j])``, as
    ``RootSystem.simple_root_support``."""
    rank = len(cartan)
    return tuple(tuple((i, cartan[i][j]) for i in range(rank) if cartan[i][j])
                 for j in range(rank))


def dot_walk_batch(weights: list, cartan) -> list:
    """Dominantize ``w + rho`` by simple reflections for each input weight.

    Returns one entry per input: ``None`` when the shifted weight is singular
    (lies on a wall), else ``(length, dominant)`` where ``dominant`` is the
    rho-shifted dominant representative (i.e. the dot-action image under the
    unique Weyl element of that length).  A weight with a coordinate -1
    (``w + rho`` already on a wall) is ``None`` without a walk, and a walk
    stops at the first wall it meets (``chamber_walk``'s ``stop_at_wall``).
    ``cartan`` is a tuple of rows, or a list of lists, which is copied to
    tuples to look its table up.
    """
    try:
        support = _simple_root_table(cartan)
    except TypeError:  # unhashable rows
        support = _simple_root_table(tuple(map(tuple, cartan)))
    out = []
    for w in weights:
        if -1 in w:
            out.append(None)
            continue
        mu = [c + 1 for c in w]
        letters = chamber_walk(mu, support, True)
        if letters is None:
            out.append(None)
        else:
            out.append((len(letters), tuple([c - 1 for c in mu])))
    return out
