"""Pure-Python kernels: the package's only implementation of its hot loops.

``chamber_walk`` is the one chamber walk of the package; ``weyl`` builds its
dominantization, canonical words and linear orbit representatives on it.
"""

from __future__ import annotations

BACKEND = "pure"


def convolve(a: dict, b: dict) -> dict:
    """Minkowski convolution of weight multisets (tuple keys, int counts)."""
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for wa, ca in a.items():
        for wb, cb in b.items():
            key = tuple(x + y for x, y in zip(wa, wb))
            out[key] = get(key, 0) + ca * cb
    return out


def chamber_walk(mu: list, cols) -> list[int]:
    """Move ``mu`` into the dominant chamber in place by simple reflections.

    Each step reflects in the smallest index with a negative coordinate;
    ``cols[i]`` holds the fundamental coordinates of the simple root
    alpha_{i+1}.  Returns the 1-based letters in the order they were applied.
    """
    rank = len(mu)
    letters = []
    while True:
        for i in range(rank):
            c = mu[i]
            if c < 0:
                col = cols[i]
                for j in range(rank):
                    mu[j] -= c * col[j]
                letters.append(i + 1)
                break
        else:
            return letters


def dot_walk_batch(weights: list, cartan) -> list:
    """Dominantize ``w + rho`` by simple reflections for each input weight.

    Returns one entry per input: ``None`` when the shifted weight is singular
    (hits a wall), else ``(length, dominant)`` where ``dominant`` is the
    rho-shifted dominant representative (i.e. the dot-action image under the
    unique Weyl element of that length).
    """
    rank = len(cartan)
    cols = [tuple(cartan[i][j] for i in range(rank)) for j in range(rank)]
    out = []
    for w in weights:
        mu = [c + 1 for c in w]
        length = len(chamber_walk(mu, cols))
        if 0 in mu:
            out.append(None)
        else:
            out.append((length, tuple(c - 1 for c in mu)))
    return out
