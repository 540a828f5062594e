"""Arithmetic kernels: weight-multiset convolution and batched dot walks.

One pure-Python implementation, in ``_pykernels``.
"""

from __future__ import annotations

from ._pykernels import BACKEND, convolve, dot_walk_batch


def backend_name() -> str:
    return BACKEND
