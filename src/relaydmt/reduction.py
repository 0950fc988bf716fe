"""
Channel order, minimal forms, and tradeoff-equivalence of multihop channels.

Two multihop channels are equivalent when they have the same tradeoff
curve.  Each equivalence class is identified by a unique *minimal form*:
the shortest sorted dimension with the same curve.  A channel of
dimension ``(n_0, ..., n_N)`` (sorted ``m_0 <= ... <= m_N``) reduces to
its first ``k`` sorted layers iff

    k * (m_{k+1} + 1) >= m_0 + ... + m_k

with ``m_{N+1}`` treated as infinite, so reduction to itself is always
allowed.  The channel *order*, :func:`analyze`'s ``order``, is the first
``k`` this criterion accepts; it accepts every larger ``k`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dmt_core import Dimension, DimensionLike, as_dimension

__all__ = [
    "ReductionReport",
    "analyze",
    "equivalent",
    "practical_vertical_reduction",
]


@dataclass(frozen=True)
class ReductionReport:
    """Summary of how far a channel reduces without changing its tradeoff.

    ``order`` is the minimal number of hops; ``minimal_form`` the sorted
    dimension of that length; ``n_bar`` the per-layer antenna count that
    suffices to pad the minimal form back to the original hop count
    (``minimal_vertical_form``).
    """

    order: int
    minimal_form: Dimension
    minimal_vertical_form: Dimension
    n_bar: int


def analyze(dim: DimensionLike) -> ReductionReport:
    """Channel order, minimal forms, and the minimal per-layer antenna count."""
    dim = as_dimension(dim)
    ordered = dim.ordered
    # The first k the module's criterion accepts; k = N always reduces to itself.
    accepts = (k for k in range(1, dim.hops) if k * (ordered[k + 1] + 1) >= sum(ordered[: k + 1]))
    order = next(accepts, dim.hops)
    head = ordered[: order + 1]
    n_bar = math.ceil(sum(head) / order) - 1
    padded = head + (n_bar,) * (dim.hops - order)
    return ReductionReport(
        order=order,
        minimal_form=Dimension(head),
        minimal_vertical_form=Dimension(padded),
        n_bar=n_bar,
    )


def equivalent(a: DimensionLike, b: DimensionLike) -> bool:
    """Whether two channels have identical tradeoff curves (same minimal form)."""
    return analyze(a).minimal_form == analyze(b).minimal_form


def practical_vertical_reduction(dim: DimensionLike) -> Dimension:
    """Cap each relay layer at ``n_bar`` antennas, keeping layer positions.

    Source and destination are untouched.  The result is equivalent to
    the input: removed antennas never contributed to the tradeoff.
    """
    dim = as_dimension(dim)
    n_bar = analyze(dim).n_bar
    counts = list(dim.counts)
    for i in range(1, dim.hops):
        counts[i] = min(counts[i], n_bar)
    return Dimension(tuple(counts))
