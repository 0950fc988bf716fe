"""
Recursive computation of the multihop AF tradeoff, used as an
independent oracle against the closed form in :mod:`relaydmt.dmt_core`.

The diversity at integer multiplexing gain ``k`` equals the minimum
cost of limiting the source-destination "flow" to ``k`` streams.
Cutting the channel at any interior layer ``i`` splits that cost::

    d(n_0..n_N, k) = min over j >= k of  d(n_0..n_i, j) + d((j, n_{i+1}..n_N), k)

with the two-layer base case ``d((a, b), k) = (a - k)(b - k)``, and the
shift identity ``d(n, k) = d(n - k, 0)`` when every count exceeds ``k``.
The canonical evaluation splits at the last layer, so the tail term is
the Rayleigh cost ``(j - k)(n_N - k)``.
"""

from __future__ import annotations

from functools import lru_cache

from .dmt_core import DimensionLike, as_dimension

__all__ = ["dmt_recursive"]


@lru_cache(maxsize=None)
def _d(ordered: tuple[int, ...], k: int) -> int:
    # Memo key is the sorted dimension: permutations share a tradeoff.
    if k >= min(ordered):
        return 0
    if len(ordered) == 2:
        return (ordered[0] - k) * (ordered[1] - k)
    head, last = ordered[:-1], ordered[-1]
    key = tuple(sorted(head))
    return min(
        _d(key, j) + (j - k) * (last - k) for j in range(k, min(head) + 1)
    )


def dmt_recursive(dim: DimensionLike, k: int) -> int:
    """Diversity at gain ``k`` by the flow recursion, kept here while the benchmark traces it."""
    dim = as_dimension(dim)
    if type(k) is not int or not 0 <= k <= dim.n_min:  # a bool or 1.5 is not a gain
        raise ValueError(f"k must be an integer (an int, not a bool) in 0..{dim.n_min}: {k!r}")
    return _d(dim.ordered, k)
