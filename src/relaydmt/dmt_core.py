"""
Exact diversity-multiplexing tradeoff (DMT) curves for MIMO multihop
relay channels.

All curves here are computed analytically with integer/rational
arithmetic, never floating point: the tradeoff of a multihop channel is
a piecewise-linear function of the multiplexing gain, and the pointwise
minimum of such curves can introduce rational breakpoints that must be
stored exactly so that two equal curves compare equal bit-for-bit.

The multihop channel is described by its antenna counts per layer,
source to destination.  The amplify-and-forward (AF) chain behaves, in
the tradeoff sense, like a point-to-point channel whose matrix is a
product of independent Rayleigh hop matrices, so the AF tradeoff is
that of the matrix-product channel and depends only on the sorted
antenna counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "Dimension",
    "DmtCoeffs",
    "DmtCurve",
    "DecodeSet",
    "as_dimension",
    "coeffs",
    "dmt_rp",
    "dmt_rayleigh",
    "cutset_bound",
    "dmt_symmetric",
    "dmt_serial_partition",
    "where_to_decode",
    "dmt_ff_lower_bound",
    "dmt_parallel_af",
]

Rational = Union[int, Fraction]
DimensionLike = Union["Dimension", Sequence[int]]


@dataclass(frozen=True)
class Dimension:
    """Antenna counts per layer, ``(n_0, ..., n_N)`` from source to destination.

    ``N = len(counts) - 1`` is the number of hops; layers ``1 .. N-1``
    are relay layers.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) < 2:
            raise ValueError("a multihop channel needs at least two layers")
        if any((not isinstance(n, int)) or n < 1 for n in self.counts):
            raise ValueError(f"antenna counts must be positive integers: {self.counts}")

    @property
    def hops(self) -> int:
        return len(self.counts) - 1

    @property
    def ordered(self) -> tuple[int, ...]:
        """Non-decreasing view of the counts; the tradeoff depends only on this."""
        return tuple(sorted(self.counts))

    @property
    def n_min(self) -> int:
        return min(self.counts)

    @property
    def n_max(self) -> int:
        return max(self.counts)

    def __iter__(self):
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i):
        return self.counts[i]

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.counts)) + ")"


def as_dimension(dim: DimensionLike) -> Dimension:
    """Coerce a sequence of antenna counts into a :class:`Dimension`."""
    if isinstance(dim, Dimension):
        return dim
    return Dimension(tuple(int(n) for n in dim))


@dataclass(frozen=True)
class DmtCoeffs:
    """Per-stream disconnection costs ``(c_1, ..., c_{n_min})``.

    ``c_i`` is the high-SNR probability cost of driving the i-th
    strongest eigenmode of the end-to-end channel to zero; the maximum
    diversity is the total cost of disconnecting all modes.  The values
    are strictly decreasing in ``i``.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.values):
            raise ValueError("costs must be non-negative")
        if any(a < b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("costs must be non-increasing")

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DecodeSet:
    """Relay layers that decode-and-forward, ``D_1 < ... < D_m = N``.

    Splits the chain into AF segments ``(D_{i-1}, D_i]``; the last
    index is always the destination layer ``N``.
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.indices:
            raise ValueError("decode set cannot be empty")
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("decode indices must be strictly increasing")
        if self.indices[0] < 1:
            raise ValueError("decode indices start at layer 1")

    def validate_for(self, dim: Dimension) -> None:
        if self.indices[-1] != dim.hops:
            raise ValueError(f"last decode index must be the destination layer {dim.hops}")

    def segments(self, dim: Dimension) -> list[tuple[int, ...]]:
        """Per-segment sub-dimensions ``(n_{D_{i-1}}, ..., n_{D_i})``."""
        self.validate_for(dim)
        bounds = (0,) + self.indices
        return [tuple(dim.counts[a : b + 1]) for a, b in zip(bounds, bounds[1:])]

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


class DmtCurve:
    """Piecewise-linear diversity(d) vs multiplexing(r) tradeoff, stored exactly.

    Vertices are ``(r, d)`` pairs with rational coordinates, ``r``
    strictly increasing from 0.  Evaluation is linear interpolation,
    clamped to ``d(0)`` left of zero and to 0 beyond the last vertex.
    Construction canonicalizes: collinear interior vertices are merged,
    so two curves are equal iff they are the same function.

    A curve may be *partial*: only the maximum-diversity point ``d(0)``
    is known (heterogeneous parallel combinations).  Evaluating a
    partial curve at ``r > 0`` raises.
    """

    __slots__ = ("_vertices", "_partial")

    def __init__(self, vertices: Iterable[tuple[Rational, Rational]], partial: bool = False):
        verts = [(Fraction(r), Fraction(d)) for r, d in vertices]
        if not verts:
            raise ValueError("a curve needs at least one vertex")
        if any(a[0] >= b[0] for a, b in zip(verts, verts[1:])):
            raise ValueError("vertex abscissas must be strictly increasing")
        if verts[0][0] != 0:
            raise ValueError("curves start at r = 0")
        if any(a[1] < b[1] for a, b in zip(verts, verts[1:])):
            raise ValueError("diversity must be non-increasing in r")
        if not partial:
            if verts[-1][1] != 0:
                raise ValueError("curves end at d = 0")
            verts = _merge_collinear(verts)
        self._vertices = tuple(verts)
        self._partial = bool(partial)

    @property
    def vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return self._vertices

    @property
    def partial(self) -> bool:
        return self._partial

    @property
    def d_max(self) -> Fraction:
        """Maximum diversity gain, ``d(0)``."""
        return self._vertices[0][1]

    @property
    def r_max(self) -> Fraction:
        """Maximum multiplexing gain, the smallest r with ``d(r) = 0``."""
        if self._partial:
            raise ValueError("partial curve: only d(0) is known")
        return self._vertices[-1][0]

    def evaluate(self, r: Rational) -> Fraction:
        r = r if isinstance(r, Fraction) else Fraction(r)
        if r <= 0:
            return self._vertices[0][1]
        if self._partial:
            raise ValueError("partial curve: only d(0) is known")
        if r >= self._vertices[-1][0]:
            return Fraction(0)
        verts = self._vertices
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if r <= x1:
                return y0 + (y1 - y0) * (r - x0) / (x1 - x0)
        raise AssertionError("unreachable")

    __call__ = evaluate

    @staticmethod
    def pointwise_min(curves: Sequence["DmtCurve"]) -> "DmtCurve":
        """Exact lower envelope of a set of curves.

        A sweep over the union of the inputs' breakpoints: between two
        consecutive breakpoints every input is one line, so the envelope
        follows the lowest line (ties to the smaller slope) and gains a
        vertex only where a line of smaller slope first dips below it.
        Those crossings can make vertex values rational even when all
        inputs are integral.
        """
        if not curves:
            raise ValueError("need at least one curve")
        if any(c.partial for c in curves):
            raise ValueError("cannot take the envelope of partial curves")
        if len(curves) == 1:
            return curves[0]
        right = min(c.r_max for c in curves)
        grid = sorted({x for c in curves for x, _ in c.vertices if x < right} | {right})
        values = [[c.evaluate(x) for x in grid] for c in curves]
        verts = [(grid[0], min(v[0] for v in values))]
        for i, (x0, x1) in enumerate(zip(grid, grid[1:])):
            # Each input on [x0, x1] as (value at x0, slope); start on the lowest.
            w = x1 - x0
            lines = [(v[i], (v[i + 1] - v[i]) / w) for v in values]
            y, s = min(lines)
            # The first line of smaller slope to cross below takes over; the
            # smallest slope wins a tie, as it stays lowest past the crossing.
            while True:
                t, s_next, y_next = min(
                    (((yc - y) / (s - sc), sc, yc) for yc, sc in lines if sc < s), default=(w, s, y)
                )
                if t >= w:
                    break
                y, s = y_next, s_next
                verts.append((x0 + t, y + s * t))
            verts.append((x1, y + s * w))
        return DmtCurve(verts)

    def scale(self, factor: Rational) -> "DmtCurve":
        """Multiply diversity values by a positive factor."""
        factor = Fraction(factor)
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return DmtCurve([(x, factor * y) for x, y in self._vertices], partial=self._partial)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DmtCurve):
            return NotImplemented
        return self._vertices == other._vertices and self._partial == other._partial

    def __hash__(self) -> int:
        return hash((self._vertices, self._partial))

    def __repr__(self) -> str:
        pts = ", ".join(f"({x},{y})" for x, y in self._vertices)
        tag = ", partial" if self._partial else ""
        return f"DmtCurve([{pts}]{tag})"


def _merge_collinear(verts: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    out = [verts[0]]
    for v in verts[1:]:
        while len(out) >= 2:
            (x0, y0), (x1, y1) = out[-2], out[-1]
            # (x1,y1) is redundant if it lies on the segment (x0,y0)-(v).
            if (y1 - y0) * (v[0] - x0) == (v[1] - y0) * (x1 - x0):
                out.pop()
            else:
                break
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# Analytic tradeoff curves
# ---------------------------------------------------------------------------


def coeffs(dim: DimensionLike) -> DmtCoeffs:
    """Disconnection costs of the matrix-product (AF-equivalent) channel.

    On the sorted counts ``m_0 <= ... <= m_N``::

        c_i = 1 - i + min over k in 1..N of floor((m_0 + ... + m_k - i) / k)

    for ``i = 1 .. n_min``, evaluated in exact integer arithmetic.
    """
    return DmtCoeffs(tuple(_coeff_values(as_dimension(dim).counts)))


def _coeff_values(counts: Sequence[int]) -> list[int]:
    # The formula of coeffs on unvalidated counts.
    ordered = sorted(counts)
    prefix = list(itertools.accumulate(ordered))  # prefix[k] = m_0 + ... + m_k
    ks = range(1, len(ordered))
    return [1 - i + min((prefix[k] - i) // k for k in ks) for i in range(1, ordered[0] + 1)]


def _af_d_max(counts: Sequence[int]) -> int:
    # d_max of dmt_rp(counts), the sum of its coefficients, without building the curve.
    return sum(_coeff_values(counts))


def dmt_rp(dim: DimensionLike) -> DmtCurve:
    """Exact tradeoff of the multihop AF chain (matrix-product channel).

    The curve connects the integer points ``(k, sum of c_i for i > k)``
    for ``k = 0 .. n_min``; it depends only on the sorted antenna counts.
    """
    dim = as_dimension(dim)
    c = coeffs(dim).values
    points = [(k, sum(c[k:])) for k in range(dim.n_min + 1)]
    return DmtCurve(points)


def dmt_rayleigh(nt: int, nr: int) -> DmtCurve:
    """Point-to-point Rayleigh MIMO tradeoff: ``d(k) = (nt - k)(nr - k)``."""
    if nt < 1 or nr < 1:
        raise ValueError("antenna counts must be positive")
    points = [(k, (nt - k) * (nr - k)) for k in range(min(nt, nr) + 1)]
    return DmtCurve(points)


def _cutset_d_max(dim: Dimension) -> int:
    # d_max of the cut-set bound, min_i n_{i-1} n_i, without building the curve.
    return min(a * b for a, b in zip(dim.counts, dim.counts[1:]))


def cutset_bound(dim: DimensionLike) -> DmtCurve:
    """Tradeoff upper bound for any relaying strategy.

    Pointwise minimum over hops of the per-hop Rayleigh tradeoff.  Its
    extremes are ``d_max = min_i n_{i-1} n_i`` and ``r_max = min_i n_i``.
    Only Pareto-minimal hops ``(p <= q)`` enter: a hop bounded below in
    both counts by another lies at or above its curve everywhere.
    """
    dim = as_dimension(dim)
    pairs = sorted({tuple(sorted(hop)) for hop in zip(dim.counts, dim.counts[1:])})
    # Earlier pairs have p' <= p, so a pair is Pareto-minimal iff every earlier q' > q.
    front = [(p, q) for i, (p, q) in enumerate(pairs) if all(q < b for _, b in pairs[:i])]
    return DmtCurve.pointwise_min([dmt_rayleigh(p, q) for p, q in front])


def dmt_symmetric(n: int, n_hops: int) -> DmtCurve:
    """Closed form for the AF tradeoff of the all-``n`` channel with ``n_hops`` hops.

    With ``a = floor((n - k) / N)`` and ``b = (n - k) mod N``::

        d(k) = (n-k)(n+1-k)/2 + a((a-1)N + 2b)/2

    For ``N >= n`` this collapses to ``(n-k)(n+1-k)/2``: past that point
    extra hops no longer degrade the diversity.
    """
    if n < 1 or n_hops < 1:
        raise ValueError("n and hop count must be positive")
    points = []
    for k in range(n + 1):
        a, b = divmod(n - k, n_hops)
        d = Fraction((n - k) * (n + 1 - k), 2) + Fraction(a * ((a - 1) * n_hops + 2 * b), 2)
        points.append((k, d))
    return DmtCurve(points)


def dmt_serial_partition(dim: DimensionLike, decode: DecodeSet) -> DmtCurve:
    """Tradeoff when the given relay layers decode-and-forward.

    The chain becomes a series of AF segments; the end-to-end curve is
    the pointwise minimum of the per-segment AF curves.
    """
    dim = as_dimension(dim)
    segments = decode.segments(dim)
    return DmtCurve.pointwise_min([dmt_rp(seg) for seg in segments])


def where_to_decode(dim: DimensionLike, d: int) -> DecodeSet:
    """Smallest decode set achieving diversity at least ``d``.

    Greedy construction: each decode layer is pushed as far toward the
    destination as possible while the AF segment ending there still has
    diversity >= ``d``.  AF diversity degrades as segments lengthen, so
    the greedy choice is optimal.  Diversities are read as integers: a
    segment's is the sum of its :func:`coeffs`, the cut-set ceiling is
    ``min_i n_{i-1} n_i``.
    """
    dim = as_dimension(dim)
    d_ceiling = _cutset_d_max(dim)
    if d > d_ceiling:
        raise ValueError(f"unachievable diversity: {d} > d_max = {d_ceiling}")
    indices = []
    start = 0
    while start < dim.hops:
        ends = range(start + 1, dim.hops + 1)
        feasible = [end for end in ends if _af_d_max(dim.counts[start : end + 1]) >= d]
        if not feasible:
            # Cannot happen for d <= d_max: a single hop always reaches it.
            raise AssertionError(f"no feasible segment from layer {start}")
        start = feasible[-1]
        indices.append(start)
    return DecodeSet(tuple(indices))


def dmt_ff_lower_bound(dim: DimensionLike, k_modes: int) -> DmtCurve:
    """Achievable tradeoff of the flip-and-forward scheme with ``k_modes`` modes.

    ``d(r) = d_af(r) + (d_max - d_af(0)) * (1 - k_modes * r)^+`` -- the
    flip modes recover the full cut-set diversity at r = 0 and fall back
    to the AF curve beyond ``r = 1/k_modes``.
    """
    dim = as_dimension(dim)
    if k_modes < 1:
        raise ValueError("mode count must be positive")
    af = dmt_rp(dim)
    deficit = _cutset_d_max(dim) - af.d_max
    xs = sorted({Fraction(0), Fraction(1, k_modes)} | {x for x, _ in af.vertices})
    xs = [x for x in xs if x <= af.r_max]
    return DmtCurve((x, af.evaluate(x) + deficit * max(Fraction(0), 1 - k_modes * x)) for x in xs)


def dmt_parallel_af(dim: DimensionLike, path_dims: Sequence[DimensionLike]) -> DmtCurve:
    """Tradeoff of a parallel AF scheme whose paths have the given dimensions.

    When every path has the same tradeoff curve ``d_0``, the parallel
    channel achieves ``K * d_0(r)``.  For heterogeneous paths only the
    diversity point is known (sum of the per-path diversities); the
    returned curve is then partial.
    """
    dim = as_dimension(dim)
    if not path_dims:
        raise ValueError("need at least one path")
    paths = [as_dimension(p) for p in path_dims]
    for p in paths:
        if len(p) != len(dim):
            raise ValueError(f"path {p} does not span the {dim.hops}-hop channel")
    curves = [dmt_rp(p) for p in paths]
    if all(c == curves[0] for c in curves[1:]):
        return curves[0].scale(len(curves))
    d0 = sum(c.d_max for c in curves)
    return DmtCurve([(0, d0)], partial=True)
