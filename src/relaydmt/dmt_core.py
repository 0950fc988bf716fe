"""
Exact diversity-multiplexing tradeoff (DMT) curves for MIMO multihop
relay channels.

All curves here are computed analytically with integer/rational
arithmetic, never floating point: the tradeoff of a multihop channel is
a piecewise-linear function of the multiplexing gain, and the pointwise
minimum of such curves can introduce rational breakpoints that must be
stored exactly so that two equal curves compare equal bit-for-bit.  A
coordinate is an ``int`` when integral, and a ``Fraction`` only otherwise.

The multihop channel is described by its antenna counts per layer,
source to destination.  The amplify-and-forward (AF) chain behaves, in
the tradeoff sense, like a point-to-point channel whose matrix is a
product of independent Rayleigh hop matrices, so the AF tradeoff is
that of the matrix-product channel, :func:`dmt_rp`, the one formula the
package has for it.  It depends only on the sorted antenna counts.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

__all__ = [
    "Dimension",
    "DmtCurve",
    "DecodeSet",
    "as_dimension",
    "dmt_rp",
    "cutset_bound",
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
        # A bool is an int to isinstance, but not a count.
        if not (set(map(type, self.counts)) <= {int} and min(self.counts) >= 1):
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

    def __iter__(self):
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i):
        return self.counts[i]

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.counts)) + ")"


def as_dimension(dim: DimensionLike) -> Dimension:
    """Coerce a sequence of integer antenna counts (not bools) into a :class:`Dimension`."""
    if isinstance(dim, Dimension):
        return dim
    try:
        counts = tuple(dim)
        if set(map(type, counts)) <= {int}:  # exact ints, checked by Dimension as they are
            return Dimension(counts)
        return Dimension(tuple(n if type(n) is bool else operator.index(n) for n in counts))
    except TypeError:  # not a sequence, or not an integer type, such as 2.5
        raise ValueError(f"antenna counts must be positive integers: {dim!r}") from None


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
        # A bool is an int to isinstance, but not a layer.
        if any(type(i) is not int for i in self.indices):
            raise ValueError(f"decode indices must be integers: {self.indices}")
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("decode indices must be strictly increasing")
        if self.indices[0] < 1:
            raise ValueError("decode indices start at layer 1")

    def segments(self, dim: Dimension) -> list[tuple[int, ...]]:
        """Per-segment sub-dimensions ``(n_{D_{i-1}}, ..., n_{D_i})``; raises unless ``D_m = N``."""
        if self.indices[-1] != dim.hops:
            raise ValueError(f"last decode index must be the destination layer {dim.hops}")
        bounds = (0,) + self.indices
        return [tuple(dim.counts[a : b + 1]) for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True, repr=False, slots=True)
class DmtCurve:
    """Piecewise-linear diversity(d) vs multiplexing(r) tradeoff, stored exactly.

    Vertices are ``(r, d)`` pairs with rational coordinates, ``r``
    strictly increasing from 0; any iterable of pairs constructs a curve.
    Evaluation is linear interpolation, clamped to ``d(0)`` left of zero
    and to 0 beyond the last vertex.  Construction canonicalizes: collinear
    interior vertices are merged and a flat tail at ``d = 0`` is cut, so two
    curves are equal iff they are the same function.  Inputs (float and numpy
    included) are read exactly; each coordinate, and each value ``evaluate``
    returns, is an ``int`` when integral and otherwise a ``Fraction``, never a float.

    A full tradeoff ends at ``d = 0``; a curve that stops above it is
    *partial*: only the maximum-diversity point ``d(0)`` is known
    (heterogeneous parallel combinations).  Evaluating a partial curve
    at ``r > 0`` raises.
    """

    vertices: tuple[tuple[Rational, Rational], ...]

    def __post_init__(self) -> None:
        verts = [(_exact(r), _exact(d)) for r, d in self.vertices]
        if not verts:
            raise ValueError("a curve needs at least one vertex")
        if any(a[0] >= b[0] for a, b in zip(verts, verts[1:])):
            raise ValueError("vertex abscissas must be strictly increasing")
        if verts[0][0] != 0:
            raise ValueError("curves start at r = 0")
        if any(a[1] < b[1] for a, b in zip(verts, verts[1:])):
            raise ValueError("diversity must be non-increasing in r")
        if verts[-1][1] < 0:
            raise ValueError("diversity must be non-negative")
        # Cut a flat zero tail: only the last vertex may have d = 0, so r_max is where d first is.
        while len(verts) > 1 and verts[-2][1] == 0:
            verts.pop()
        object.__setattr__(self, "vertices", _merge_collinear(verts))

    @property
    def partial(self) -> bool:
        return self.vertices[-1][1] > 0

    @property
    def d_max(self) -> Rational:
        """Maximum diversity gain, ``d(0)``."""
        return self.vertices[0][1]

    @property
    def r_max(self) -> Rational:
        """Maximum multiplexing gain, the smallest r with ``d(r) = 0``."""
        if self.partial:
            raise ValueError("partial curve: only d(0) is known")
        return self.vertices[-1][0]

    def evaluate(self, r: Rational) -> Rational:
        r = _exact(r)
        if r <= 0:
            return self.vertices[0][1]
        if self.partial:
            raise ValueError("partial curve: only d(0) is known")
        verts = self.vertices
        if r >= verts[-1][0]:
            return 0
        # r is below the last abscissa, so the last segment qualifies if no earlier one does.
        for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
            if r <= x1:
                break
        # On a vertex (each integer gain of dmt_rp is one) nothing is interpolated;
        # between two, the division is a Fraction's, since ints would give a float.
        return y1 if r == x1 else _exact(y0 + Fraction((y1 - y0) * (r - x0), x1 - x0))

    @staticmethod
    def pointwise_min(curves: Sequence["DmtCurve"]) -> "DmtCurve":
        """Exact lower envelope of a set of curves.

        Between two consecutive breakpoints of the inputs every input is a
        line, and a minimum of lines bends only where two of them cross.  So
        the envelope takes the inputs' minimum at each breakpoint and at every
        pairwise crossing inside each interval; construction merges the
        collinear vertices.  Crossings can make vertex values rational even
        when all inputs are integral.
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
        low = [min(column) for column in zip(*values)]
        for c, v in zip(curves, values):
            if v == low:  # lowest at every breakpoint, so everywhere
                return c
        verts = []
        for i, (x0, x1) in enumerate(zip(grid, grid[1:])):
            # Each input on [x0, x1] as (value at x0, slope); t is the offset from x0.
            w = x1 - x0
            lines = [(v[i], Fraction(v[i + 1] - v[i], w)) for v in values]
            pairs = itertools.combinations(lines, 2)
            crossings = {(ya - yb) / (sb - sa) for (ya, sa), (yb, sb) in pairs if sa != sb}
            for t in sorted(t for t in crossings | {0} if 0 <= t < w):
                verts.append((x0 + t, min(y + s * t for y, s in lines)))
        return DmtCurve(verts + [(right, low[-1])])

    def __repr__(self) -> str:
        pts = ", ".join(f"({x},{y})" for x, y in self.vertices)
        return f"DmtCurve([{pts}])"


def _exact(v) -> Rational:
    # The canonical form: an int as given; anything else (float, numpy int, str) as a
    # Fraction, and a Fraction as its int when its denominator is 1 (int(): the Fraction
    # of a numpy int keeps that type as its numerator).
    v = v if type(v) is int or type(v) is Fraction else Fraction(v)
    return v if type(v) is int or v.denominator != 1 else int(v.numerator)


def _merge_collinear(verts: list[tuple[Rational, Rational]]) -> tuple[tuple[Rational, Rational], ...]:
    # The vertices left after merging, kept in the canonical form _exact gave them.
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
    return tuple(out)


# ---------------------------------------------------------------------------
# Analytic tradeoff curves
# ---------------------------------------------------------------------------


def _coeff_values(counts: Sequence[int]) -> list[int]:
    # The disconnection costs (c_1, ..., c_{n_min}) of dmt_rp, on unvalidated counts.
    ordered = sorted(counts)
    prefix = list(itertools.accumulate(ordered))  # prefix[k] = m_0 + ... + m_k
    ks = range(1, len(ordered))
    return [1 - i + min((prefix[k] - i) // k for k in ks) for i in range(1, ordered[0] + 1)]


def _af_d_max(counts: Sequence[int]) -> int:
    # d_max of dmt_rp(counts), the sum of its costs, without building the curve.
    return sum(_coeff_values(counts))


def dmt_rp(dim: DimensionLike) -> DmtCurve:
    """Exact tradeoff of the multihop AF chain (matrix-product channel).

    The curve connects the integer points ``(k, sum of c_i for i > k)``
    for ``k = 0 .. n_min``; it depends only on the sorted antenna counts.
    The disconnection costs ``c_i = d(i - 1) - d(i)`` decrease strictly; on the sorted
    counts ``m_0 <= ... <= m_N``, ``c_i = 1 - i + min_{k=1..N} floor((m_0 + ... + m_k - i) / k)``.
    One hop is the point-to-point Rayleigh curve ``(nt - k)(nr - k)``; a chain
    of ``N >= n`` hops of ``n`` antennas each gives ``(n - k)(n + 1 - k) / 2``.
    """
    dim = as_dimension(dim)
    c = _coeff_values(dim.counts)
    points = [(k, sum(c[k:])) for k in range(dim.n_min + 1)]
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
    curves = [DmtCurve([(k, (p - k) * (q - k)) for k in range(p + 1)]) for p, q in front]
    return DmtCurve.pointwise_min(curves)


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
    segment's is the sum of its disconnection costs ``c_i`` (see
    :func:`dmt_rp`), the cut-set ceiling is ``min_i n_{i-1} n_i``.
    """
    dim = as_dimension(dim)
    if type(d) is not int:  # a bool is not a diversity
        raise ValueError(f"diversity must be an integer (an int, not a bool): {d!r}")
    if d > _cutset_d_max(dim):
        raise ValueError(f"unachievable diversity: {d} > d_max = {_cutset_d_max(dim)}")
    indices, end = [], 0
    while end < dim.hops:
        start, end = end, end + 1
        # A single hop reaches d <= d_max, and a segment's diversity only falls as it
        # lengthens (the recursion's j = 0 term), so extend it while one more hop reaches d.
        while end < dim.hops and _af_d_max(dim.counts[start : end + 2]) >= d:
            end += 1
        indices.append(end)
    return DecodeSet(tuple(indices))


def dmt_ff_lower_bound(dim: DimensionLike, k_modes: int) -> DmtCurve:
    """Achievable tradeoff of the flip-and-forward scheme with ``k_modes`` modes.

    ``d(r) = d_af(r) + (d_max - d_af(0)) * (1 - k_modes * r)^+`` -- the
    flip modes recover the full cut-set diversity at r = 0 and fall back
    to the AF curve beyond ``r = 1/k_modes``.
    """
    dim = as_dimension(dim)
    if type(k_modes) is not int or k_modes < 1:  # a bool is not a count
        raise ValueError(f"mode count must be positive (an int, not a bool): {k_modes!r}")
    af = dmt_rp(dim)
    deficit = _cutset_d_max(dim) - af.d_max
    # 1/k_modes <= 1 <= af.r_max: no abscissa lies past the AF curve's end.
    xs = sorted({0, Fraction(1, k_modes)} | {x for x, _ in af.vertices})
    return DmtCurve((x, af.evaluate(x) + deficit * max(0, 1 - k_modes * x)) for x in xs)


def dmt_parallel_af(dim: DimensionLike, path_dims: Sequence[DimensionLike]) -> DmtCurve:
    """Tradeoff of a parallel AF scheme whose paths have the given dimensions.

    When every path has the same tradeoff curve ``d_0``, the parallel
    channel achieves ``K * d_0(r)``.  For heterogeneous paths only the
    diversity point is known (sum of the per-path diversities); the
    returned curve is then partial.

    Paths are time-multiplexed and may share antennas; a path wider than a
    layer, or a summed diversity above the cut-set's, raises ``ValueError``.
    """
    dim = as_dimension(dim)
    if not path_dims:
        raise ValueError("need at least one path")
    paths = [as_dimension(p) for p in path_dims]
    for p in paths:
        if len(p) != len(dim):
            raise ValueError(f"path {p} does not span the {dim.hops}-hop channel")
        if any(w > n for w, n in zip(p.counts, dim.counts)):
            raise ValueError(f"path {p} is wider than the channel {dim} in some layer")
    curves = [dmt_rp(p) for p in paths]
    d0, d_cut = sum(c.d_max for c in curves), _cutset_d_max(dim)
    if d0 > d_cut:
        raise ValueError(f"paths sum to diversity {d0}, above the cut-set d_max {d_cut}")
    if all(c == curves[0] for c in curves[1:]):
        return DmtCurve([(x, len(curves) * y) for x, y in curves[0].vertices])
    return DmtCurve([(0, d0)])
