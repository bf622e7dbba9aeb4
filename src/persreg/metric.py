"""Neighbor-ball queries over the loading space.

Neighbor balls live on squared Euclidean distance between loading columns.
A sorted cell grid over the two widest loading rows lists candidate pairs
that hold every pair closer than the grid's reach, each pair once, and both
the automatic radius and the neighbor pairs are read from those candidates.
No (n, n) array over the loadings is built: memory grows with n plus the
number of candidates.  A step's neighbors leave as one ``NeighborPairs``,
which only ``neighbor_pairs`` builds, from ``CovariateTable`` distances.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import CovariateTable, NumericalError, Range, check_number

RADIUS_NUDGE = 1e-12
# A grid of cells h wide holds every pair whose squared distance lies below
# its reach, h * h * (1 - REACH_MARGIN).  Such a pair is less than
# h * (1 - REACH_MARGIN / 2) apart on each grid axis, and a cell code
# floor((x - low) / h) is off from its exact value by at most about 4.4e-16
# times the number of cells per axis, which is at most MAX_CELLS; so the
# pair's codes differ by at most one on both axes.  MAX_CELLS also keeps the
# int64 cell keys far from overflow.
REACH_MARGIN = 1e-5
MAX_CELLS = 1 << 24
# Without a hint, the automatic radius's first cell width is this many times
# the smallest width that reaches the neighbor target on Gaussian loadings.
# A fit uses it on its first step only.
GUESS_SLACK = 1.2
# With a hint, the first cell width is this many times the width that reaches
# the hint.  A training step hints the radius of the step before it: at 1.25
# no benchmark fit takes more grids than with the Gaussian guess on every
# step, where 1.2 takes one more on serve's 30-step fit.
HINT_SLACK = 1.25


def precompute_cache(covariates: CovariateTable) -> CovariateTable:
    """The training table, its covariate encoding built.  Kept as the fit's
    probe point until ROADMAP items 13 and 10 retire the training probes."""
    covariates.encoding  # a cached property: reading it builds it
    return covariates


class Candidates(NamedTuple):
    """Candidate neighbor pairs of a cell grid over the loadings.

    Candidate c joins the samples ``order[first[c]]`` and
    ``order[second[c]]``; ``sq[c]`` is their squared loading distance,
    accumulated dimension by dimension in row order, so it equals a
    per-pair loop over the dimensions bit for bit.  Every unordered pair of
    samples whose squared distance lies below ``reach`` is a candidate,
    exactly once.
    """

    order: np.ndarray
    first: np.ndarray
    second: np.ndarray
    sq: np.ndarray
    reach: float


class NeighborPairs(NamedTuple):
    """Ordered neighbor pairs, sorted ascending by (i, j), with the (k, P)
    per-covariate distances of every pair."""

    i_idx: np.ndarray
    j_idx: np.ndarray
    distances: np.ndarray


def _checked_loadings(loadings) -> np.ndarray:
    loadings = np.asarray(loadings, dtype=float)
    if loadings.ndim != 2 or not loadings.shape[0]:
        raise ValueError("loadings must be a (q, n) array with q >= 1")
    if not np.all(np.isfinite(loadings)):
        raise ValueError("loadings must be finite")
    return loadings


def _check_radius(radius) -> None:
    check_number("radius", radius, bound=Range(0, strict=True))


def _grid_axes(loadings) -> tuple:
    """Indices of the (at most two) loading rows with the widest range,
    widest first, and that widest range."""
    with np.errstate(over="ignore"):
        spans = np.ptp(loadings, axis=1)
    axes = tuple(int(a) for a in np.argsort(-spans, kind="stable")[:2])
    spread = float(spans[axes[0]])
    if not math.isfinite(spread):
        raise NumericalError("the loading range overflows float64")
    return axes, spread


def _cell_width(width: float, spread: float) -> float:
    """``width``, raised so that a row ``spread`` wide spans at most
    MAX_CELLS cells.  If that leaves it zero, the rows are narrower than
    1e-316 and cells 1.0 wide hold them all."""
    width = max(width, spread / MAX_CELLS)
    return width if width > 0.0 else 1.0


def _width_reaching(radius: float) -> float:
    """A cell width whose grid reaches ``radius``: its square times
    (1 + REACH_MARGIN)^2 (1 - REACH_MARGIN) clears ``radius`` by far more
    than rounding."""
    return math.sqrt(radius) * (1.0 + REACH_MARGIN)


def _grid(loadings, axes, width: float) -> Candidates:
    """Candidates of the grid with square cells ``width`` wide on the
    loading rows ``axes``.

    The samples are sorted by cell key.  Each one takes, by two
    ``searchsorted`` ranges, the rest of its own cell with the cell above
    it, and the three cells of the next column at rows cy - 1 .. cy + 1;
    over all samples that joins every pair of cells at most one apart on
    both axes exactly once.  When every code is 0 or 1 on both axes all
    pairs are candidates and the reach is infinite.
    """
    n = loadings.shape[1]
    codes = [
        np.floor((loadings[a] - loadings[a].min()) / width).astype(np.int64)
        for a in axes
    ]
    if len(codes) == 1:
        codes.append(np.zeros(n, dtype=np.int64))
    cx, cy = codes
    # one empty row above the highest keeps both ranges inside a column
    rows = int(cy.max()) + 2
    keys = cx * rows + cy
    # the order of ties inside a cell does not change which unordered pairs
    # are candidates, nor their squared distances
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.concatenate(
        (np.arange(1, n + 1), np.searchsorted(keys, keys + (rows - 1)))
    )
    stops = np.concatenate(
        (
            np.searchsorted(keys, keys + 1, side="right"),
            np.searchsorted(keys, keys + (rows + 1), side="right"),
        )
    )
    counts = stops - starts
    ends = np.cumsum(counts)
    total = int(counts.sum())
    first = np.repeat(np.tile(np.arange(n), 2), counts)
    second = np.arange(total) + np.repeat(starts - (ends - counts), counts)

    sq = np.zeros(total, dtype=float)
    diff = np.empty(total, dtype=float)
    ends = np.empty(total, dtype=float)
    for row in loadings.take(order, axis=1):
        # "clip" writes straight into out= where "raise" buffers a copy; the
        # indices lie in [0, n) by construction
        row.take(first, out=diff, mode="clip")
        diff -= row.take(second, out=ends, mode="clip")
        np.multiply(diff, diff, out=diff)
        sq += diff
    adjacent = cx.max() <= 1 and cy.max() <= 1
    reach = math.inf if adjacent else width * width * (1.0 - REACH_MARGIN)
    return Candidates(order, first, second, sq, reach)


def candidate_pairs(loadings, radius: float) -> Candidates:
    """Candidates that hold every pair of loading columns closer than
    ``radius`` in squared distance."""
    loadings = _checked_loadings(loadings)
    _check_radius(radius)
    axes, spread = _grid_axes(loadings)
    return _grid(loadings, axes, _cell_width(_width_reaching(radius), spread))


def neighbor_sets(near: Candidates, radius: float) -> tuple:
    """Ordered pairs (i_idx, j_idx) of the neighbor balls at ``radius``,
    from candidates that reach it, sorted ascending by (i, j): the fixed
    order that makes downstream reductions reproducible.

    Sample j is in the ball of sample i when their squared loading distance
    lies strictly below ``radius``; no sample is its own neighbor, and the
    relation is symmetric, so each mutual pair appears in both directions.
    """
    _check_radius(radius)
    if radius > near.reach:
        raise ValueError("the candidates do not reach this radius")
    keep = np.flatnonzero(near.sq < radius)
    a = near.order[near.first[keep]]
    b = near.order[near.second[keep]]
    # (i << shift) | j sorts as (i, j), since j < 2 ** shift
    shift = (len(near.order) - 1).bit_length()
    keys = np.concatenate(((a << shift) | b, (b << shift) | a))
    keys.sort()
    return keys >> shift, keys & ((1 << shift) - 1)


def neighbor_pairs(pairs: tuple, covariates: CovariateTable) -> NeighborPairs:
    """The ordered pairs (i_idx, j_idx), in their order, with their
    per-covariate distances over ``covariates``."""
    i_idx, j_idx = pairs
    return NeighborPairs(i_idx, j_idx, covariates.pair_distances(i_idx, j_idx))


def auto_radius(loadings, target_avg: float, hint: float | None = None) -> tuple:
    """Radius giving roughly ``target_avg`` neighbors per sample, with the
    candidates that reach it: (radius, candidates).

    Takes the m-th smallest squared distance over unordered pairs, with
    m = ceil(target_avg * n / 2) clipped to n(n - 1) / 2, then nudges it up
    by a relative 1e-12 so the strict inequality keeps those m pairs inside
    (a zero distance gives ``RADIUS_NUDGE``).

    The first grid's cells are sized from ``hint``, a radius expected near
    the answer, such as the previous training step's (see ``HINT_SLACK``),
    or without one from the spreads of the two widest rows (see
    ``GUESS_SLACK``).  A grid answers when the m-th smallest candidate
    distance, nudged, lies within its reach: every pair below the reach is
    a candidate, so that distance is the m-th smallest over all pairs, and
    the radius's pairs are all candidates.  Otherwise the next grid reaches
    that radius, which holds the m-th smallest pair, or, with fewer than m
    candidates, has cells twice as wide.  A grid two cells wide takes every
    pair, so the search ends, and the hint changes only how many grids it
    takes, never the radius or its pairs.
    """
    loadings = _checked_loadings(loadings)
    n = loadings.shape[1]
    if n < 2:
        raise ValueError("need at least two samples to pick a radius")
    if not (0 < target_avg <= n - 1):
        raise ValueError(f"target_avg must lie in (0, {n - 1}], got {target_avg}")
    m = min(int(np.ceil(target_avg * n / 2.0)), n * (n - 1) // 2)

    axes, spread = _grid_axes(loadings)
    if hint is not None:
        check_number("hint", hint, bound=Range(0, strict=True))
        width = HINT_SLACK * _width_reaching(hint)
    else:
        sx, sy = [float(np.std(loadings[a])) for a in axes] + [0.0] * (2 - len(axes))
        # (n - 1) h / (sqrt(pi) sx) and (n - 1) h^2 / (4 sx sy) both bound
        # the expected number of neighbors within h of a sample from above
        # when the loadings are Gaussian, so the width reaching the target
        # is at least the larger of their solutions
        guess = max(
            target_avg * math.sqrt(math.pi) * sx,
            math.sqrt(4.0 * target_avg * sx * sy * (n - 1)),
        ) / (n - 1)
        width = GUESS_SLACK * guess
    width = _cell_width(width, spread)
    while True:
        near = _grid(loadings, axes, width)
        if len(near.sq) < m:
            width *= 2.0
            continue
        value = float(np.partition(near.sq, m - 1)[m - 1])
        if not math.isfinite(value):
            raise NumericalError("squared loading distances overflow float64")
        radius = RADIUS_NUDGE if value == 0.0 else value * (1.0 + RADIUS_NUDGE)
        if radius <= near.reach:
            return radius, near
        width = _cell_width(_width_reaching(radius), spread)
