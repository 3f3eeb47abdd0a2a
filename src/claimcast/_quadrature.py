"""Batched quadrature of the integrals behind the stable CDF.

Each integral is of exp(-exp(log_g + log_v(theta))) over an interval, a
smoothed step in theta, for many log_g at once and one or more log_v.
The interval is cut where the exponent crosses fixed levels, placed by
linear interpolation on a scan grid refined where the exponent is steep;
every segment gets 16- and 32-point Gauss-Legendre rules, and segments
where the two disagree are bisected.  ``claimcast.stable`` defines the
integrands and judges the error estimates.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

_QUAD_ABS_TOL = 1e-11  # per segment: |GL32 - GL16| above this bisects it
_MAX_BISECTIONS = 40
CHUNK = 8  # points integrated together: bounds the kernel's memory

# Scan grid, as fractions of the integration interval: 127 interior points
# plus the decades 1e-9 ... 1e-3 from either end, where the representations'
# log singularities squeeze far-tail transitions.
_ENDS = 10.0 ** -np.arange(9.0, 2.0, -1.0)
_SCAN = np.concatenate((_ENDS, np.linspace(0.0, 1.0, 129)[1:-1], 1.0 - _ENDS[::-1]))
# A scan cell is split in eight while the exponent s changes across it by
# more than _MAX_SCAN_STEP inside _BAND, where exp(-e^s) is neither 0 nor 1.
_MAX_SCAN_STEP = 8.0
_BAND = (-36.0, 4.0)
_SUBDIVIDE = np.arange(1.0, 8.0) / 8.0
_MAX_SCAN_REFINEMENTS = 16
# exponent levels where the domain is cut
_LEVELS = np.array(
    [-30.0, -20.0, -12.0, -8.0, -5.0, -3.0, -2.0, -1.0, 0.0,
     1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0]
)


def gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the Legendre recurrence, which settles to rounding
    in a few steps from the asymptotic guesses.  (``numpy``'s ``leggauss``
    solves an eigenproblem instead, whose first call sets up LAPACK and
    costs about 1 MB of resident memory in every process importing this.)
    """
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(8):
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x[::-1], (2.0 / ((1.0 - x * x) * dp * dp))[::-1]


# Gauss-Legendre rules on [-1, 1]: the 16 nodes, then the 32, in one row,
# and their weights in a row of the same layout
_GL_NODES, _GL_WEIGHTS = map(np.concatenate, zip(gauss_legendre(16), gauss_legendre(32)))


class Integrand(NamedTuple):
    """exp(-exp(log_g + log_v(theta))) over theta in (lo, hi), with log_v
    already taken on the scan grid."""

    log_v: Callable
    lo: float
    hi: float
    scan: np.ndarray
    scan_v: np.ndarray


def integrand(log_v, lo: float, hi: float) -> Integrand:
    """The integrand of log_v on (lo, hi), with log_v taken on the scan grid.

    Its arrays are read-only, so that one integrand can be cached and shared.
    """
    scan = lo + (hi - lo) * _SCAN
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scan_v = log_v(scan)
    scan.flags.writeable = scan_v.flags.writeable = False
    return Integrand(log_v, lo, hi, scan, scan_v)


def _exponent(log_g: np.ndarray, theta: np.ndarray, which: np.ndarray, integrands):
    """s = log_g + log_v(theta) row by row, with the log_v of the row's
    entry of ``integrands`` (``which``, sorted, indexes them); NaN (outside
    the domain) reads as +inf."""
    bounds = np.searchsorted(which, np.arange(len(integrands) + 1)).tolist()
    parts = []
    for f, i, j in zip(integrands, bounds, bounds[1:]):
        if i < j:
            parts.append(f.log_v(theta[i:j]))
            parts[-1] += log_g[i:j]
    s = parts[0] if len(parts) == 1 else np.concatenate(parts)
    s[np.isnan(s)] = np.inf
    return s


def _segments(log_g: np.ndarray, which: np.ndarray, integrands, scans):
    """Every point's integration segments (a, b, point), sorted by point.

    ``scans`` holds the integrands' lo, hi, scan grids and log_v on them,
    stacked.
    A point's segment edges are lo, hi and where its exponent s crosses
    each of ``_LEVELS``, found for all points and scan cells at once.  Each
    crossing is placed by linear interpolation of s between the scan
    points around it.  Scan cells where s is steep inside ``_BAND`` are
    subdivided first, so that the interpolated cuts land close to the true
    crossings.  A point whose integrand is 0 on the whole scan gets no
    segments.
    """
    lo, hi, scan, scan_v = scans
    s = log_g[:, None] + scan_v[which]
    s[np.isnan(s)] = np.inf
    live = np.flatnonzero((s <= 36.0).any(axis=1))  # exp(-e^36) == 0
    grid = scan[which[live]].ravel()
    s = s[live].ravel()
    owner = np.repeat(live, _SCAN.size)
    for _ in range(_MAX_SCAN_REFINEMENTS):
        i = np.flatnonzero(np.abs(np.diff(s)) > _MAX_SCAN_STEP)
        s0, s1 = s[i], s[i + 1]
        i = i[
            (owner[i] == owner[i + 1])
            & (np.maximum(s0, s1) > _BAND[0])
            & (np.minimum(s0, s1) < _BAND[1])
            & (grid[i + 1] - grid[i] > 1e-13 * (hi - lo)[which[owner[i]]])
        ]
        if not i.size:
            break
        extra = (grid[i, None] + (grid[i + 1] - grid[i])[:, None] * _SUBDIVIDE).ravel()
        extra_owner = np.repeat(owner[i], _SUBDIVIDE.size)
        extra_s = _exponent(log_g[extra_owner], extra, which[extra_owner], integrands)
        grid = np.concatenate((grid, extra))
        s = np.concatenate((s, extra_s))
        owner = np.concatenate((owner, extra_owner))
        order = np.lexsort((grid, owner))
        grid, s, owner = grid[order], s[order], owner[order]
    # (cell, level) pairs with the level between the cell's finite end
    # values, both ends on one point; the sign test keeps the crossings
    below = np.searchsorted(_LEVELS, s)  # levels below each s
    first = np.minimum(below[:-1], below[1:])
    count = np.abs(below[1:] - below[:-1])
    finite = np.isfinite(s)
    count[(owner[:-1] != owner[1:]) | ~(finite[:-1] & finite[1:])] = 0
    i = np.repeat(np.arange(count.size), count)
    level = _LEVELS[np.arange(i.size) - np.repeat(np.cumsum(count) - count - first, count)]
    d0, d1 = s[i] - level, s[i + 1] - level
    crossing = d0 * d1 < 0.0
    i, d0, d1 = i[crossing], d0[crossing], d1[crossing]
    cuts = grid[i] + (grid[i + 1] - grid[i]) * (d0 / (d0 - d1))
    edges = np.concatenate((lo[which[live]], hi[which[live]], cuts))
    owner = np.concatenate((live, live, owner[i]))
    order = np.lexsort((edges, owner))
    edges, owner = edges[order], owner[order]
    fresh = np.ones(edges.size, dtype=bool)
    fresh[1:] = (owner[1:] != owner[:-1]) | (edges[1:] != edges[:-1])
    edges, owner = edges[fresh], owner[fresh]
    inner = owner[:-1] == owner[1:]
    return edges[:-1][inner], edges[1:][inner], owner[:-1][inner]


def integrals(terms):
    """For each (integrand f, log_g) of ``terms``, the integrals over (f.lo,
    f.hi) of exp(-exp(log_g[k] + f.log_v(theta))) for every k, and their
    error estimates: two lists of arrays, one array per term.

    The integrand is a smoothed step: ~1 where the exponent s = log_g +
    log_v is very negative and ~0 where it is large, with s monotone in
    theta for the representations used here.  Each point's domain is cut
    where s crosses each of ``_LEVELS`` (see ``_segments``).  The segments
    of ``CHUNK`` points at a time are stacked, and all get the 16- and
    32-point Gauss-Legendre rules in one vectorized evaluation; segments
    where the two disagree by more than ``_QUAD_ABS_TOL`` are bisected and
    evaluated again, the rest keep the 32-point value.  A point's summed
    |GL32 - GL16| over its kept segments is its error estimate.

    Every reduction runs over one point's rows in that point's own order:
    each rule is a sum along one segment's row, and the kept segments are
    added to their point's total one by one (``np.add.at``), so a point's
    value is the same whatever else shares its chunk.
    """
    integrands = [f for f, _ in terms]
    sizes = [g.size for _, g in terms]
    # an empty interval integrates to 0, as does an exponent of +inf
    log_g = np.concatenate([g if f.lo < f.hi else np.full(g.size, np.inf) for f, g in terms])
    which = np.repeat(np.arange(len(terms)), sizes)
    scans = [np.array([f.lo for f in integrands]), np.array([f.hi for f in integrands])]
    scans += [np.stack([f.scan for f in integrands]), np.stack([f.scan_v for f in integrands])]
    total = np.zeros(log_g.size)
    total_err = np.zeros(log_g.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, log_g.size, CHUNK):
            chunk = slice(start, start + CHUNK)
            a, b, owner = _segments(log_g[chunk], which[chunk], integrands, scans)
            if a.size == 0:  # every integrand of the chunk is 0
                continue
            owner += start
            for depth in range(_MAX_BISECTIONS + 1):
                mid = 0.5 * (a + b)
                half = 0.5 * (b - a)
                nodes = mid[:, None] + half[:, None] * _GL_NODES
                f = _exponent(log_g[owner, None], nodes, which[owner], integrands)
                del nodes  # one array fewer alive in the exponentials below
                np.exp(np.negative(np.exp(f, out=f), out=f), out=f)  # exp(-exp(s))
                f *= _GL_WEIGHTS
                coarse = f[:, :16].sum(axis=1) * half
                fine = f[:, 16:].sum(axis=1) * half
                err = np.abs(fine - coarse)
                keep = err <= _QUAD_ABS_TOL
                if depth == _MAX_BISECTIONS:
                    keep[:] = True  # the caller's error budget judges what is left
                np.add.at(total, owner[keep], fine[keep])
                np.add.at(total_err, owner[keep], err[keep])
                if keep.all():
                    break
                fail = ~keep
                a, mid, b, owner = a[fail], mid[fail], b[fail], owner[fail]
                # each point's left halves, then its right halves
                order = np.argsort(np.concatenate((owner, owner)), kind="stable")
                a = np.concatenate((a, mid))[order]
                b = np.concatenate((mid, b))[order]
                owner = np.concatenate((owner, owner))[order]
    cuts = np.cumsum(sizes)[:-1]
    return np.split(total, cuts), np.split(total_err, cuts)
