"""Investigator confidence weights from a hierarchical Dirichlet model.

Each investigator j is assumed to report p_ij ~ Dirichlet(kappa_j * theta_i)
around the latent per-pixel proportions theta_i, with kappa_j ~ Gamma(2, 1).
Large kappa_j means the investigator's maps concentrate tightly around the
consensus; small kappa_j means diffuse reports. The MAP point estimate is
found by block coordinate ascent, accelerated by SQUAREM:

  theta-step  exact per-pixel maximization of the concave theta block.
              Every pixel and class sees the same scalar function
              F(t) = sum_j logGamma(kappa_j t), so the KKT conditions read
              G(theta_c) = lin_c - lambda with G = F' = sum_j kappa_j
              psi(kappa_j t) strictly increasing (Minka 2000, the psi
              inversion). G and dG/du are tabulated once per sweep
              on a grid in u = log t and inverted by cubic Hermite
              interpolation; only the per-pixel multiplier lambda is then
              solved for, by bracketed Newton from the incoming theta: its
              linearized unit-sum root, each element's table interval
              starting at theta's own. The table costs J * nodes
              special-function calls instead of J * N * C per trial
  kappa-step  per-investigator Newton iteration on u = log kappa,
              safeguarded by bisection within [log 1e-3, log 1e3]. Every
              gradient reads one shared scalar H(kappa) = sum theta
              psi(kappa theta), so each step tabulates H once as a Chebyshev
              interpolant on [min u - m, max u + m], m the last step's
              largest move in u (at least 0.01; 2 at the first step) and
              widened fourfold on a side where a root lies outside it, and
              every Newton runs on that, an investigator's ending with a
              step below 1e-12: 17 to 65 N * C special-function calls per
              step instead of J * N * C per iteration. A new kappa_j is
              kept only if its term does not fall, by L, the table's integral
  SQUAREM     one sweep (theta-step, then kappa-step) is a fixed-point map
              on u = log kappa that converges at a steady linear rate.
              After two sweeps u1 = F(u0) and u2 = F(u1), with r = u1 - u0,
              v = u2 - 2 u1 + u0 and alpha = min(-|r|/|v|, -1), the squared
              extrapolation u0 - 2 alpha r + alpha^2 v, clipped to the
              kappa bracket, gets one sweep of its own: theta solved there,
              then the kappa-step (Varadhan & Roland 2008, Scand. J. Stat.
              35:335-353, step length S3). That jump sweep is kept unless
              its joint is below the joint at u2 by more than the ascent
              check's 1e-9 relative; otherwise the ascent goes on from u2

Every sweep maximizes its theta block and provably improves its kappa
block, and a jump sweep is kept only if it ends no lower than the joint it
replaces, up to that tolerance, so the joint log-posterior ascends and the
iteration lands on a genuine local maximum: at convergence each kappa_j is
the 1-D optimum against the final theta. Each sweep reads its joint from
one table, its kappa step's: L prices every map's sum_nc logGamma(kappa_j
theta_nc) up to one constant, which one exact N * C pass at the first
investigator pins. The recorded trace and the ascent check read that joint.
At the unit-kappa start every map's sum is the first's, so the start joint
takes that one pass alone, and only the end passes over the J * N * C
logGamma terms: it gives the reported log-posterior exactly, and the fit
raises if the last sweep's joint is more than the ascent check's 1e-9
relative from it. Point estimates are all the downstream fusion needs,
which is why no sampler is involved.

Parallel sweeps. The special functions release the GIL, so each of a sweep's
parts runs in up to _WORKERS row blocks of at least _MIN_BLOCK elements on
grids.map_on_cores: theta's stats and the exact joint terms by
investigator, the H table by node, the theta-step's multiplier Newton by
pixel. _WORKERS is grids.CORES, the cores of the CPU affinity. A row's
result depends on that row alone, and each per-row reduction is a sum over
the row's own axes, whose bits do not depend on the block size (einsum's
do); the kappa Newton, its acceptance and the joint read on the
interpolants run on the calling thread. So the fit is bit-identical for any
worker count. Pool threads do not inherit np.errstate, so every errstate
sits in a block's code.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebint
from scipy.fft import dct
from scipy.special import gammaln, psi

from .grids import CORES, _freeze, common_shape, map_on_cores
from .io import write_csv

KAPPA_MIN = 1e-3
KAPPA_MAX = 1e3
_LOG_BRACKET = (np.log(KAPPA_MIN), np.log(KAPPA_MAX))
_THETA_NODES = 1024                 # grid of the G table in u = log theta
_LOG_THETA_FLOOR = np.log(1e-12)
_KAPPA_RTOL = 1e-6                  # stop once a sweep moves no kappa further
_CHEB_TOL = 1e-14                   # last coefficients of the H table, relative
_MAX_INTERVALS = 128                # finest Chebyshev-Lobatto grid of the H table
_WORKERS = CORES                    # blocks per sweep: one per core
_MIN_BLOCK = 4096                   # elements per block: each runs its own Newton loop


def _in_blocks(fn, n, row_size):
    """[fn(rows)] over contiguous slices of range(n), rows of row_size elements,
    one slice per worker of map_on_cores."""
    k = max(1, min(_WORKERS, n, n * row_size // _MIN_BLOCK))
    edges = [n * i // k for i in range(k + 1)]
    return map_on_cores(fn, [slice(a, b) for a, b in zip(edges, edges[1:])], k)


def _trigamma(x):
    """psi'(x) for x > 0: five recurrence steps, then the asymptotic tail.

    scipy's polygamma goes through Hurwitz zeta and is an order of
    magnitude slower than psi on large arrays (14 against 0.7 ms on the
    theta step's 44 x 1024 table), so it is worth the dozen lines.
    Relative error < 1e-8, plenty for Newton curvatures (gradients use
    exact psi).
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for i in range(5):
        out += 1.0 / np.square(x + i)
    inv = 1.0 / (x + 5.0)
    inv2 = inv * inv
    tail = 1.0 + inv * (0.5 + inv * (1.0 / 6.0 + inv2 * (
        -1.0 / 30.0 + inv2 * (1.0 / 42.0 + inv2 * (-1.0 / 30.0)))))
    return out + inv * tail


@dataclass(frozen=True)
class WeightEstimate:
    """Result of the MAP fit: one concentration per investigator."""

    kappa: np.ndarray
    log_posterior: float
    iterations: int
    converged: bool
    trace: tuple    # joint log-posterior at the kept point after every sweep

    def __post_init__(self):
        k = np.asarray(self.kappa, dtype=np.float64)
        if not (np.isfinite(k) & (k > 0)).all():
            raise ValueError("kappa must be positive and finite")
        object.__setattr__(self, "kappa", _freeze(k))
        object.__setattr__(self, "trace", tuple(self.trace))


def _objective_all(kappa, theta, stats, logp_total, n_pix):
    """All J per-investigator objective terms in one pass; returns (J,)."""
    kt = kappa[:, None, None] * theta[None, :, :]
    return (n_pix * gammaln(kappa) - gammaln(kt).sum(axis=(1, 2))
            + kappa * stats - logp_total + np.log(kappa) - kappa)


def _psi_sum(theta, lo, hi):
    """H(u) = sum_nc theta_nc psi(e^u theta_nc) on [lo, hi], in u = log
    kappa, dH/du and L(u) = sum_nc logGamma(e^u theta_nc) up to a constant,
    as Chebyshev interpolants; returns the three evaluators.

    H is evaluated exactly, one node per row of a block, on nested
    Chebyshev-Lobatto grids of 16, 32, ... intervals; the grid doubles
    until its last three coefficients fall below _CHEB_TOL of the largest,
    or it reaches _MAX_INTERVALS. dL/du = e^u H, so L is the integral of
    the interpolant of e^u H on the same nodes (Clenshaw-Curtis).
    """
    def kappa_at(x):
        return np.exp(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)

    def at(x):
        k = kappa_at(x)
        return np.concatenate(_in_blocks(
            lambda rows: (theta * psi(k[rows, None, None] * theta)).sum(axis=(1, 2)),
            x.size, theta.size))

    def coefficients(v):
        c = dct(v, type=1) / (v.size - 1)
        c[[0, -1]] /= 2.0
        return c

    n = 16
    vals = at(np.cos(np.pi * np.arange(n + 1) / n))
    while True:
        c = coefficients(vals)
        if n == _MAX_INTERVALS or np.abs(c[-3:]).max() <= _CHEB_TOL * np.abs(c).max():
            dl = kappa_at(np.cos(np.pi * np.arange(n + 1) / n)) * vals
            return (_series(c, lo, hi), _series(chebder(c, scl=2.0 / (hi - lo)), lo, hi),
                    _series(chebint(coefficients(dl), scl=(hi - lo) / 2.0), lo, hi))
        both = np.empty(2 * n + 1)
        both[::2] = vals            # the old nodes are every other new one
        both[1::2] = at(np.cos(np.pi * np.arange(1, 2 * n, 2) / (2 * n)))
        vals, n = both, 2 * n


def _series(c, lo, hi):
    """u -> sum_k c_k T_k(x), x the image of u in [-1, 1].

    Summed as sum_k c_k cos(k arccos x) in one product: numpy's Chebyshev
    class runs a Python loop per coefficient, and on small panels the
    Newton's evaluations then cost more than the table.
    """
    k = np.arange(c.size)

    def at(u):
        x = np.clip((2.0 * u - lo - hi) / (hi - lo), -1.0, 1.0)
        return np.cos(np.arccos(x)[..., None] * k) @ c

    return at


def _kappa_newton(kappa0, theta, stats, n_pix, margin):
    """Maximize every investigator's 1-D kappa objective on one table.

    Investigator j's gradient in u = log kappa is kappa * (n psi(kappa) -
    H(u) + stats_j + 1/kappa - 1), where only the scalar stats_j is its
    own, so H is tabulated once (_psi_sum) on [min u - margin, max u +
    margin], clipped to the kappa bracket. A side where some gradient does
    not change sign has its margin widened fourfold and H tabulated again.
    Newton steps on u then run on the interpolant, whose derivative gives
    the exact curvature; the gradient's sign change brackets each maximum,
    and a step leaving its bracket (or taken where the curvature is not
    negative) falls back to bisection for that investigator only. A step
    below 1e-12 is taken, in its bracket or not (at the root a sub-ulp step
    leaves u on the end just set), and ends that investigator's iteration.
    Returns the new kappa and the final table's L, whose interval holds
    both every kappa0 and every new kappa.
    """
    u = np.clip(np.log(kappa0), *_LOG_BRACKET)
    margins = np.array([-margin, margin])
    while True:
        ends = np.clip([u.min(), u.max()] + margins, *_LOG_BRACKET)
        h, dh, big_l = _psi_sum(theta, *ends)
        k = np.exp(ends)[:, None]
        du = k * (n_pix * psi(k) - h(ends)[:, None] + stats + 1.0 / k - 1.0)
        # a root lies inside where du > 0 at the lower end and du <= 0 at the upper
        short = np.array([(du[0] <= 0).any(), (du[1] > 0).any()]) & (ends != _LOG_BRACKET)
        if not short.any():
            break
        margins = np.where(short, 4.0 * margins, margins)
    lo, hi = np.full(u.shape, ends[0]), np.full(u.shape, ends[1])
    act = np.arange(u.size)
    for _ in range(100):
        ua = u[act]
        k = np.exp(ua)
        du = k * (n_pix * psi(k) - h(ua) + stats[act] + 1.0 / k - 1.0)
        lo[act] = np.where(du > 0, ua, lo[act])
        hi[act] = np.where(du <= 0, ua, hi[act])
        d2u = du + k ** 2 * (n_pix * _trigamma(k) - dh(ua) / k - 1.0 / k ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = ua - du / d2u
        done = np.abs(newton - ua) < 1e-12      # taken at the root, never bisected
        usable = (d2u < 0) & (done | (newton > lo[act]) & (newton < hi[act]))
        u_new = np.where(usable, newton, 0.5 * (lo[act] + hi[act]))
        u[act] = u_new
        act = act[np.abs(u_new - ua) >= 1e-12]
        if act.size == 0:
            break
    return np.clip(np.exp(u), KAPPA_MIN, KAPPA_MAX), big_l


def _interval(g, y, k):
    """searchsorted(g, y) - 1 clipped to [0, g.size - 2], the k with g[k] < y
    <= g[k + 1] up to the ends of the increasing g: the guess k where it
    holds, searched again only where it does not."""
    wrong = ((k > 0) & (y <= g[k])) | ((k < g.size - 2) & (y > g[k + 1]))
    if wrong.any():
        k = k.copy()
        k[wrong] = np.clip(np.searchsorted(g, y[wrong]) - 1, 0, g.size - 2)
    return k


def _theta_kkt(theta, kappa, lin):
    """Exact theta block maximization through its KKT conditions, started
    from the given theta; returns the new theta.

    Per pixel the objective sum_c [lin_c*theta_c - F(theta_c)], F(t) =
    sum_j logGamma(kappa_j t), is strictly concave on the simplex, and its
    maximum solves G(theta_c) = lin_c - lambda, sum_c theta_c = 1. The
    inverse of G = F' comes from a table on u = log t over [log min(theta)
    - 1, 0], reaching down to a lower bound on every root in the bracket
    (floored at 1e-12); below the table G is extended by its pole, G(t) ~
    -J/t + const. The sum of G^-1(lin_c - lambda) is decreasing and convex
    in lambda, so Newton clipped into the bracket [max lin - G(1), max lin
    - G(1/C)] closes on lambda from the left, a start right of it stepping
    once to its left; bisection backs up any step that leaves the bracket.
    Newton starts at the root of the unit-sum condition linearized at the
    given theta, sum_c w_c (lin_c - G_c) / sum_c w_c, with G_c and w_c = d
    theta_c / dG read at log theta_c on its node interval of the uniform u
    grid, found by arithmetic and also each element's first interval guess.
    Pixels leave the iteration once their Newton step is below 1e-13
    relative. Each element's interval is carried from one iteration to the
    next and searched again (_interval) only where its value has left it.
    """
    n_maps = kappa.size
    g_flat = kappa @ psi(kappa / theta.shape[1])      # G(1/C)
    # psi(x) >= -1/x - euler_gamma puts every root in the bracket above J / gap
    gap = (lin.max(axis=1, keepdims=True) - lin).max() - g_flat - np.euler_gamma * kappa.sum()
    low = min(np.log(theta.min()) - 1.0, np.log(n_maps / gap) if gap > 0 else 0.0)
    u = np.linspace(max(low, _LOG_THETA_FLOOR), 0.0, _THETA_NODES)
    t = np.exp(u)
    kt = kappa[:, None] * t[None, :]
    g = kappa @ psi(kt)                               # G at the nodes
    m = 1.0 / (t * (kappa ** 2 @ _trigamma(kt)))      # du/dG at the nodes
    # cubic Hermite pieces of u(G): u = u_k + s*(b0 + s*(c + s*d)), s in [0, 1]
    dg = np.diff(g)
    b0, b1 = dg * m[:-1], dg * m[1:]
    c = 3.0 * np.diff(u) - 2.0 * b0 - b1
    d = b0 + b1 - 2.0 * np.diff(u)
    # and of G(u): G = g_k + s*(a0 + s*(c_g + s*d_g)), s the node step's share
    a0, a1 = np.diff(u) / m[:-1], np.diff(u) / m[1:]
    c_g, d_g = 3.0 * dg - 2.0 * a0 - a1, a0 + a1 - 2.0 * dg
    pole = g[0] + n_maps / t[0]

    def inverse(y, k):
        """theta = G^-1(y), d theta / dy and the table interval of y,
        elementwise, from a guess k of that interval."""
        k = _interval(g, y, k)
        s = (y - g[k]) / dg[k]
        th = np.exp(u[k] + s * (b0[k] + s * (c[k] + s * d[k])))
        dth = th * (b0[k] + s * (2.0 * c[k] + 3.0 * s * d[k])) / dg[k]
        below = y < g[0]
        th[below] = n_maps / (pole - y[below])
        dth[below] = th[below] ** 2 / n_maps
        return th, dth, k

    def solve(rows):
        """The multiplier Newton and theta for one block of pixels."""
        lin_b = lin[rows]
        top = lin_b.max(axis=1)
        lo, hi = top - g[-1], top - g_flat
        x = np.clip((np.log(theta[rows]) - u[0]) / (u[1] - u[0]), 0.0, u.size - 1.0)
        k = np.minimum(x.astype(np.intp), u.size - 2)   # theta's node interval
        s = x - k
        big_g = g[k] + s * (a0[k] + s * (c_g[k] + s * d_g[k]))
        w = theta[rows] / (a0[k] + s * (2.0 * c_g[k] + 3.0 * s * d_g[k]))  # ~ dtheta/dG
        lam = np.clip((w * (lin_b - big_g)).sum(axis=1) / w.sum(axis=1), lo, hi)
        act = np.arange(lin_b.shape[0])
        for _ in range(100):
            la = lam[act]
            th, dth, k[act] = inverse(lin_b[act] - la[:, None], k[act])
            f = th.sum(axis=1) - 1.0
            lo[act] = np.where(f > 0, la, lo[act])
            hi[act] = np.where(f < 0, la, hi[act])
            with np.errstate(divide="ignore", invalid="ignore"):
                step = f / dth.sum(axis=1)            # f' = -sum dth
            done = np.abs(step) <= 1e-13 * (1.0 + np.abs(la))
            newton = la + step
            inside = (newton > lo[act]) & (newton < hi[act])
            lam[act] = np.where(done | inside, newton, 0.5 * (lo[act] + hi[act]))
            act = act[~done]
            if act.size == 0:
                break
        th, *_ = inverse(lin_b - lam[:, None], k)
        return th / th.sum(axis=1, keepdims=True)

    return np.concatenate(_in_blocks(solve, *theta.shape))


def _kappa_block(kappa, theta, stats, n_pix, margin):
    """kappa step with acceptance on the H table; returns the kept kappa
    and the table's L, whose interval holds every old and kept kappa.

    Investigator j's term moves by delta_j = n [logGamma(c) - logGamma(k)]
    - (L(log c) - L(log k)) + (c - k) stats_j + log(c / k) - (c - k) from
    k to its Newton kappa c, with L from the Newton's own table, so no
    J * N * C pass is needed. j takes c only if delta_j >= 0.
    """
    cand, big_l = _kappa_newton(kappa, theta, stats, n_pix, margin)
    delta = (n_pix * (gammaln(cand) - gammaln(kappa))
             - (big_l(np.log(cand)) - big_l(np.log(kappa)))
             + (cand - kappa) * stats + np.log(cand / kappa) - (cand - kappa))
    return np.where(delta >= 0, cand, kappa), big_l


def _table_joint(kappa, theta, stats, logp_total, n_pix, big_l):
    """The joint log-posterior at (kappa, theta), every map's sum_nc
    logGamma(kappa_j theta_nc) read from big_l, an L whose interval holds
    every kappa: exact up to one constant, pinned by an exact N * C pass at
    the first investigator."""
    u = np.log(kappa)
    lg = float(gammaln(kappa[0] * theta).sum()) + big_l(u) - big_l(u[0])
    return float((n_pix * gammaln(kappa) - lg + kappa * stats - logp_total
                  + u - kappa).sum())


def _squarem_point(u0, u1, u2):
    """The SQUAREM point of three successive sweeps of u = log kappa, clipped
    to the kappa bracket; None when v = 0 or alpha = -1, where it is u2."""
    r, v = u1 - u0, u2 - 2.0 * u1 + u0
    if not v.any():
        return None
    alpha = min(-np.linalg.norm(r) / np.linalg.norm(v), -1.0)
    if alpha == -1.0:
        return None
    return np.clip(u0 - 2.0 * alpha * r + alpha ** 2 * v, *_LOG_BRACKET)


def estimate_weights(maps, subsample: int = 10_000, seed: int = 0) -> WeightEstimate:
    """MAP-fit per-investigator kappa on a seeded pixel subsample.

    The seed governs only which pixels enter the objective; the ascent
    itself is deterministic. Raises on fewer than two maps or a
    subsample below 100 pixels.
    """
    if len(maps) < 2:
        raise ValueError("need at least two maps to compare investigators")
    if subsample < 100:
        raise ValueError(f"subsample too small: {subsample} < 100")
    shape = common_shape(maps)

    n_total = shape.n_pixels
    idx = (np.random.default_rng(seed).choice(n_total, size=subsample, replace=False)
           if subsample < n_total else np.arange(n_total))
    stack = np.empty((len(maps), len(idx), shape.n_classes))
    for m, rows in zip(maps, stack):     # only the subsampled pixels, plane by plane
        for c in range(shape.n_classes):
            np.take(m.values[c].ravel(), idx, out=rows[:, c], mode="clip")
    n_maps, n_pix, _ = stack.shape

    logp = np.log(stack)                      # strictly positive by raster contract
    logp_total = logp.sum(axis=(1, 2))        # per-investigator constant term

    def stats_at(theta):
        """Every investigator's sum of theta * log p."""
        return np.concatenate(_in_blocks(
            lambda rows: (theta * logp[rows]).sum(axis=(1, 2)), n_maps, theta.size))

    margin = 2.0                              # the H table's, at the first step

    def sweep(kappa, theta):
        """One outer sweep: the theta block, then the kappa block; returns the
        new point and its joint on the kappa step's table, and leaves the
        kappa move as the next step's margin."""
        nonlocal margin
        theta = _theta_kkt(theta, kappa, np.einsum("j,jnc->nc", kappa, logp))
        stats = stats_at(theta)
        new, big_l = _kappa_block(kappa, theta, stats, n_pix, margin)
        margin = max(np.abs(np.log(new / kappa)).max(), 0.01)
        return new, theta, _table_joint(new, theta, stats, logp_total, n_pix, big_l)

    kappa = np.ones(n_maps)
    # start from the flat-prior posterior mean at unit kappa
    theta = ((1.0 + np.einsum("j,jnc->nc", kappa, stack))
             / (shape.n_classes + kappa.sum()))
    # at unit kappa every map's sum of logGamma(kappa_j theta) is the first's
    current = _table_joint(kappa, theta, stats_at(theta), logp_total, n_pix,
                           np.zeros_like)
    trace = []
    cycle = [np.log(kappa)]                   # u0, u1, u2 of one SQUAREM step
    converged = False
    for it in range(1, 201):
        kappa_prev, floor = kappa, current - 1e-9 * max(1.0, abs(current))
        jump = None
        if len(cycle) == 3:
            jump, cycle = _squarem_point(*cycle), cycle[2:]
        cand = sweep(kappa if jump is None else np.exp(jump), theta)
        if jump is not None:
            # the jump sweep is kept unless it ends below the ascent check's floor
            if not cand[2] >= floor:
                trace.append(current)           # the ascent goes on from u2
                continue
            cycle = []                          # its end is the next u0
        kappa, theta, new_val = cand
        if not new_val >= floor:
            raise RuntimeError("log-posterior decreased during ascent: "
                               f"{current!r} -> {new_val!r} at iteration {it}")
        current = new_val
        trace.append(current)
        cycle.append(np.log(kappa))

        if np.max(np.abs(kappa - kappa_prev) / kappa_prev) < _KAPPA_RTOL:
            converged = True
            break

    # the one J * N * C logGamma pass: the exact joint at the returned point
    stats = stats_at(theta)
    exact = float(np.concatenate(_in_blocks(
        lambda rows: _objective_all(kappa[rows], theta, stats[rows],
                                    logp_total[rows], n_pix),
        n_maps, theta.size)).sum())
    if not abs(current - exact) <= 1e-9 * max(1.0, abs(exact)):
        raise RuntimeError("table-read log-posterior drifted from the exact joint: "
                           f"{current!r} against {exact!r}")
    return WeightEstimate(kappa=kappa, log_posterior=exact,
                          iterations=it, converged=converged, trace=trace)


def save_weights_csv(estimate: WeightEstimate, path, ids) -> None:
    if len(ids) != len(estimate.kappa):
        raise ValueError("one id per investigator required")
    write_csv(path, ["investigator_id", "kappa"],
              ([i, f"{k:.17g}"] for i, k in zip(ids, estimate.kappa)))


def load_weights_csv(path) -> tuple[list, np.ndarray]:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0].strip() != "investigator_id,kappa":
        raise ValueError(f"malformed weights CSV {path}: expected header "
                         "'investigator_id,kappa'")
    ids, kappas = [], []
    for ln in lines[1:]:
        name, _, val = ln.partition(",")
        try:
            kappas.append(float(val))
        except ValueError as exc:
            raise ValueError(f"malformed weights CSV {path}: bad kappa {val!r}") from exc
        ids.append(name)
    if len(set(ids)) < len(ids):
        raise ValueError(f"malformed weights CSV {path}: an investigator id repeats")
    k = np.asarray(kappas)
    if len(k) == 0 or not (np.isfinite(k) & (k > 0)).all():
        raise ValueError(f"malformed weights CSV {path}: kappa must be positive and finite")
    return ids, k
