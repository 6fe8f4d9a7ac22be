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
              solved for, by bracketed Newton. The same nodes tabulate F
              itself, a quintic Hermite in u from F, F' and F'', so the
              sum of F at the new theta and at the old one comes from the
              table too (exact logGamma only below it). The table costs
              J * nodes special-function calls instead of J * N * C per
              trial, and the new theta is kept only if its joint so read
              is no lower than the old theta's
  kappa-step  per-investigator Newton iteration on u = log kappa,
              safeguarded by bisection within [log 1e-3, log 1e3]. Every
              gradient reads one shared scalar H(kappa) = sum theta
              psi(kappa theta), so each step tabulates H once as a
              Chebyshev interpolant in u, widened where a root lies outside
              it, and every Newton runs on that: about 33 N * C special-
              function calls per step instead of J * N * C per iteration.
              A new kappa_j is kept only if its logGamma term does not
              fall, by a change read from the same table's integral
  SQUAREM     one sweep (theta-step, then kappa-step) is a fixed-point map
              on u = log kappa that converges at a steady linear rate.
              After two sweeps u1 = F(u0) and u2 = F(u1), with r = u1 - u0,
              v = u2 - 2 u1 + u0 and alpha = min(-|r|/|v|, -1), the squared
              extrapolation u0 - 2 alpha r + alpha^2 v, clipped to the
              kappa bracket, gets one sweep of its own: theta solved there,
              then the kappa-step (Varadhan & Roland 2008, Scand. J. Stat.
              35:335-353, step length S3). That jump sweep is kept only if
              its joint is no lower than the joint at u2; otherwise the
              ascent goes on from u2

Every kept sweep either maximizes or provably improves its blocks, or (a
jump) ends no lower than the joint it replaces, so the joint
log-posterior ascends monotonically and the iteration lands on a genuine
local maximum: at convergence each kappa_j is the 1-D optimum against the
final theta. The joint is read from the tables alone, one scalar: each
theta step reads it afresh from the theta table's F, the kappa step adds
its table's change, and the recorded trace and the ascent check read
that. Only the start and the end pass over the J * N * C logGamma terms;
the end pass gives the reported log-posterior exactly, and the fit raises
if the carried joint has drifted from it by more than the ascent check's
1e-9 relative. Point estimates are all the downstream fusion needs, which
is why no sampler is involved.

Parallel sweeps. The special functions release the GIL, so each of a sweep's
parts runs in up to _WORKERS row blocks of at least _MIN_BLOCK elements on
grids.map_on_cores: theta's stats and the exact joint terms by
investigator, the H table by node, the theta-step's multiplier Newton and
sums of F by pixel. _WORKERS is grids.CORES, the cores of the CPU
affinity. A row's result depends on that row alone, and each per-row
reduction is a sum over the row's own axes, whose bits do not
depend on the block size (einsum's do), and the pixels' sums of F are
totalled once the blocks are joined; the kappa Newton and acceptance on
the interpolants run on the calling thread. So the fit is
bit-identical for any worker count. Pool threads do not inherit
np.errstate, so every errstate sits in a block's code.
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


def _kappa_newton(kappa0, theta, stats, n_pix):
    """Maximize every investigator's 1-D kappa objective on one table.

    Investigator j's gradient in u = log kappa is kappa * (n psi(kappa) -
    H(u) + stats_j + 1/kappa - 1), where only the scalar stats_j is its
    own, so H is tabulated once (_psi_sum) on [min u - 2, max u + 2],
    clipped to the kappa bracket. A side where some gradient does not
    change sign is widened to the bracket and H tabulated again. Newton
    steps on u then run on the interpolant, whose derivative gives the
    exact curvature; the gradient's sign change brackets each maximum, and
    a step leaving its bracket (or taken where the curvature is not
    negative) falls back to bisection for that investigator only. An
    investigator whose step falls below 1e-12 leaves the iteration.
    Returns the new kappa and the final table's L, whose interval holds
    both every kappa0 and every new kappa.
    """
    u = np.clip(np.log(kappa0), *_LOG_BRACKET)
    ends = np.clip([u.min() - 2.0, u.max() + 2.0], *_LOG_BRACKET)
    while True:
        h, dh, big_l = _psi_sum(theta, *ends)
        k = np.exp(ends)[:, None]
        du = k * (n_pix * psi(k) - h(ends)[:, None] + stats + 1.0 / k - 1.0)
        # a root lies inside where du > 0 at the lower end and du <= 0 at the upper
        short = np.array([(du[0] <= 0).any(), (du[1] > 0).any()]) & (ends != _LOG_BRACKET)
        if not short.any():
            break
        ends = np.where(short, _LOG_BRACKET, ends)
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
        usable = (d2u < 0) & (newton > lo[act]) & (newton < hi[act])
        u_new = np.where(usable, newton, 0.5 * (lo[act] + hi[act]))
        u[act] = u_new
        act = act[np.abs(u_new - ua) >= 1e-12]
        if act.size == 0:
            break
    return np.clip(np.exp(u), KAPPA_MIN, KAPPA_MAX), big_l


def _theta_kkt(theta, kappa, lin):
    """Exact theta block maximization through its KKT conditions; returns the
    new theta with sum F at it and at the given theta, F(t) = sum_j
    logGamma(kappa_j t).

    Per pixel the objective sum_c [lin_c*theta_c - F(theta_c)] is strictly
    concave on the simplex, and its maximum solves G(theta_c) = lin_c -
    lambda, sum_c theta_c = 1. The inverse of G comes from a table on
    u = log t over [log min(theta) - 1, 0] (floored at 1e-12); below the
    table G is extended by its pole, G(t) ~ -J/t + const. The sum of
    G^-1(lin_c - lambda) is decreasing and convex in lambda, so Newton
    from the lower end of the bracket [max lin - G(1), max lin - G(1/C)]
    closes on lambda from one side; bisection backs up any step that
    leaves the bracket. Pixels leave the iteration once their Newton step
    is below 1e-13 relative.

    The same nodes tabulate F, with dF/du = t G and d2F/du2 = t G + t/m
    from the inversion's own arrays, and F between two nodes is their
    quintic Hermite piece in u, found by arithmetic on the uniform grid;
    elements below the table take exact gammaln. Each pixel block returns
    its pixels' sums, so the totals do not depend on the blocks.
    """
    n_pix, n_cls = theta.shape
    n_maps = kappa.size
    u = np.linspace(max(np.log(theta.min()) - 1.0, _LOG_THETA_FLOOR), 0.0,
                    _THETA_NODES)
    t = np.exp(u)
    kt = kappa[:, None] * t[None, :]
    g = kappa @ psi(kt)                               # G at the nodes
    m = 1.0 / (t * (kappa ** 2 @ _trigamma(kt)))      # du/dG at the nodes
    # cubic Hermite pieces of u(G): u = u_k + s*(b0 + s*(c + s*d)), s in [0, 1]
    dg = np.diff(g)
    b0, b1 = dg * m[:-1], dg * m[1:]
    c = 3.0 * np.diff(u) - 2.0 * b0 - b1
    d = b0 + b1 - 2.0 * np.diff(u)
    pole = g[0] + n_maps / t[0]
    # quintic Hermite pieces of F(u): F = sum_i q_i s^i on node step h
    h = -u[0] / (_THETA_NODES - 1)
    big_f = gammaln(kt).sum(axis=0)
    df, d2f = h * t * g, h * h * (t * g + t / m)
    rise = big_f[1:] - big_f[:-1] - df[:-1] - 0.5 * d2f[:-1]
    slope, bend = df[1:] - df[:-1] - d2f[:-1], d2f[1:] - d2f[:-1]
    q = np.stack([big_f[:-1], df[:-1], 0.5 * d2f[:-1],
                  10.0 * rise - 4.0 * slope + 0.5 * bend,
                  -15.0 * rise + 7.0 * slope - bend,
                  6.0 * rise - 3.0 * slope + 0.5 * bend], axis=-1)

    def inverse(y):
        """theta = G^-1(y) and d theta / dy, elementwise."""
        k = np.clip(np.searchsorted(g, y) - 1, 0, _THETA_NODES - 2)
        s = (y - g[k]) / dg[k]
        th = np.exp(u[k] + s * (b0[k] + s * (c[k] + s * d[k])))
        dth = th * (b0[k] + s * (2.0 * c[k] + 3.0 * s * d[k])) / dg[k]
        below = y < g[0]
        th[below] = n_maps / (pole - y[below])
        dth[below] = th[below] ** 2 / n_maps
        return th, dth

    def f_sums(th):
        """Per-pixel sums of F at th: the quintic on the table, exact below it."""
        x = (np.log(th) - u[0]) / h
        k = np.clip(x.astype(np.intp), 0, _THETA_NODES - 2)
        s = x - k
        p = q[k]
        fh = p[..., 5]
        for i in range(4, -1, -1):
            fh = fh * s + p[..., i]
        below = x < 0.0
        if below.any():
            fh[below] = gammaln(kappa[:, None] * th[below]).sum(axis=0)
        return fh.sum(axis=1)

    g_flat = kappa @ psi(kappa / n_cls)               # G(1/C)

    def solve(rows):
        """The multiplier Newton and theta for one block of pixels, with the
        block's sums of F at the new theta and the given one."""
        lin_b = lin[rows]
        top = lin_b.max(axis=1)
        lo, hi = top - g[-1], top - g_flat
        lam = lo.copy()
        act = np.arange(lin_b.shape[0])
        for _ in range(100):
            la = lam[act]
            th, dth = inverse(lin_b[act] - la[:, None])
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
        th, _ = inverse(lin_b - lam[:, None])
        th /= th.sum(axis=1, keepdims=True)
        return th, f_sums(th), f_sums(theta[rows])

    new, f_new, f_old = map(np.concatenate, zip(*_in_blocks(solve, n_pix, n_cls)))
    return new, float(f_new.sum()), float(f_old.sum())


def _kappa_block(kappa, theta, stats, n_pix):
    """kappa step with acceptance on the H table; returns the kept kappa
    and the joint's change.

    Investigator j's term moves by delta_j = n [logGamma(c) - logGamma(k)]
    - (L(log c) - L(log k)) + (c - k) stats_j + log(c / k) - (c - k) from
    k to its Newton kappa c, with L from the Newton's own table, so no
    J * N * C pass is needed. j takes c only if delta_j >= 0, and the
    joint moves by the sum of the kept delta_j.
    """
    cand, big_l = _kappa_newton(kappa, theta, stats, n_pix)
    delta = (n_pix * (gammaln(cand) - gammaln(kappa))
             - (big_l(np.log(cand)) - big_l(np.log(kappa)))
             + (cand - kappa) * stats + np.log(cand / kappa) - (cand - kappa))
    better = delta >= 0
    return np.where(better, cand, kappa), float(delta[better].sum())


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
            np.take(m.values[c].ravel(), idx, out=rows[:, c])
    n_maps, n_pix, _ = stack.shape

    logp = np.log(stack)                      # strictly positive by raster contract
    logp_total = logp.sum(axis=(1, 2))        # per-investigator constant term

    def stats_at(theta):
        """Every investigator's sum of theta * log p."""
        return np.concatenate(_in_blocks(
            lambda rows: (theta * logp[rows]).sum(axis=(1, 2)), n_maps, theta.size))

    def exact_joint(kappa, theta, stats):
        """The joint log-posterior at (kappa, theta) by one J * N * C pass."""
        return float(np.concatenate(_in_blocks(
            lambda rows: _objective_all(kappa[rows], theta, stats[rows],
                                        logp_total[rows], n_pix),
            n_maps, theta.size)).sum())

    def joint(kappa, stats, f_sum):
        """The joint at kappa for a theta with these stats and sum F."""
        return float((n_pix * gammaln(kappa) + kappa * stats - logp_total
                      + np.log(kappa) - kappa).sum()) - f_sum

    def sweep(kappa, theta, stats, at_jump):
        """One outer sweep: the theta block, kept if its joint on the theta
        table is no lower than the given theta's (always at a jump), then
        the kappa block; returns the kept point and its joint."""
        cand, f_cand, f_held = _theta_kkt(
            theta, kappa, np.einsum("j,jnc->nc", kappa, logp))
        cand_stats = stats_at(cand)
        value, held = joint(kappa, cand_stats, f_cand), joint(kappa, stats, f_held)
        if at_jump or value >= held:
            theta, stats = cand, cand_stats
        else:
            value = held
        kappa, gain = _kappa_block(kappa, theta, stats, n_pix)
        return kappa, theta, stats, value + gain

    kappa = np.ones(n_maps)
    # start from the flat-prior posterior mean at unit kappa
    theta = ((1.0 + np.einsum("j,jnc->nc", kappa, stack))
             / (shape.n_classes + kappa.sum()))
    stats = stats_at(theta)
    current = exact_joint(kappa, theta, stats)   # then carried on the tables
    trace = []
    cycle = [np.log(kappa)]                   # u0, u1, u2 of one SQUAREM step
    converged = False
    it = 0
    for it in range(1, 201):
        kappa_prev = kappa
        jump = None
        if len(cycle) == 3:
            jump, cycle = _squarem_point(*cycle), cycle[2:]
        if jump is None:
            kappa, theta, stats, new_val = sweep(kappa, theta, stats, False)
        else:
            # the jump's theta is always taken; the sweep is kept only if it
            # ends no lower than the joint at u2
            cand = sweep(np.exp(jump), theta, stats, True)
            if not cand[3] >= current:
                trace.append(current)           # the ascent goes on from u2
                continue
            kappa, theta, stats, new_val = cand
            cycle = []                          # its end is the next u0
        if not new_val >= current - 1e-9 * max(1.0, abs(current)):
            raise RuntimeError("log-posterior decreased during ascent: "
                               f"{current!r} -> {new_val!r} at iteration {it}")
        current = new_val
        trace.append(current)
        cycle.append(np.log(kappa))

        if np.max(np.abs(kappa - kappa_prev) / kappa_prev) < _KAPPA_RTOL:
            converged = True
            break

    exact = exact_joint(kappa, theta, stats)
    if not abs(current - exact) <= 1e-9 * max(1.0, abs(exact)):
        raise RuntimeError("carried log-posterior drifted from the exact joint: "
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
