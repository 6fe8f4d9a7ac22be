"""Investigator weight inference: MAP ascent, grid cross-checks, CSV I/O."""

import math
import threading
import time

import numpy as np
import pytest

from mapfuse.grids import GridShape, ProbabilityRaster, regularize
from mapfuse.synth import (InvestigatorSpec, SceneSpec, generate_investigator,
                           generate_scene, uniform_kernel)
import mapfuse.weights
from mapfuse.weights import (WeightEstimate, estimate_weights,
                             load_weights_csv, save_weights_csv)
from mapfuse.weights import _kappa_newton, _psi_sum, _theta_kkt  # noqa: internals
from scipy.special import gammaln, polygamma, psi

from conftest import make_prob, random_prob


def _panel(noise_levels, seed=20, size=32, softness=10.0):
    spec = SceneSpec(shape=GridShape(size, size, 4), n_blobs=8,
                     class_mix=(0.25, 0.25, 0.25, 0.25), seed=seed)
    truth = generate_scene(spec)
    maps = []
    for i, noise in enumerate(noise_levels):
        inv = InvestigatorSpec(noise_rate=noise,
                               confusion_kernel=uniform_kernel(4),
                               softness=softness, seed=seed + 31 * i + 1)
        maps.append(generate_investigator(truth, inv))
    return maps


def _criterion5_panel():
    """Criterion-5 investigators: four each at noise 0.05, 0.2 and 0.4."""
    truth = generate_scene(SceneSpec(shape=GridShape(64, 64, 4), n_blobs=8,
                                     class_mix=(0.25,) * 4, seed=2000))
    return [generate_investigator(truth, InvestigatorSpec(
        noise_rate=nr, confusion_kernel=uniform_kernel(4), softness=10.0,
        seed=3000 + 13 * i + r))
        for i, nr in enumerate((0.05, 0.2, 0.4)) for r in range(4)]


def _theta_newton(theta, kappa, lin, theta_obj, max_iter=30):
    """Reference theta block maximizer: diagonal Lagrangian Newton.

    Per pixel the objective sum_c [lin_c*theta_c - sum_j logGamma(kappa_j
    theta_c)] is strictly concave on the simplex; a Lagrangian Newton
    step with a diagonal Hessian has the closed form below. Steps are
    backtracked until they both keep theta strictly positive and do not
    lower the per-pixel objective, so the block never regresses. It is
    the oracle for the tabulated KKT step and shares no code with it.
    """
    value = theta_obj(theta)
    for _ in range(max_iter):
        kt = kappa[:, None, None] * theta[None, :, :]
        grad = lin - np.einsum("j,jnc->nc", kappa, psi(kt))
        curv = np.einsum("j,jnc->nc", kappa ** 2, polygamma(1, kt))
        lam = ((grad / curv).sum(axis=1, keepdims=True)
               / (1.0 / curv).sum(axis=1, keepdims=True))
        step = (grad - lam) / curv
        scale = np.ones((theta.shape[0], 1))
        for _ in range(60):
            trial = theta + scale * step
            bad = (trial <= 1e-12).any(axis=1)
            if not bad.any():
                break
            scale[bad] *= 0.5
        trial = trial / trial.sum(axis=1, keepdims=True)
        for _ in range(30):
            trial_value = theta_obj(trial)
            if trial_value >= value:
                break
            scale *= 0.5
            trial = theta + scale * step
            trial = trial / trial.sum(axis=1, keepdims=True)
        else:
            break
        move = np.abs(trial - theta).max()
        theta, value = trial, trial_value
        if move < 1e-10:
            break
    return theta, value


def _theta_problem(maps, kappa):
    """The theta block at fixed kappa on all pixels: start, lin, objective."""
    shape = maps[0].shape
    stack = np.stack([m.values.reshape(shape.n_classes, shape.n_pixels).T
                      for m in maps])
    logp = np.log(stack)
    ev = 1.0 + np.einsum("j,jnc->nc", kappa, stack)
    theta = ev / (shape.n_classes + kappa.sum())
    lin = np.einsum("j,jnc->nc", kappa, logp)

    def theta_obj(t):
        return float((lin * t).sum()
                     - gammaln(kappa[:, None, None] * t[None, :, :]).sum())

    return theta, lin, theta_obj, logp


def _converged_theta(maps, kappa):
    """Rebuild the latent consensus at the returned kappa (all pixels)."""
    theta, lin, theta_obj, logp = _theta_problem(maps, kappa)
    theta, _ = _theta_newton(theta, kappa, lin, theta_obj)
    return theta, logp


def test_planted_ordering_and_grid_cross_check():
    """Noisier investigators get lower kappa, and every returned kappa_j
    sits within one grid step of an independent 1-D log-grid search over
    [0.01, 100] holding the consensus at its converged value."""
    maps = _panel((0.05, 0.20, 0.40))
    est = estimate_weights(maps)           # subsample exceeds the grid: all pixels
    k1, k2, k3 = est.kappa
    assert k1 > k2 > k3
    assert est.converged

    theta, logp = _converged_theta(maps, est.kappa)
    n_pix = theta.shape[0]
    grid = np.exp(np.linspace(np.log(0.01), np.log(100.0), 1000))
    log_step = np.log(grid[1]) - np.log(grid[0])
    for j in range(len(maps)):
        a, b = float((theta * logp[j]).sum()), float(logp[j].sum())
        # investigator j's term of the joint log-posterior at kappa_j = g
        vals = np.array([n_pix * gammaln(g) - gammaln(g * theta).sum()
                         + g * a - b + np.log(g) - g for g in grid])
        best = grid[int(vals.argmax())]
        assert abs(np.log(est.kappa[j]) - np.log(best)) <= log_step * 1.001, \
            f"kappa[{j}]={est.kappa[j]:.4f} vs grid optimum {best:.4f}"


def test_objective_ascends_every_iteration():
    maps = _panel((0.1, 0.3), seed=33)
    est = estimate_weights(maps, seed=1)
    trace = np.asarray(est.trace)
    assert len(trace) == est.iterations
    floors = np.maximum(1.0, np.abs(trace[:-1]))
    assert (np.diff(trace) >= -1e-9 * floors).all()
    assert est.log_posterior == pytest.approx(trace[-1])


def _kkt_fixtures():
    scattered = _panel((0.05, 0.1, 0.15), seed=9)
    flat = np.random.default_rng(99).dirichlet(np.ones(4), size=(32, 32))
    scattered.append(ProbabilityRaster(scattered[0].shape,
                                       regularize(flat.transpose(2, 0, 1))))
    return {
        # first outer iteration: unit kappa, posterior-mean start
        "unit-kappa": (_panel((0.05, 0.20, 0.40)), np.ones(3)),
        # one kappa pinned at the upper bound: a steep G next to a flat one
        "kappa-at-bound": (_panel((0.1, 0.3), seed=33),
                           np.array([1e3, 3.1175645726])),
        "scattered-map": (scattered, np.array([40.0, 25.0, 12.0, 0.7])),
    }


@pytest.mark.parametrize("name", ["unit-kappa", "kappa-at-bound",
                                  "scattered-map"])
def test_theta_kkt_reaches_reference_block_maximum(monkeypatch, name):
    maps, kappa = _kkt_fixtures()[name]
    start, lin, theta_obj, _ = _theta_problem(maps, kappa)
    ref, ref_value = _theta_newton(start, kappa, lin, theta_obj)
    monkeypatch.setattr(mapfuse.weights, "_WORKERS", 1)
    theta, *_ = _theta_kkt(start, kappa, lin)
    monkeypatch.setattr(mapfuse.weights, "_WORKERS", 3)    # pixel blocks
    monkeypatch.setattr(mapfuse.weights, "_MIN_BLOCK", 1)  # of any size
    assert np.array_equal(_theta_kkt(start, kappa, lin)[0], theta)

    assert np.abs(theta.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(theta - ref).max() <= 1e-9
    assert abs(theta_obj(theta) - ref_value) <= 1e-9 * abs(ref_value)
    # KKT stationarity on exact psi: lin_c - G(theta_c) is one multiplier
    # per pixel; measured in u = log theta, the variable the table uses
    r = lin - np.einsum("j,jnc->nc", kappa,
                        psi(kappa[:, None, None] * theta[None, :, :]))
    lam = (theta * r).sum(axis=1, keepdims=True)
    assert np.abs(theta * (r - lam)).max() < 1e-9


def _kappa_newton_reference(kappa0, theta, stats, n_pix):
    """Reference kappa step: every investigator's Newton on u = log kappa in
    lockstep, on exact psi and trigamma over all pixels.

    The gradient's sign change brackets each maximum within the kappa
    bracket; a step leaving its bracket, or taken where the curvature is
    not negative, falls back to bisection. It is the oracle for the
    tabulated kappa step and shares no code with it.
    """
    lo = np.full(kappa0.shape, np.log(1e-3))
    hi = np.full(kappa0.shape, np.log(1e3))
    u = np.clip(np.log(kappa0), lo, hi)
    act = np.arange(u.size)
    for _ in range(100):
        ua = u[act]
        k = np.exp(ua)
        kt = k[:, None, None] * theta[None, :, :]
        du = k * (n_pix * psi(k) - (theta * psi(kt)).sum(axis=(1, 2))
                  + stats[act] + 1.0 / k - 1.0)
        lo[act] = np.where(du > 0, ua, lo[act])
        hi[act] = np.where(du <= 0, ua, hi[act])
        d2u = du + k ** 2 * (n_pix * polygamma(1, k)
                             - (theta ** 2 * polygamma(1, kt)).sum(axis=(1, 2))
                             - 1.0 / k ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = ua - du / d2u
        usable = (d2u < 0) & (newton > lo[act]) & (newton < hi[act])
        u_new = np.where(usable, newton, 0.5 * (lo[act] + hi[act]))
        u[act] = u_new
        act = act[np.abs(u_new - ua) >= 1e-12]
        if act.size == 0:
            break
    return np.clip(np.exp(u), 1e-3, 1e3)


def _kappa_problem(name):
    """A kappa step's inputs: the start, the block-maximal theta there, the
    investigators' stats and the pixel count."""
    fixtures = _kkt_fixtures()
    # starts far from every root, on either side: the table must widen
    fixtures["far-below"] = (fixtures["unit-kappa"][0], np.full(3, 1e-3))
    fixtures["far-above"] = (fixtures["scattered-map"][0], np.full(4, 1e3))
    maps, kappa = fixtures[name]
    start, lin, _, logp = _theta_problem(maps, kappa)
    theta, *_ = _theta_kkt(start, kappa, lin)
    return kappa, theta, (theta * logp).sum(axis=(1, 2)), theta.shape[0]


@pytest.mark.parametrize("name", ["unit-kappa", "kappa-at-bound", "scattered-map",
                                  "far-below", "far-above"])
def test_kappa_step_matches_the_lockstep_reference(monkeypatch, name):
    problem = _kappa_problem(name)
    tables = []

    def recording(theta, lo, hi):
        tables.append((lo, hi))
        return _psi_sum(theta, lo, hi)

    monkeypatch.setattr(mapfuse.weights, "_psi_sum", recording)
    kappa, _ = _kappa_newton(*problem)
    ref = _kappa_newton_reference(*problem)
    assert np.abs(kappa / ref - 1.0).max() <= 1e-10
    # the far starts tabulate once on [u - 2, u + 2] and once widened
    assert len(tables) == (2 if name.startswith("far") else 1)
    assert tables[-1][0] <= np.log(ref.min()) and np.log(ref.max()) <= tables[-1][1]


@pytest.mark.parametrize("name", ["unit-kappa", "scattered-map", "far-below"])
def test_psi_sum_table_matches_exact_sum(name):
    """H(u) = sum theta psi(e^u theta) and dH/du against their exact sums
    at random points, relative to the largest magnitude there: on the
    widened interval H crosses zero, where no pointwise relative bound
    can hold."""
    kappa, theta, _, _ = _kappa_problem(name)
    lo = max(np.log(kappa.min()) - 2.0, np.log(1e-3))
    hi = np.log(1e3) if name.startswith("far") else np.log(kappa.max()) + 2.0
    h, dh, _ = _psi_sum(theta, lo, hi)
    u = np.random.default_rng(5).uniform(lo, hi, 200)
    kt = np.exp(u)[:, None, None] * theta
    exact = (theta * psi(kt)).sum(axis=(1, 2))
    assert np.abs(h(u) - exact).max() <= 1e-12 * np.abs(exact).max()
    exact_du = (theta * kt * polygamma(1, kt)).sum(axis=(1, 2))
    assert np.abs(dh(u) - exact_du).max() <= 1e-12 * np.abs(exact_du).max()


@pytest.mark.parametrize("widened", [False, True], ids=["fit-table", "widened"])
@pytest.mark.parametrize("name", ["unit-kappa", "kappa-at-bound", "scattered-map"])
def test_table_integral_matches_exact_log_gamma_sums(name, widened):
    """L(c) - L(k) = sum logGamma(c theta) - sum logGamma(k theta), from the
    table's integral of e^u H, against math.fsum of the exact sums, for
    kappa pairs spread over the table: the one the fit would build, or one
    widened to the whole kappa bracket. The bound is relative to the
    largest |L| on the table's ends and the pair, which sets the
    interpolant's rounding: L(k) alone passes near zero (682 at kappa 3.4
    on the widened unit-kappa table, against 4e6 at kappa 1e3)."""
    kappa, theta, _, _ = _kappa_problem(name)
    lo, hi = ((np.log(1e-3), np.log(1e3)) if widened else
              np.clip([np.log(kappa.min()) - 2.0, np.log(kappa.max()) + 2.0],
                      np.log(1e-3), np.log(1e3)))
    *_, big_l = _psi_sum(theta, lo, hi)

    def exact(k):
        return math.fsum(gammaln(k * theta).ravel())

    ends = max(abs(exact(np.exp(lo))), abs(exact(np.exp(hi))))
    for k, c in np.exp(np.random.default_rng(8).uniform(lo, hi, (40, 2))):
        want = exact(c) - exact(k)
        got = big_l(np.log(c)) - big_l(np.log(k))
        assert abs(got - want) <= 1e-13 * max(abs(exact(k)), abs(exact(c)), ends)


def test_theta_table_log_gamma_sums_match_exact_sums():
    """sum F at the new theta and at the given one, F(t) = sum_j
    logGamma(kappa_j t) from the theta table's quintic pieces, against
    math.fsum of the exact terms: each fixture's theta solved at its own
    kappa and at both ends of the kappa bracket. At kappa 1e3 some new
    elements fall below the table, where exact gammaln takes over. The
    bound is relative to the sum of |logGamma| terms."""
    below = 0
    for maps, kappa in _kkt_fixtures().values():
        start, *_ = _theta_problem(maps, kappa)
        for k in (kappa, np.full(kappa.size, 1e-3), np.full(kappa.size, 1e3)):
            _, lin, _, _ = _theta_problem(maps, k)
            theta, f_new, f_start = _theta_kkt(start, k, lin)
            floor = max(np.log(start.min()) - 1.0, np.log(1e-12))
            below += int((np.log(theta) < floor).sum())
            for th, got in ((theta, f_new), (start, f_start)):
                terms = gammaln(k[:, None, None] * th).ravel()
                assert abs(got - math.fsum(terms)) <= 1e-14 * math.fsum(np.abs(terms))
    assert below > 0


@pytest.mark.parametrize("name", ["unit-kappa", "kappa-at-bound", "scattered-map"])
def test_kappa_block_refuses_a_candidate_whose_exact_term_falls(monkeypatch, name):
    """Moved 5% off each investigator's optimum, every candidate's exact
    term falls by more than 1e-8, and the table's delta refuses it; from
    there the Newton kappa is kept, with a gain that tracks the exact one."""
    kappa, theta, stats, n_pix = _kappa_problem(name)
    best, _ = _kappa_newton(kappa, theta, stats, n_pix)
    off = best * np.where(np.arange(best.size) % 2, 1.05, 0.95)

    def exact(k):
        return mapfuse.weights._objective_all(k, theta, stats, np.zeros(k.size), n_pix)

    assert (exact(off) < exact(best) - 1e-8).all()
    newton = mapfuse.weights._kappa_newton
    with monkeypatch.context() as patch:
        patch.setattr(mapfuse.weights, "_kappa_newton",
                      lambda *args: (off, newton(*args)[1]))
        kept, gain = mapfuse.weights._kappa_block(best, theta, stats, n_pix)
    assert np.array_equal(kept, best) and gain == 0.0
    kept, gain = mapfuse.weights._kappa_block(off, theta, stats, n_pix)
    assert np.abs(kept / best - 1.0).max() <= 1e-10
    rise = math.fsum(exact(kept)) - math.fsum(exact(off))
    assert abs(gain - rise) <= 1e-12 * np.abs(exact(kept)).sum()


def test_fit_stays_within_special_function_budget(monkeypatch):
    """gammaln/psi/trigamma elements per outer iteration <= 3.5 J*N*C.

    Criterion-5 investigators on a 64x64 scene; 3.16 was measured with the
    theta step's acceptance on its own table's F and an exact J*N*C
    logGamma pass only at the fit's start and end, 3.99 with the kappa
    step's acceptance on its H table's integral, 4.99 with an exact
    J*N*C logGamma pass deciding that acceptance, 7.89 with the lockstep
    Newton that swept the whole panel each step, and the diagonal-Newton
    solver before it spent 23.6 J*N*C here.
    """
    maps = _criterion5_panel()
    evaluated = []           # appended from every sweep block's thread

    def counting(fn):
        def wrapper(x, *args, **kwargs):
            evaluated.append(np.size(x))
            return fn(x, *args, **kwargs)
        return wrapper

    for name in ("gammaln", "psi", "_trigamma"):
        monkeypatch.setattr(mapfuse.weights, name,
                            counting(getattr(mapfuse.weights, name)))
    est = estimate_weights(maps)
    panel = len(maps) * maps[0].shape.n_pixels * 4
    per_iteration = sum(evaluated) / (est.iterations * panel)
    assert est.converged
    assert per_iteration <= 3.5, f"{per_iteration:.2f} J*N*C per iteration"


def test_two_joint_passes_per_fit(monkeypatch):
    """The theta step decides on its G table's F and the kappa step on its
    H table, so a one-worker fit evaluates the J*N*C objective twice: at
    the start, and at the end for the reported log-posterior."""
    calls = []
    objective = mapfuse.weights._objective_all

    def counting(*args):
        calls.append(args)
        return objective(*args)

    monkeypatch.setattr(mapfuse.weights, "_WORKERS", 1)
    monkeypatch.setattr(mapfuse.weights, "_objective_all", counting)
    est = estimate_weights(_criterion5_panel())
    assert est.iterations >= 3 and len(calls) == 2


def test_log_posterior_is_the_exact_joint_at_the_returned_kappa(monkeypatch):
    """The trace is carried on the sweeps' tables, but the reported
    log-posterior comes from one exact J*N*C pass at the returned kappa
    and the theta kept with it, and agrees with math.fsum of the terms."""
    calls = []
    objective = mapfuse.weights._objective_all

    def recording(*args):
        calls.append(args)
        return objective(*args)

    monkeypatch.setattr(mapfuse.weights, "_WORKERS", 1)
    monkeypatch.setattr(mapfuse.weights, "_objective_all", recording)
    maps = _criterion5_panel()
    est = estimate_weights(maps)
    kappa, theta = calls[-1][:2]
    assert np.array_equal(kappa, est.kappa)
    logp = np.log(np.stack([m.values.reshape(4, -1).T for m in maps]))
    n_pix = theta.shape[0]
    terms = np.concatenate([
        n_pix * gammaln(kappa), -gammaln(kappa[:, None, None] * theta).ravel(),
        kappa * (theta * logp).sum(axis=(1, 2)), -logp.sum(axis=(1, 2)),
        np.log(kappa), -kappa])
    assert est.log_posterior == pytest.approx(math.fsum(terms), rel=1e-14, abs=0)
    assert est.log_posterior == pytest.approx(est.trace[-1], rel=1e-12, abs=0)


@pytest.mark.parametrize("drift, raises", [(0.3e-9, False), (3e-9, True)])
def test_drift_of_the_carried_joint_raises(monkeypatch, drift, raises):
    """Every kappa block's gain overstated by the same amount keeps the
    ascent, since each theta step reads the joint afresh, but leaves the
    carried joint that far from the exact one at the end: within 1e-9
    relative the fit returns, past it it raises."""
    maps = _criterion5_panel()
    shift = drift * abs(estimate_weights(maps).log_posterior)
    kappa_block = mapfuse.weights._kappa_block

    def drifting_block(*args):
        kappa, gain = kappa_block(*args)
        return kappa, gain + shift

    monkeypatch.setattr(mapfuse.weights, "_kappa_block", drifting_block)
    if raises:
        with pytest.raises(RuntimeError, match="drifted from the exact joint"):
            estimate_weights(maps)
    else:
        assert estimate_weights(maps).converged


@pytest.mark.parametrize("problem", [
    pytest.param(lambda: (_criterion5_panel(), 10_000), id="criterion-5"),
    pytest.param(lambda: (_panel((0.05, 0.20, 0.40), size=48), 777),
                 id="subsample-below-grid"),
])
def test_worker_count_leaves_every_bit(monkeypatch, problem):
    """Sweep blocks split rows only, so 1, 2, 3 or more workers than
    investigators give the same bits, down to blocks of one row."""
    maps, subsample = problem()
    monkeypatch.setattr(mapfuse.weights, "_MIN_BLOCK", 1)
    fits = {}
    for workers in (1, 2, 3, 64):
        monkeypatch.setattr(mapfuse.weights, "_WORKERS", workers)
        est = estimate_weights(maps, subsample=subsample)
        fits[workers] = (est.kappa.tobytes(), est.trace, est.iterations,
                         est.log_posterior)
    assert all(fit == fits[1] for fit in fits.values())


@pytest.mark.parametrize("raising", ["calling thread", "pool thread"])
def test_error_in_a_sweep_block_surfaces_from_the_fit(monkeypatch, raising):
    """An error raised in either block surfaces from the fit with its own
    type, and only once the other block, still running, has ended: no sweep
    thread outlives the fit."""
    class Broken(Exception):
        pass

    caller = threading.current_thread()
    other_inside, raised_on, ended = threading.Event(), [], []

    def broken_psi(x, *args, **kwargs):
        # the kappa step's H table, (nodes, N, C), in a block
        if np.ndim(x) == 3 and not raised_on:
            if (threading.current_thread() is caller) == (raising == "calling thread"):
                other_inside.wait(10)
                raised_on.append(threading.current_thread())
                raise Broken("psi broke")
            if not other_inside.is_set():
                other_inside.set()
                time.sleep(0.3)  # still running when the other block raises
                ended.append(threading.current_thread())
        return psi(x, *args, **kwargs)

    monkeypatch.setattr(mapfuse.weights, "_WORKERS", 2)
    monkeypatch.setattr(mapfuse.weights, "psi", broken_psi)
    with pytest.raises(Broken, match="psi broke"):
        estimate_weights(_panel((0.1, 0.3), seed=33), seed=1)
    assert (raised_on[0] is caller) == (raising == "calling thread")
    assert ended
    assert not [t for t in threading.enumerate()
                if t.name.startswith("mapfuse")]


def test_ascent_check_raises_on_reported_decrease(monkeypatch):
    kappa_block = mapfuse.weights._kappa_block

    def losing_block(*args):
        # well past anything the theta block gained in the same iteration
        kappa, gain = kappa_block(*args)
        return kappa, gain - 1e6

    monkeypatch.setattr(mapfuse.weights, "_kappa_block", losing_block)
    with pytest.raises(RuntimeError, match="log-posterior decreased"):
        estimate_weights(_panel((0.1, 0.3), seed=33), seed=1)


def test_squarem_point_lands_on_a_linear_maps_fixed_point():
    # u -> c + 0.47 (u - c): one extrapolation from three iterates is exact
    c = np.array([0.5, 1.5, -0.25])
    us = [np.zeros(3)]
    for _ in range(2):
        us.append(c + 0.47 * (us[-1] - c))
    assert np.abs(mapfuse.weights._squarem_point(*us) - c).max() < 1e-12
    # clipped to the kappa bracket
    far = mapfuse.weights._squarem_point(np.zeros(1), np.full(1, 5.0),
                                         np.full(1, 9.0))
    assert far[0] == mapfuse.weights._LOG_BRACKET[1]
    # v = 0 and alpha = -1 (|r| <= |v|) leave u2 as it is
    flat = np.ones(2)
    assert mapfuse.weights._squarem_point(flat, flat, flat) is None
    assert mapfuse.weights._squarem_point(flat, 2 * flat, flat) is None


def test_squarem_extrapolates_from_the_last_three_kept_points(monkeypatch):
    """Every jump reads the two sweeps since the previous jump's end (or
    the unit-kappa start) and the sweep before them."""
    kept, seen = [np.zeros(12)], []
    kappa_block = mapfuse.weights._kappa_block
    squarem_point = mapfuse.weights._squarem_point

    def recording_block(*args):
        kappa, gain = kappa_block(*args)
        kept.append(np.log(kappa))
        return kappa, gain

    def recording_point(u0, u1, u2):
        seen.append((len(kept), u0, u1, u2))
        return squarem_point(u0, u1, u2)

    monkeypatch.setattr(mapfuse.weights, "_kappa_block", recording_block)
    monkeypatch.setattr(mapfuse.weights, "_squarem_point", recording_point)
    est = estimate_weights(_criterion5_panel())
    assert est.converged and len(seen) >= 2
    for n, *us in seen:
        for got, want in zip(us, kept[n - 3:n]):
            assert np.array_equal(got, want)
    # no jump is rejected on this panel, so every third sweep is a jump
    assert [n for n, *_ in seen] == [3 + 3 * i for i in range(len(seen))]


@pytest.mark.parametrize("maps", [
    pytest.param(lambda: _panel((0.05, 0.20, 0.40)), id="planted-trio"),
    pytest.param(lambda: _panel((0.05, 0.1, 0.15), seed=9), id="consistent-trio"),
    pytest.param(_criterion5_panel, id="criterion-5"),
])
def test_fit_lands_near_the_fit_run_to_1e12(monkeypatch, maps):
    """The 1e-6 stopping rule bounds the last sweep's move, not the
    distance to the fixed point; on these panels the fit still stops
    within 1e-6 relative of the same fit run to a 1e-12 rule."""
    maps = maps()
    est = estimate_weights(maps)
    monkeypatch.setattr(mapfuse.weights, "_KAPPA_RTOL", 1e-12)
    tight = estimate_weights(maps)
    assert tight.converged and tight.iterations > est.iterations
    assert np.abs(est.kappa / tight.kappa - 1).max() <= 1e-6


def test_rejected_jump_keeps_the_ascent_and_records_no_loser(monkeypatch):
    """A jump whose joint loses is dropped: the fit goes on from u2,
    converges, its trace stays monotone, and the losing joint, 1e6 below
    the joint before it, is never recorded."""
    kappa_block = mapfuse.weights._kappa_block
    squarem_point = mapfuse.weights._squarem_point
    jumping, rejected = [False], []

    def marking_point(*us):
        point = squarem_point(*us)
        jumping[0] = point is not None
        return point

    def losing_block(*args):
        kappa, gain = kappa_block(*args)
        if jumping[0]:                 # the jump sweep's kappa block
            jumping[0] = False
            gain = gain - 1e6
            rejected.append(gain)
        return kappa, gain

    maps = _criterion5_panel()
    reference = estimate_weights(maps)
    monkeypatch.setattr(mapfuse.weights, "_squarem_point", marking_point)
    monkeypatch.setattr(mapfuse.weights, "_kappa_block", losing_block)
    est = estimate_weights(maps)
    trace = np.asarray(est.trace)
    assert rejected and est.converged
    assert len(trace) == est.iterations > reference.iterations
    # a recorded loser would drop the monotone trace by about 1e6, more
    # than the whole ascent rises
    assert (np.diff(trace) >= 0).all() and trace[-1] - trace[0] < 1e6
    # a rejected jump still counts as a sweep and records the kept joint
    assert (np.diff(trace) == 0).sum() >= len(rejected)
    assert np.abs(est.kappa / reference.kappa - 1).max() <= 2e-6


def test_duplicated_investigator_gets_equal_weight():
    maps = _panel((0.15, 0.35), seed=5)
    est = estimate_weights([maps[0], maps[0], maps[1]])
    assert abs(est.kappa[0] - est.kappa[1]) <= 1e-6 * max(est.kappa[:2])


def test_scattered_reports_score_below_consistent_investigators():
    # Unreliability here means scatter: pixel vectors drawn i.i.d. from a
    # flat Dirichlet have no relation to the consensus, so no concentration
    # can make them likely.  The panel must stay in the identifiable regime
    # (several soft honest maps): with near-deterministic reports the MAP
    # surface also has self-fit optima where the free per-pixel consensus
    # collapses onto a single investigator, and those are genuine maxima of
    # the objective rather than optimizer failures.
    maps = _panel((0.05, 0.1, 0.15), seed=9, softness=10.0)
    rng = np.random.default_rng(99)
    shape = maps[0].shape
    flat = rng.dirichlet(np.ones(4), size=(shape.height, shape.width))
    noise_map = ProbabilityRaster(shape, regularize(flat.transpose(2, 0, 1)))
    est = estimate_weights(maps + [noise_map])
    assert est.kappa[3] < est.kappa[:3].min()


def test_subsampling_is_seeded_and_bounded():
    maps = _panel((0.1, 0.3), seed=13, size=48)
    a = estimate_weights(maps, subsample=500, seed=4)
    b = estimate_weights(maps, subsample=500, seed=4)
    c = estimate_weights(maps, subsample=500, seed=5)
    assert (a.kappa == b.kappa).all()
    # a different pixel draw moves the objective, if only slightly
    assert not np.array_equal(a.kappa, c.kappa)


def test_validation_errors():
    maps = _panel((0.1, 0.3), seed=2)
    with pytest.raises(ValueError, match="at least two"):
        estimate_weights(maps[:1])
    with pytest.raises(ValueError, match="subsample too small"):
        estimate_weights(maps, subsample=99)
    small = _panel((0.1, 0.3), seed=2, size=16)
    with pytest.raises(ValueError, match="shape mismatch"):
        estimate_weights([maps[0], small[0]])


def test_weights_csv_round_trip(tmp_path):
    est = WeightEstimate(kappa=np.array([1.25, 0.5, 33.125]),
                         log_posterior=-10.0, iterations=3, converged=True,
                         trace=(-12.0, -11.0, -10.0))
    save_weights_csv(est, tmp_path / "w.csv", ids=["a", "b", "c"])
    ids, kappa = load_weights_csv(tmp_path / "w.csv")
    assert ids == ["a", "b", "c"]
    assert (kappa == est.kappa).all()


def test_weights_csv_rejects_bad_content(tmp_path):
    p = tmp_path / "w.csv"
    p.write_text("wrong,header\na,1.0\n")
    with pytest.raises(ValueError, match="header"):
        load_weights_csv(p)
    p.write_text("investigator_id,kappa\na,-2.0\n")
    with pytest.raises(ValueError, match="positive"):
        load_weights_csv(p)
    # the last kappa given for an id must not silently win
    p.write_text("investigator_id,kappa\na,1.0\nb,2.0\na,3.0\n")
    with pytest.raises(ValueError, match="id repeats"):
        load_weights_csv(p)
    est = WeightEstimate(kappa=np.array([1.0]), log_posterior=0.0,
                         iterations=1, converged=True, trace=(0.0,))
    with pytest.raises(ValueError, match="one id per investigator"):
        save_weights_csv(est, p, ids=["a", "b"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_weight_estimate_refuses_a_kappa_not_positive_and_finite(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        WeightEstimate(kappa=np.array([1.0, bad]), log_posterior=0.0,
                       iterations=1, converged=True, trace=(0.0,))


@pytest.mark.parametrize("bad", ["nan", "inf", "0"])
def test_weights_csv_refuses_a_kappa_not_positive_and_finite(tmp_path, bad):
    p = tmp_path / "w.csv"
    p.write_text(f"investigator_id,kappa\na,1.0\nb,{bad}\n")
    with pytest.raises(ValueError, match="positive and finite"):
        load_weights_csv(p)
