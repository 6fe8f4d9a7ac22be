"""Investigator weight inference: MAP ascent, grid cross-checks, CSV I/O."""

import numpy as np
import pytest

from mapfuse.grids import GridShape, ProbabilityRaster, regularize
from mapfuse.synth import (InvestigatorSpec, SceneSpec, generate_investigator,
                           generate_scene, uniform_kernel)
import mapfuse.weights
from mapfuse.weights import (WeightEstimate, estimate_weights,
                             load_weights_csv, save_weights_csv)
from mapfuse.weights import _theta_kkt  # noqa: internals
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
    stack = np.stack([m.values.reshape(shape.n_pixels, shape.n_classes)
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
    scattered.append(ProbabilityRaster(scattered[0].shape, regularize(flat)))
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
def test_theta_kkt_reaches_reference_block_maximum(name):
    maps, kappa = _kkt_fixtures()[name]
    start, lin, theta_obj, _ = _theta_problem(maps, kappa)
    ref, ref_value = _theta_newton(start, kappa, lin, theta_obj)
    theta = _theta_kkt(start, kappa, lin)

    assert np.abs(theta.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(theta - ref).max() <= 1e-9
    assert abs(theta_obj(theta) - ref_value) <= 1e-9 * abs(ref_value)
    # KKT stationarity on exact psi: lin_c - G(theta_c) is one multiplier
    # per pixel; measured in u = log theta, the variable the table uses
    r = lin - np.einsum("j,jnc->nc", kappa,
                        psi(kappa[:, None, None] * theta[None, :, :]))
    lam = (theta * r).sum(axis=1, keepdims=True)
    assert np.abs(theta * (r - lam)).max() < 1e-9


def test_fit_stays_within_special_function_budget(monkeypatch):
    """gammaln/psi/trigamma elements per outer iteration <= 10 J*N*C.

    Criterion-5 investigators on a 64x64 scene, so the kappa curvature
    reads its 1024-pixel slice rather than the whole panel. The
    diagonal-Newton solver this replaced spent 23.6 J*N*C here.
    """
    truth = generate_scene(SceneSpec(shape=GridShape(64, 64, 4), n_blobs=8,
                                     class_mix=(0.25,) * 4, seed=2000))
    maps = [generate_investigator(truth, InvestigatorSpec(
        noise_rate=nr, confusion_kernel=uniform_kernel(4), softness=10.0,
        seed=3000 + 13 * i + r))
        for i, nr in enumerate((0.05, 0.2, 0.4)) for r in range(4)]
    evaluated = [0]

    def counting(fn):
        def wrapper(x, *args, **kwargs):
            evaluated[0] += np.size(x)
            return fn(x, *args, **kwargs)
        return wrapper

    for name in ("gammaln", "psi", "_trigamma"):
        monkeypatch.setattr(mapfuse.weights, name,
                            counting(getattr(mapfuse.weights, name)))
    est = estimate_weights(maps)
    panel = len(maps) * truth.shape.n_pixels * 4
    per_iteration = evaluated[0] / (est.iterations * panel)
    assert est.converged
    assert per_iteration <= 10.0, f"{per_iteration:.2f} J*N*C per iteration"


def test_ascent_check_raises_on_reported_decrease(monkeypatch):
    kappa_block = mapfuse.weights._kappa_block

    def losing_block(*args):
        # well past anything the theta block gained in the same iteration
        kappa, terms = kappa_block(*args)
        return kappa, terms - 1e6

    monkeypatch.setattr(mapfuse.weights, "_kappa_block", losing_block)
    with pytest.raises(RuntimeError, match="log-posterior decreased"):
        estimate_weights(_panel((0.1, 0.3), seed=33), seed=1)


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
    noise_map = ProbabilityRaster(shape, regularize(flat))
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
    est = WeightEstimate(kappa=np.array([1.0]), log_posterior=0.0,
                         iterations=1, converged=True, trace=(0.0,))
    with pytest.raises(ValueError, match="one id per investigator"):
        save_weights_csv(est, p, ids=["a", "b"])
