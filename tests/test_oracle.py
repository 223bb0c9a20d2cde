"""ODE oracle: propagation accuracy, asymptotic fits, S-matrix extraction."""

import cmath
import hashlib
import math

import numpy as np
import pytest

from fluxsink.channels import (
    Custom,
    ElasticSubcritical,
    ElasticSupercritical,
    PartialMode,
    Regime,
    ScatteringConfig,
    Sink,
    TotalAbsorption,
    classify_mode,
    nonregular_modes,
    solve_channel,
)
from fluxsink.errors import ConfigError, FitDegenerateError, StiffnessError
from fluxsink.oracle import (
    RadialProfile,
    _dop853,
    _kernel,
    _tableau,
    current_spread,
    default_rho_in,
    extract_smatrix,
    init_for_model,
    integrate_radial,
    match_large_rho,
    match_small_rho,
    oracle_smatrix,
    profile_current,
)
from fluxsink.specfun import Order, bessel_j, bessel_j_pair, hankel_pair


def _draw_channel(rng):
    """Random config plus a non-Regular mode and a unitarity-respecting model."""
    while True:
        cfg = ScatteringConfig(
            beta=rng.uniform(0.05, 0.95),
            gamma=rng.uniform(0.1, 3.0),
            p=rng.uniform(0.3, 2.5),
        )
        try:
            modes = nonregular_modes(cfg)
        except Exception:
            continue
        if not modes:
            continue
        m = modes[rng.integers(0, len(modes))]
        try:
            mode = classify_mode(cfg, m)
        except Exception:
            continue
        if mode.mu < 5e-2:
            continue
        kind = rng.integers(0, 5)
        if mode.regime == Regime.SUPERCRITICAL:
            if kind == 0:
                model = Sink()
            elif kind == 1:
                model = ElasticSupercritical(theta=rng.uniform(0.0, 2 * math.pi))
            elif kind == 2:
                model = TotalAbsorption(n_minus=abs(m) + 1, n_plus=abs(m) + 1)
            elif kind == 3:
                r = rng.uniform(0.1, 0.9) * math.exp(-2 * math.pi * mode.mu)
                model = Custom(ratios={m: r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))})
            else:
                model = ElasticSupercritical(theta=0.0)
        else:
            if kind <= 1:
                model = ElasticSubcritical(l=rng.uniform(-2.0, 2.0))
            elif kind == 2:
                model = Sink()  # resolves to the elastic default in this regime
            else:
                r = rng.uniform(0.1, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                model = Custom(ratios={m: r})
        return cfg, mode, model


# ---------------------------------------------------------------------
# propagation against exact solutions
# ---------------------------------------------------------------------


def test_half_order_sinusoid_profile():
    # nu^2 = 1/4 linearizes: R = sin(p rho)/sqrt(rho) exactly.
    cfg = ScatteringConfig(beta=0.5, gamma=0.0, p=1.1)
    mode = classify_mode(cfg, 0)
    assert abs(mode.nu_squared - 0.25) < 1e-15
    p = cfg.p
    rho_in = default_rho_in(cfg)

    def exact(r):
        return math.sin(p * r) / math.sqrt(r)

    def exact_d(r):
        return p * math.cos(p * r) / math.sqrt(r) - 0.5 * math.sin(p * r) / r**1.5

    prof = integrate_radial(
        cfg, mode, (exact(rho_in), exact_d(rho_in)), rho_out=60.0, rho_in=rho_in, tol=1e-10
    )
    for idx in [len(prof.rho_grid) // 2, -1]:
        r = prof.rho_grid[idx]
        assert abs(prof.values[idx] - exact(r)) <= 1e-8 * max(abs(exact(r)), 1e-3)
        assert abs(prof.derivative_values[idx] - exact_d(r)) <= 1e-8


def test_regular_bessel_propagation():
    # Regular mode init reproduces the J_mu shape at rho = 50/p to 1e-8.
    cfg = ScatteringConfig(beta=0.0, gamma=0.0, p=1.0)
    mode = classify_mode(cfg, 2)
    rho_in = default_rho_in(cfg)
    init = init_for_model(cfg, mode, Sink(), rho_in)  # Regular path ignores the model
    prof = integrate_radial(cfg, mode, init, rho_out=50.0, rho_in=rho_in, tol=1e-10)
    order = Order.real(2.0)
    idx = np.searchsorted(prof.rho_grid, 31.0)
    got = prof.values[-1] / prof.values[idx]
    want = bessel_j(order, 50.0) / bessel_j(order, prof.rho_grid[idx])
    assert abs(got / want - 1.0) <= 1e-8


def test_supercritical_sink_profile_matches_series():
    # J_{-i mu} init propagated into the series region stays on that branch.
    cfg = ScatteringConfig(beta=0.3, gamma=1.2, p=0.8)
    mode = classify_mode(cfg, 0)
    rho_in = default_rho_in(cfg)
    init = init_for_model(cfg, mode, Sink(), rho_in)
    prof = integrate_radial(cfg, mode, init, rho_out=6.0 / cfg.p, rho_in=rho_in, tol=1e-10)
    order = Order.imaginary(mode.mu)
    idx = np.searchsorted(prof.rho_grid, 4.0 / cfg.p)
    r = prof.rho_grid[idx]
    j, jd = bessel_j_pair(order, cfg.p * r)
    assert abs(prof.values[idx] - j.conjugate()) <= 1e-9
    assert abs(prof.derivative_values[idx] - cfg.p * jd.conjugate()) <= 1e-9


# ---------------------------------------------------------------------
# the DOP853 kernel against scipy's solve_ivp
# ---------------------------------------------------------------------


def _oracle_stage(stage, regime):
    """(scalar rhs, solve_ivp rhs, t0, t1, y0, t_eval, step-cap scale) as integrate_radial builds them."""
    if regime == Regime.SUPERCRITICAL:
        cfg, m = ScatteringConfig(beta=0.4, gamma=0.8, p=1.3), 0
    else:
        cfg, m = ScatteringConfig(beta=0.3, gamma=0.5, p=0.9), 1
    mode = classify_mode(cfg, m)
    assert mode.regime == regime
    nu2, p2 = mode.nu_squared, cfg.p**2
    rho_in = default_rho_in(cfg)
    r0, d0 = init_for_model(cfg, mode, Sink(), rho_in)
    if stage == "log-radius":
        def rhs(x, r, dr):
            e = math.exp(x)
            return dr, (nu2 - p2 * e * e) * r

        t0, t1 = math.log(rho_in), math.log(2.0 / cfg.p)
        n, y0, scale = max(60, int(40 * (t1 - t0) / math.log(10.0)) + 1), (r0, d0 * rho_in), 1.0
    else:
        def rhs(r, v, dv):
            return dv, -dv / r + (nu2 / (r * r) - p2) * v

        t0, t1 = 2.0 / cfg.p, 100.0 / cfg.p
        n, y0, scale = 700, (0.3 - 1.2j, 0.8 + 0.1j), 1.0 / cfg.p
    return rhs, lambda t, y: list(rhs(t, y[0], y[1])), t0, t1, y0, np.linspace(t0, t1, n), scale


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("regime", [Regime.SUPERCRITICAL, Regime.SUBCRITICAL])
@pytest.mark.parametrize("stage", ["log-radius", "radius"])
def test_dop853_matches_solve_ivp(stage, regime, tol):
    from scipy.integrate import solve_ivp

    rhs, rhs_vec, t0, t1, y0, t_eval, scale = _oracle_stage(stage, regime)
    max_step = min(0.9, 26.5 * tol**0.3) * scale
    y0 = np.asarray(y0, dtype=complex)
    ref = solve_ivp(
        rhs_vec, (t0, t1), y0, method="DOP853", t_eval=t_eval, rtol=tol,
        atol=1e-3 * tol * np.max(np.abs(y0)), max_step=max_step,
    )
    assert ref.success
    vals, ders, nfev = _dop853(rhs, t0, t1, y0, t_eval, tol, max_step, stage)
    assert nfev == ref.nfev  # the same steps, accepted and rejected
    assert len(vals) == len(ders) == len(t_eval)
    assert vals[0] == y0[0] and ders[0] == y0[1]  # t0 is the start state itself
    for got, want in ((vals, ref.y[0]), (ders, ref.y[1])):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert abs(got[-1] - want[-1]) <= 1e-12 * abs(want[-1])  # t1


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_dop853_controller_matches_solve_ivp_across_rejections(tol):
    # no step cap, and a coefficient jump at t = 1.3: the steps there are
    # rejected hard, so MIN_FACTOR, SAFETY and the no-growth-after-a-rejection
    # rule all set the step sequence (the oracle stages, capped, rarely reject)
    from scipy.integrate import solve_ivp

    def rhs(t, r, dr):
        return dr, -(1.0 if t < 1.3 else 400.0) * r

    t_eval = np.linspace(1.0, 2.0, 30)
    y0 = np.array([1.0 + 0.5j, 0.2j])
    ref = solve_ivp(
        lambda t, y: list(rhs(t, y[0], y[1])), (1.0, 2.0), y0, method="DOP853", t_eval=t_eval,
        rtol=tol, atol=1e-3 * tol * np.max(np.abs(y0)),
    )
    vals, ders, nfev = _dop853(rhs, 1.0, 2.0, y0, t_eval, tol, math.inf, "jump")
    assert nfev == ref.nfev
    for got, want in ((vals, ref.y[0]), (ders, ref.y[1])):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_kernel_matches_loop_form_exactly():
    # the generated straight-line stages against the tableau rows summed in
    # a loop from 0j in ascending j, as the kernel's docstring promises
    c, a, e5, e3, d = _tableau()
    step, dense = _kernel()

    def combine(row, k):
        acc = 0j
        for j, w in row:
            acc += w * k[j]
        return acc

    def rhs(t, r, dr):
        return dr, (0.3 - 2.0 * math.sin(t)) * r - 0.1j * dr

    rng = np.random.default_rng(7)
    for _ in range(20):
        t, h = rng.uniform(0.1, 5.0), rng.uniform(1e-3, 0.5)
        r, dr = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        x, y = rhs(t, r, dr)
        kr, kd = [x], [y]
        for s in range(1, 16):  # A row 12 is B; rows 13-15 are the dense-output stages
            yr, yd = r + combine(a[s], kr) * h, dr + combine(a[s], kd) * h
            x, y = rhs(t + c[s] * h, yr, yd)
            kr.append(x)
            kd.append(y)
            if s == 12:
                y_new = (yr, yd)
        got = step(rhs, t, h, r, dr, kr[0], kd[0])
        sums = [combine(row, k) for row in (e5, e3) for k in (kr, kd)]
        assert got == (*y_new, *sums, tuple(kr[:13]), tuple(kd[:13]))
        assert dense(rhs, t, h, r, dr, got[6], got[7]) == [(h * combine(row, kr), h * combine(row, kd)) for row in d]


def test_dop853_non_finite_state_names_the_stage():
    t_eval = np.linspace(1.0, 2.0, 11)

    def blows_up(t, r, dr):
        return dr, (math.inf if t > 1.5 else -1.0) * r

    with pytest.raises(StiffnessError, match="radius stage"):
        _dop853(blows_up, 1.0, 2.0, (1.0, 0.0), t_eval, 1e-8, 0.1, "radius")
    with pytest.raises(StiffnessError, match="log-radius stage produced non-finite values"):
        _dop853(lambda t, r, dr: (dr, -r), 1.0, 2.0, (math.nan, 0.0), t_eval, 1e-8, 0.1, "log-radius")
    cfg = ScatteringConfig(beta=0.4, gamma=0.8, p=1.3)
    with pytest.raises(StiffnessError, match="log-radius stage"):
        integrate_radial(cfg, classify_mode(cfg, 0), (complex(math.nan), 0j), rho_out=10.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-6, 0.0, 1e-11, 1e-2])
def test_oracle_refuses_bad_tolerances(tol):
    cfg = ScatteringConfig(beta=0.4, gamma=0.8, p=1.3)
    mode = classify_mode(cfg, 0)
    with pytest.raises(ConfigError, match="tol"):
        oracle_smatrix(cfg, mode, Sink(), tol=tol)
    with pytest.raises(ConfigError, match="tol"):
        integrate_radial(cfg, mode, (1.0, 0.0), rho_out=10.0, tol=tol)


# ---------------------------------------------------------------------
# small-rho fits
# ---------------------------------------------------------------------


def test_small_rho_recovers_boundary_ratio():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=0.9)
    mode = classify_mode(cfg, 1)
    assert mode.regime == Regime.SUBCRITICAL
    model = ElasticSubcritical(l=0.7)
    rho_in = default_rho_in(cfg)
    prof = integrate_radial(
        cfg, mode, init_for_model(cfg, mode, model, rho_in),
        rho_out=1.0, rho_in=rho_in, tol=1e-9,
    )
    a, b = match_small_rho(prof, mode, cfg)
    assert abs(a / b - 0.7) <= 1e-8


def test_small_rho_pure_branches():
    cfg = ScatteringConfig(beta=0.4, gamma=0.8, p=1.3)
    mode = classify_mode(cfg, 0)
    rho_in = default_rho_in(cfg)
    # sink init is the pure descending branch: B ~ 0
    prof = integrate_radial(
        cfg, mode, init_for_model(cfg, mode, Sink(), rho_in),
        rho_out=1.0, rho_in=rho_in, tol=1e-9,
    )
    a, b = match_small_rho(prof, mode, cfg)
    assert abs(b) <= 1e-6 * abs(a)
    # theta = 0 superposes both branches with equal weight
    prof2 = integrate_radial(
        cfg, mode, init_for_model(cfg, mode, ElasticSupercritical(theta=0.0), rho_in),
        rho_out=1.0, rho_in=rho_in, tol=1e-9,
    )
    a2, b2 = match_small_rho(prof2, mode, cfg)
    assert abs(abs(a2 / b2) - 1.0) <= 1e-6


def test_small_rho_degenerate_order():
    mode = PartialMode(m=0, nu_squared=-1e-8, mu=1e-4, regime=Regime.SUPERCRITICAL)
    cfg = ScatteringConfig(beta=0.5, gamma=0.5, p=1.0)
    rho = np.geomspace(1e-4, 1.0, 200)
    prof = RadialProfile(rho, np.ones_like(rho, dtype=complex), np.zeros_like(rho, dtype=complex))
    with pytest.raises(FitDegenerateError):
        match_small_rho(prof, mode, cfg)


def test_small_rho_grid_too_far_out():
    cfg = ScatteringConfig(beta=0.4, gamma=0.8, p=1.0)
    mode = classify_mode(cfg, 0)
    rho = np.geomspace(0.5, 10.0, 100)
    prof = RadialProfile(rho, np.ones_like(rho, dtype=complex), np.zeros_like(rho, dtype=complex))
    with pytest.raises(ConfigError):
        match_small_rho(prof, mode, cfg)


# ---------------------------------------------------------------------
# large-rho fits and S extraction
# ---------------------------------------------------------------------


def test_pure_outgoing_has_no_ingoing_component():
    cfg = ScatteringConfig(beta=0.4, gamma=0.8, p=1.3)
    mode = classify_mode(cfg, 0)
    rho_in = default_rho_in(cfg)
    order = Order.imaginary(mode.mu)
    h1, h1d = hankel_pair(1, order, cfg.p * rho_in)
    prof = integrate_radial(
        cfg, mode, (h1, cfg.p * h1d), rho_out=100.0 / cfg.p, rho_in=rho_in, tol=1e-9
    )
    c_in, c_out = match_large_rho(prof, cfg, mode)
    assert abs(c_in) <= 1e-6 * abs(c_out)


def test_large_rho_grid_must_reach_window():
    cfg = ScatteringConfig(beta=0.4, gamma=0.8, p=1.0)
    mode = classify_mode(cfg, 0)
    rho = np.linspace(1.0, 40.0, 500)
    vals = np.exp(1j * rho) / np.sqrt(rho)
    prof = RadialProfile(rho, vals, 1j * vals)
    with pytest.raises(ConfigError):
        match_large_rho(prof, cfg, mode)


def test_large_rho_undersampled_window():
    cfg = ScatteringConfig(beta=0.4, gamma=0.8, p=1.0)
    mode = classify_mode(cfg, 0)
    rho = np.linspace(1.0, 100.0, 120)  # ~8 wavelengths in-window, < 20 pts each
    vals = np.exp(1j * rho) / np.sqrt(rho)
    prof = RadialProfile(rho, vals, 1j * vals)
    with pytest.raises(FitDegenerateError):
        match_large_rho(prof, cfg, mode)


def test_large_rho_order_too_large_for_window():
    cfg = ScatteringConfig(beta=0.0, gamma=0.0, p=1.0)
    mode = PartialMode(m=20, nu_squared=400.0, mu=20.0, regime=Regime.REGULAR)
    rho = np.linspace(1.0, 100.0, 4000)
    vals = np.exp(1j * rho) / np.sqrt(rho)
    prof = RadialProfile(rho, vals, 1j * vals)
    with pytest.raises(FitDegenerateError):
        match_large_rho(prof, cfg, mode)


def test_sink_smatrix_magnitude():
    cfg = ScatteringConfig(beta=0.4, gamma=0.8, p=1.3)
    mode = classify_mode(cfg, 0)
    s = oracle_smatrix(cfg, mode, Sink(), tol=1e-6)
    assert abs(abs(s) - math.exp(-math.pi * mode.mu)) <= 1e-5


def test_total_absorption_smatrix_vanishes():
    cfg = ScatteringConfig(beta=0.4, gamma=0.8, p=1.3)
    mode = classify_mode(cfg, 0)
    s = oracle_smatrix(cfg, mode, TotalAbsorption(n_minus=1, n_plus=1), tol=1e-6)
    assert abs(s) <= 1e-5


def test_elastic_oracle_unitary():
    cfg = ScatteringConfig(beta=0.35, gamma=1.1, p=0.9)
    mode = classify_mode(cfg, 1)
    s = oracle_smatrix(cfg, mode, ElasticSupercritical(theta=2.2), tol=1e-6)
    assert abs(abs(s) - 1.0) <= 1e-6


def test_tau_halving_refines_by_four():
    cfg = ScatteringConfig(beta=0.4, gamma=0.8, p=1.3)
    mode = classify_mode(cfg, 0)
    exact = solve_channel(cfg, mode, Sink()).s_matrix
    err = [abs(oracle_smatrix(cfg, mode, Sink(), tol=t) - exact) for t in (2e-6, 1e-6, 5e-7)]
    assert err[0] / err[1] >= 4.0
    assert err[1] / err[2] >= 4.0


# oracle_smatrix at commit fff206d (DOP853 stages summed in loops over the
# tableau rows), as float.hex of (Re S, Im S).  The oracle is the evidence for
# the closed forms, so a change to its kernel must keep every bit.
ORACLE_FROZEN = {
    ("super-sink", 1e-06): ("0x1.d09d3b654f614p-4", "-0x1.948a8fb704966p-25"),
    ("super-sink", 1e-08): ("0x1.d09d2e61fb20fp-4", "-0x1.ce7f2d023726ep-41"),
    ("super-elastic", 1e-06): ("-0x1.cda7726f64d25p-1", "-0x1.bace95074099bp-2"),
    ("super-elastic", 1e-08): ("-0x1.cda772ec23452p-1", "-0x1.bace92ff09f77p-2"),
    ("super-total", 1e-06): ("0x1.a5db5d20f5e3ap-25", "-0x1.b46a11334117cp-25"),
    ("super-total", 1e-08): ("0x1.276e3d94f74a3p-41", "-0x1.d34dd381596f6p-41"),
    ("super-custom", 1e-06): ("0x1.6919ab1e99f47p-4", "-0x1.6919a0b991028p-3"),
    ("super-custom", 1e-08): ("0x1.6919a073ada01p-4", "-0x1.6919a073abe92p-3"),
    ("sub-sink", 1e-06): ("-0x1.03f126da8f1e1p-5", "0x1.ffbdff48f64c9p-1"),
    ("sub-sink", 1e-08): ("-0x1.03f1281169804p-5", "0x1.ffbdff4858667p-1"),
    ("sub-elastic", 1e-06): ("-0x1.e8c3cf8619de8p-1", "-0x1.30fa5aab2a775p-2"),
    ("sub-elastic", 1e-08): ("-0x1.e8c3cf3e862d4p-1", "-0x1.30fa5c7602641p-2"),
    ("sub-total", 1e-06): ("-0x1.06e27836fdd91p-25", "0x1.82ad24be70ddbp-25"),
    ("sub-total", 1e-08): ("0x1.140e045c86bdap-40", "0x1.5990ab20a7df5p-39"),
    ("sub-custom", 1e-06): ("-0x1.a3243fad8b8a4p-2", "0x1.260c571e1f1d5p-2"),
    ("sub-custom", 1e-08): ("-0x1.a3243dba89b18p-2", "0x1.260c572a94b79p-2"),
}
# integrate_radial over [default_rho_in, 100/p] for the same channels at the
# same commit: point count and the first 16 hex digits of the SHA-256 of the
# grid, values and derivative values
PROFILE_FROZEN = {
    ("super-sink", 1e-06): (809, "cfbfa291e33dcf16"),
    ("super-sink", 1e-08): (809, "897f346e26dd4bd9"),
    ("super-elastic", 1e-06): (797, "2adf92431d7dfbef"),
    ("super-elastic", 1e-08): (797, "62c699fc8184fbff"),
    ("super-total", 1e-06): (809, "3490e46455d797d3"),
    ("super-total", 1e-08): (809, "d7f3c83a229fda18"),
    ("super-custom", 1e-06): (797, "a21cbe79a831f7f7"),
    ("super-custom", 1e-08): (797, "10be01a166b78f93"),
    ("sub-sink", 1e-06): (809, "6a76394c5c6dca2f"),
    ("sub-sink", 1e-08): (809, "a7521e5ba389de8f"),
    ("sub-elastic", 1e-06): (797, "ebade7ae8a1d7e7c"),
    ("sub-elastic", 1e-08): (797, "e48f7687161cfeed"),
    ("sub-total", 1e-06): (809, "be04d357abc34dc0"),
    ("sub-total", 1e-08): (809, "f9e13a65b2763db8"),
    ("sub-custom", 1e-06): (797, "7735b37810f8b222"),
    ("sub-custom", 1e-08): (797, "7a7a2a8459cb13ee"),
}


def _frozen_channel(key):
    """(cfg, mode, model) of an ORACLE_FROZEN key: regime-model, p = 0.5 or 2."""
    regime, name = key.split("-")
    beta, gamma, m = (0.4, 0.8, 0) if regime == "super" else (0.3, 0.5, 1)
    cfg = ScatteringConfig(beta=beta, gamma=gamma, p=0.5 if name in ("sink", "total") else 2.0)
    mode = classify_mode(cfg, m)
    assert mode.regime == (Regime.SUPERCRITICAL if regime == "super" else Regime.SUBCRITICAL)
    model = {
        "sink": Sink(),
        "elastic": ElasticSupercritical(theta=2.2) if regime == "super" else ElasticSubcritical(l=0.7),
        "total": TotalAbsorption(n_minus=1, n_plus=1),
        "custom": Custom(ratios={m: (0.01 - 0.02j) if regime == "super" else (0.3 + 0.4j)}),
    }[name]
    return cfg, mode, model


@pytest.mark.parametrize("key, tol", sorted(ORACLE_FROZEN))
def test_oracle_frozen_to_the_bit(key, tol):
    cfg, mode, model = _frozen_channel(key)
    s = oracle_smatrix(cfg, mode, model, tol=tol)
    assert (s.real.hex(), s.imag.hex()) == ORACLE_FROZEN[key, tol]


@pytest.mark.parametrize("key, tol", sorted(PROFILE_FROZEN))
def test_oracle_samples_the_full_profile(key, tol):
    # oracle_smatrix samples only the fit window; the full profile, fitted
    # the same way, must give the same S exactly, and keep its own bits
    cfg, mode, model = _frozen_channel(key)
    rho_in = default_rho_in(cfg)
    prof = integrate_radial(
        cfg, mode, init_for_model(cfg, mode, model, rho_in), rho_out=100.0 / cfg.p, rho_in=rho_in, tol=tol
    )
    assert extract_smatrix(prof, cfg, mode) == oracle_smatrix(cfg, mode, model, tol=tol)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in (prof.rho_grid, prof.values, prof.derivative_values)))
    assert (len(prof.rho_grid), digest.hexdigest()[:16]) == PROFILE_FROZEN[key, tol]


def test_oracle_matches_closed_forms():
    rng = np.random.default_rng(41)
    for _ in range(12):
        cfg, mode, model = _draw_channel(rng)
        want = solve_channel(cfg, mode, model).s_matrix
        got = oracle_smatrix(cfg, mode, model, tol=1e-6)
        assert abs(got - want) <= 1e-5, (cfg, mode, model, got, want)


# ---------------------------------------------------------------------
# currents and profile hygiene
# ---------------------------------------------------------------------


def test_absorbing_current_is_constant():
    rng = np.random.default_rng(43)
    for _ in range(4):
        cfg, mode, model = _draw_channel(rng)
        sol = solve_channel(cfg, mode, model)
        if sol.sigma_abs == 0.0:
            continue
        rho_in = default_rho_in(cfg)
        prof = integrate_radial(
            cfg, mode, init_for_model(cfg, mode, model, rho_in),
            rho_out=100.0 / cfg.p, rho_in=rho_in, tol=1e-8,
        )
        mean, spread = current_spread(prof, cfg.mass)
        assert mean < 0.0  # net flux into the core
        assert spread <= 1e-7


def test_current_sign_and_magnitude_sink():
    cfg = ScatteringConfig(beta=0.4, gamma=0.8, p=1.3)
    mode = classify_mode(cfg, 0)
    rho_in = default_rho_in(cfg)
    prof = integrate_radial(
        cfg, mode, init_for_model(cfg, mode, Sink(), rho_in),
        rho_out=100.0 / cfg.p, rho_in=rho_in, tol=1e-8,
    )
    j = profile_current(prof, cfg.mass)
    # J_{-i mu}: rho Im(conj(R) R')/M = -sinh(pi mu)/(pi M) exactly
    want = -math.sinh(math.pi * mode.mu) / (math.pi * cfg.mass)
    assert np.max(np.abs(j - want)) <= 1e-7 * abs(want)


def test_profile_validation():
    rho = np.array([1.0, 2.0, 2.0])
    with pytest.raises(ConfigError):
        RadialProfile(rho, np.ones(3, dtype=complex), np.ones(3, dtype=complex))
    rho = np.array([1.0, 2.0, 3.0])
    bad = np.array([1.0, np.inf, 1.0], dtype=complex)
    with pytest.raises(StiffnessError):
        RadialProfile(rho, bad, np.ones(3, dtype=complex))


def test_integrate_range_validation():
    cfg = ScatteringConfig(beta=0.4, gamma=0.8, p=1.0)
    mode = classify_mode(cfg, 0)
    with pytest.raises(ConfigError):
        integrate_radial(cfg, mode, (1.0, 0.0), rho_out=0.5, rho_in=1.0)
    # a range too short for either stage would leave no points to fit
    rho_in = default_rho_in(cfg)
    with pytest.raises(ConfigError, match="empty"):
        integrate_radial(cfg, mode, (1.0, 0.0), rho_out=rho_in * (1 + 1e-13), rho_in=rho_in)
    with pytest.raises(ConfigError, match="empty"):
        RadialProfile(np.array([]), np.array([], dtype=complex), np.array([], dtype=complex))
