"""Checks for mode classification, boundary models, and channel observables."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxsink import cli, quartic
from fluxsink.channels import (
    REGIME_EPS,
    Custom,
    Elastic,
    ElasticSubcritical,
    ElasticSupercritical,
    Regime,
    ScatteringConfig,
    Sink,
    TotalAbsorption,
    ab_amplitude_closed,
    amplitude,
    amplitudes,
    classify_mode,
    nonregular_modes,
    partial_current,
    physical_coefficients,
    solve_channel,
)
from fluxsink.errors import (
    ConfigError,
    DegenerateModeError,
    ForwardDirectionError,
    IncompleteRangeError,
    ModelRegimeMismatch,
    UnitarityViolation,
)
from fluxsink.scenario import Scenario


def rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def draw_config(rng, gamma_max=3.0):
    # rejection-sample away from regime boundaries
    while True:
        cfg = ScatteringConfig(
            beta=rng.uniform(0.02, 0.98),
            gamma=rng.uniform(0.05, gamma_max),
            p=10 ** rng.uniform(-1, 1),
        )
        bound = max(20, math.ceil(10.0 * cfg.critical_upper))
        try:
            for m in range(-bound, bound + 1):
                classify_mode(cfg, m)
        except DegenerateModeError:
            continue
        return cfg


# ---------------------------------------------------------------- classify


def test_classify_free_regular():
    cfg = ScatteringConfig(beta=0.0, gamma=0.0, p=1.0)
    mode = classify_mode(cfg, 3)
    assert mode.regime == Regime.REGULAR
    assert mode.nu_squared == pytest.approx(9.0)
    assert mode.mu == pytest.approx(3.0)


def test_classify_supercritical():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    mode = classify_mode(cfg, 0)
    assert mode.regime == Regime.SUPERCRITICAL
    assert mode.nu_squared == pytest.approx(-0.16, abs=1e-15)
    assert mode.mu == pytest.approx(0.4, abs=1e-15)


def test_classify_subcritical():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    mode = classify_mode(cfg, 1)
    assert mode.regime == Regime.SUBCRITICAL
    assert mode.nu_squared == pytest.approx(0.24, abs=1e-15)
    assert mode.mu == pytest.approx(math.sqrt(0.24))


def test_classify_degenerate_boundary():
    cfg = ScatteringConfig(beta=0.5, gamma=0.5, p=1.0)
    with pytest.raises(DegenerateModeError):
        classify_mode(cfg, 0)
    with pytest.raises(DegenerateModeError):
        classify_mode(cfg, 1)


def test_free_field_carveout():
    # beta = gamma = 0 must behave as a free particle for every m
    cfg = ScatteringConfig(beta=0.0, gamma=0.0, p=2.0)
    for m in range(-5, 6):
        mode = classify_mode(cfg, m)
        assert mode.regime == Regime.REGULAR
        sol = solve_channel(cfg, mode, Sink())
        assert rel(sol.s_matrix, 1.0) < 1e-14
        assert sol.sigma_abs == 0.0


def test_pure_flux_census():
    # gamma = 0: exactly m in {0, 1} are non-Regular for 0 < beta < 1
    for beta in (0.1, 0.5, 0.9):
        cfg = ScatteringConfig(beta=beta, gamma=0.0, p=1.0)
        assert nonregular_modes(cfg) == [0, 1]
        assert classify_mode(cfg, 0).regime == Regime.SUBCRITICAL
        assert classify_mode(cfg, 1).regime == Regime.SUBCRITICAL
        assert classify_mode(cfg, -1).regime == Regime.REGULAR
        assert classify_mode(cfg, 2).regime == Regime.REGULAR


def test_config_validation():
    with pytest.raises(ConfigError):
        ScatteringConfig(beta=1.0, gamma=0.0, p=1.0)
    with pytest.raises(ConfigError):
        ScatteringConfig(beta=0.2, gamma=-0.1, p=1.0)
    with pytest.raises(ConfigError):
        ScatteringConfig(beta=0.2, gamma=0.1, p=0.0)
    with pytest.raises(ConfigError):
        ScatteringConfig(beta=0.2, gamma=0.1, p=1.0, mass=0.0)


# ------------------------------------------------------------------ solve


def test_regular_smatrix_phase():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    mode = classify_mode(cfg, 4)
    assert mode.regime == Regime.REGULAR
    sol = solve_channel(cfg, mode, Sink())
    want = cmath.exp(1j * math.pi * (4 - mode.mu))
    assert rel(sol.s_matrix, want) < 1e-14
    assert sol.sigma_abs == 0.0
    assert rel(cmath.exp(2j * sol.delta), sol.s_matrix) < 1e-12


def test_sink_sigma_closed_form():
    # mu = 0.4, p = 1: sigma = 1 - e^{-0.8 pi} ~ 0.9190
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    sol = solve_channel(cfg, classify_mode(cfg, 0), Sink())
    want = 1.0 - math.exp(-0.8 * math.pi)
    assert rel(sol.sigma_abs, want) < 1e-14
    assert rel(abs(sol.s_matrix), math.exp(-0.4 * math.pi)) < 1e-13


def test_sink_on_subcritical_is_elastic():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    sol = solve_channel(cfg, classify_mode(cfg, 1), Sink())
    assert sol.sigma_abs == 0.0
    assert abs(abs(sol.s_matrix) - 1.0) < 1e-14


def test_elastic_subcritical_unitary():
    rng = np.random.default_rng(5)
    for _ in range(100):
        cfg = draw_config(rng)
        subs = [m for m in nonregular_modes(cfg)
                if classify_mode(cfg, m).regime == Regime.SUBCRITICAL]
        if not subs:
            continue
        m = subs[rng.integers(len(subs))]
        l = rng.uniform(-50.0, 50.0)
        sol = solve_channel(cfg, classify_mode(cfg, m), ElasticSubcritical(l=l))
        assert abs(abs(sol.s_matrix) - 1.0) <= 1e-10
        assert sol.sigma_abs == 0.0


def test_elastic_subcritical_zero_keeps_regular_branch():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=2.0)
    mode = classify_mode(cfg, 1)
    sol = solve_channel(cfg, mode, ElasticSubcritical(l=0.0))
    want = cmath.exp(1j * math.pi * (1 - mode.mu))
    assert rel(sol.s_matrix, want) < 1e-13


def test_elastic_supercritical_unitary_and_periodic():
    rng = np.random.default_rng(9)
    for _ in range(100):
        cfg = draw_config(rng)
        supers = [m for m in nonregular_modes(cfg)
                  if classify_mode(cfg, m).regime == Regime.SUPERCRITICAL]
        if not supers:
            continue
        m = supers[rng.integers(len(supers))]
        mode = classify_mode(cfg, m)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        s = solve_channel(cfg, mode, ElasticSupercritical(theta=theta)).s_matrix
        assert abs(abs(s) - 1.0) <= 1e-10
        s2 = solve_channel(cfg, mode, ElasticSupercritical(theta=theta + 2.0 * math.pi)).s_matrix
        assert rel(s, s2) < 1e-12
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    with pytest.raises(ModelRegimeMismatch):
        solve_channel(cfg, classify_mode(cfg, 1), ElasticSupercritical(theta=0.0))


def test_elastic_regime_mismatches():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    sup = classify_mode(cfg, 0)
    sub = classify_mode(cfg, 1)
    with pytest.raises(ModelRegimeMismatch):
        solve_channel(cfg, sup, ElasticSubcritical(l=1.0))
    with pytest.raises(ModelRegimeMismatch):
        solve_channel(cfg, sub, ElasticSupercritical(theta=1.0))


def test_total_absorption_window():
    cfg = ScatteringConfig(beta=0.3, gamma=1.2, p=2.5)
    model = TotalAbsorption(n_minus=0, n_plus=1)
    for m in (0, 1):
        sol = solve_channel(cfg, classify_mode(cfg, m), model)
        assert sol.s_matrix == 0
        assert sol.sigma_abs == 1.0 / cfg.p
        assert sol.delta is None
        # windowed-mode amplitude coefficient is fixed by the background
        want = -cmath.exp(-0.25j * math.pi) / cfg.p * math.cos(math.pi * cfg.beta)
        assert rel(sol.f_coeff, want) < 1e-14
    # outside the window: default elastic, zero absorption
    sol = solve_channel(cfg, classify_mode(cfg, -1), model)
    assert sol.sigma_abs == 0.0


def test_total_absorption_rejects_regular_window():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    model = TotalAbsorption(n_minus=3, n_plus=3)
    with pytest.raises(ModelRegimeMismatch):
        solve_channel(cfg, classify_mode(cfg, 3), model)
    with pytest.raises(ConfigError):
        TotalAbsorption(n_minus=-1, n_plus=0)


def test_custom_ratio_and_unitarity_guard():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    sup = classify_mode(cfg, 0)
    # sink-equivalent ratio through the Custom door
    sol = solve_channel(cfg, sup, Custom(ratios={0: math.exp(-2.0 * math.pi * sup.mu)}))
    assert rel(sol.sigma_abs, (1.0 - math.exp(-2.0 * math.pi * sup.mu)) / cfg.p) < 1e-12
    with pytest.raises(UnitarityViolation):
        solve_channel(cfg, sup, Custom(ratios={0: 1.0}))
    with pytest.raises(ConfigError):
        solve_channel(cfg, sup, Custom(ratios={}))


def test_sigma_consistent_with_smatrix():
    rng = np.random.default_rng(13)
    for _ in range(50):
        cfg = draw_config(rng)
        models = [Sink(), TotalAbsorption(), ElasticSupercritical(theta=rng.uniform(0, 2 * math.pi))]
        for m in nonregular_modes(cfg):
            mode = classify_mode(cfg, m)
            model = models[rng.integers(2)] if mode.regime == Regime.SUPERCRITICAL else ElasticSubcritical(l=rng.uniform(-3, 3))
            sol = solve_channel(cfg, mode, model)
            want = (1.0 - abs(sol.s_matrix) ** 2) / cfg.p
            assert abs(sol.sigma_abs - want) <= 1e-12 / cfg.p
            assert -1e-15 <= sol.sigma_abs <= (1.0 + 1e-12) / cfg.p


# ---------------------------------------------------------------- currents


def test_current_zero_for_balanced_subcritical():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    mode = classify_mode(cfg, 1)
    z = cmath.exp(0.7j) * 0.83
    assert partial_current(cfg, mode, z, z * cmath.exp(0.2j), 3.0) == pytest.approx(0.0, abs=1e-16)


def test_current_total_absorption_supercritical():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0, mass=0.5)
    mode = classify_mode(cfg, 0)
    rho = 2.0
    b = 0.6 + 0.3j
    j = partial_current(cfg, mode, 0.0, b, rho)
    want = -(2.0 / (math.pi * cfg.mass * rho)) * abs(b) ** 2 * math.exp(-math.pi * mode.mu)
    assert rel(j, want) < 1e-14
    assert j < 0  # net inflow


def test_current_regular_exact_zero():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    assert partial_current(cfg, classify_mode(cfg, 5), 0.5, 0.5, 1.0) == 0.0


def test_flux_balance_closed_form():
    # p sigma_m = -M (2 pi rho) j_m with physical normalization, any rho
    rng = np.random.default_rng(17)
    for _ in range(50):
        cfg = draw_config(rng)
        for m in nonregular_modes(cfg):
            mode = classify_mode(cfg, m)
            if mode.regime == Regime.SUPERCRITICAL:
                model = [Sink(), TotalAbsorption(n_minus=abs(min(m, 0)), n_plus=max(m, 0))][rng.integers(2)]
            else:
                model = TotalAbsorption(n_minus=abs(min(m, 0)), n_plus=max(m, 0))
            sol = solve_channel(cfg, mode, model)
            ap, bp = physical_coefficients(sol)
            for rho in (1.0 / cfg.p, 10.0 / cfg.p, 100.0 / cfg.p):
                j = partial_current(cfg, mode, ap, bp, rho)
                balance = -cfg.mass * 2.0 * math.pi * rho * j
                assert rel(balance, cfg.p * sol.sigma_abs) < 1e-12


# -------------------------------------------------------------- amplitudes


def test_amplitude_free_field_vanishes():
    cfg = ScatteringConfig(beta=0.0, gamma=0.0, p=1.3)
    sols = [solve_channel(cfg, classify_mode(cfg, m), Sink()) for m in range(-8, 9)]
    for phi in (0.3, 1.0, math.pi, 5.0):
        assert abs(amplitude(cfg, sols, phi)) <= 1e-12


def test_amplitude_pure_flux_backscatter():
    # gamma = 0 with the regular branch: exact closed flux-line amplitude
    for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
        cfg = ScatteringConfig(beta=beta, gamma=0.0, p=2.0)
        sols = [solve_channel(cfg, classify_mode(cfg, m), ElasticSubcritical(l=0.0))
                for m in range(-10, 11)]
        for phi in (math.pi, 2.0, 4.0):
            got = amplitude(cfg, sols, phi)
            want = ab_amplitude_closed(cfg, phi)
            assert rel(got, want) < 1e-12
        want_mag = math.sin(math.pi * beta) / math.sqrt(2.0 * math.pi * cfg.p)
        assert rel(abs(amplitude(cfg, sols, math.pi)), want_mag) < 1e-12


def test_amplitude_forward_exclusion():
    cfg = ScatteringConfig(beta=0.5, gamma=0.0, p=1.0)
    sols = [solve_channel(cfg, classify_mode(cfg, m), ElasticSubcritical())
            for m in range(-3, 4)]
    for phi in (0.0, 1e-5, -5e-4, 2.0 * math.pi - 1e-5):
        with pytest.raises(ForwardDirectionError):
            amplitude(cfg, sols, phi)
        with pytest.raises(ForwardDirectionError):
            ab_amplitude_closed(cfg, phi)


def test_amplitude_requires_nonregular_modes():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    sols = [solve_channel(cfg, classify_mode(cfg, m), Sink()) for m in (0, 2)]
    with pytest.raises(IncompleteRangeError):
        amplitude(cfg, sols, math.pi)  # m=1 subcritical missing


def test_amplitude_periodicity():
    cfg = ScatteringConfig(beta=0.4, gamma=0.8, p=1.0)
    sols = [solve_channel(cfg, classify_mode(cfg, m), Sink()) for m in range(-6, 7)]
    a1 = amplitude(cfg, sols, 1.1)
    a2 = amplitude(cfg, sols, 1.1 + 2.0 * math.pi)
    assert rel(a1, a2) < 1e-12


# ------------------------------------------------ run-level cross sections


def _phi_grid():
    return np.linspace(0.002, 2.0 * math.pi - 0.002, 721)


def test_cross_sections_sink_example():
    # only m = 0 is supercritical: total equals its sink cross section
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    sols = cfg.solve(range(-5, 6), Sink())
    partial = {s.mode.m: s.sigma_abs for s in sols}
    want = 1.0 - math.exp(-0.8 * math.pi)
    assert rel(sum(partial.values()), want) < 1e-13
    assert partial[1] == 0.0
    assert partial[3] == 0.0
    assert [s.mode.m for s in sols] == list(range(-5, 6))
    assert all(math.isfinite(abs(amplitude(cfg, sols, phi))) for phi in _phi_grid())


def test_cross_sections_partial_bounds():
    cfg = ScatteringConfig(beta=0.3, gamma=2.2, p=0.7)
    win = nonregular_modes(cfg)
    sup = [m for m in win if classify_mode(cfg, m).regime == Regime.SUPERCRITICAL]
    model = TotalAbsorption(n_minus=-min(sup), n_plus=max(sup))
    sols = cfg.solve(range(min(win) - 3, max(win) + 4), model)
    for sol in sols:
        assert 0.0 <= sol.sigma_abs <= 1.0 / cfg.p
        if sol.mode.m in sup:
            assert sol.sigma_abs == 1.0 / cfg.p
    assert rel(sum(s.sigma_abs for s in sols), len(sup) / cfg.p) < 1e-13


def test_cross_sections_incomplete_range(tmp_path):
    cfg = ScatteringConfig(beta=0.3, gamma=2.2, p=1.0)
    with pytest.raises(IncompleteRangeError):
        amplitude(cfg, cfg.solve(range(0, 2), Sink()), math.pi)
    for m_range in ((0, 1), (3, -3)):
        scn = Scenario(cfg, Sink(), m_range, 0, "csv", str(tmp_path))
        with pytest.raises(ConfigError):
            cli.run_scenario(scn, str(tmp_path), "csv")


def test_cross_sections_elastic_all_zero():
    cfg = ScatteringConfig(beta=0.5, gamma=0.0, p=1.0)
    sols = cfg.solve(range(-4, 5), ElasticSubcritical(l=0.7))
    assert all(s.sigma_abs == 0.0 for s in sols)


def test_elastic_picks_the_regime_parameter():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    model = Elastic(l=0.7, theta=1.2)
    for m, regime_model in ((0, ElasticSupercritical(theta=1.2)), (1, ElasticSubcritical(l=0.7))):
        mode = classify_mode(cfg, m)
        assert solve_channel(cfg, mode, model) == solve_channel(cfg, mode, regime_model)
    with pytest.raises(TypeError):
        Elastic(0.3)  # keyword-only: a bare number names no parameter


def _bits(z):
    return float(z.real).hex(), float(z.imag).hex()


@pytest.mark.parametrize(
    "cfg,model",
    [
        (ScatteringConfig(beta=0.3, gamma=1.5, p=1.0), Elastic(l=0.7, theta=1.2)),
        (quartic.QuarticConfig(beta=0.3, lam=2.0, p=1.0), Sink()),
    ],
    ids=["inverse_square", "inverse_quartic"],
)
def test_amplitudes_match_scalar_amplitude_bitwise(cfg, model):
    # the grid pass forms the mode terms once; every value keeps its bits
    sols = cfg.solve(range(-4, 6), model)
    grid = _phi_grid().tolist()
    got = cfg.amplitudes(sols, grid)
    one = amplitude if isinstance(cfg, ScatteringConfig) else quartic.quartic_amplitude
    assert [_bits(f) for f in got] == [_bits(one(cfg, sols, phi)) for phi in grid]


def test_amplitudes_check_the_cone_before_the_modes():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    sols = cfg.solve([0], Sink())  # m = 1 missing
    with pytest.raises(ForwardDirectionError):
        amplitudes(cfg, sols, [math.pi, 0.0])
    with pytest.raises(IncompleteRangeError):
        amplitudes(cfg, sols, [math.pi, 1.0])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    beta=st.floats(0.0, 1.0, exclude_max=True),
    gamma=st.floats(0.0, 8.0),
    log_p=st.floats(-2.0, 2.0),
    edge=st.sampled_from(["none", "gamma", "upper"]),
    log_off=st.floats(-9.0, -3.0),
    below=st.booleans(),
    left=st.booleans(),
    kind=st.sampled_from(["sink", "elastic", "window", "custom"]),
    u=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2.0 * math.pi),
)
def test_inverse_square_unitarity_property(beta, gamma, log_p, edge, log_off, below, left, kind, u, phase):
    # with edge set, one mode sits 1e-9..1e-3 outside REGIME_EPS of that regime edge:
    # |m - beta| = d for m = ceil(d) (left) or -floor(d)
    placed = None
    if edge != "none":
        off = REGIME_EPS + 10.0**log_off
        d = gamma if edge == "gamma" else math.hypot(1.0, gamma)
        d = d - off if below and d > off else d + off
        beta, placed = (math.ceil(d) - d, math.ceil(d)) if left else (d - math.floor(d), -math.floor(d))
    cfg = ScatteringConfig(beta=beta, gamma=gamma, p=10.0**log_p)
    modes = [] if placed is None else [classify_mode(cfg, placed)]
    for m in range(-12, 13):
        try:
            modes.append(classify_mode(cfg, m))
        except DegenerateModeError:  # a drawn beta or gamma put this mode on an edge
            assert m != placed
    nonreg = nonregular_modes(cfg)
    if kind == "sink" or (kind == "window" and not nonreg):  # a window needs non-Regular modes
        model = Sink()
    elif kind == "elastic":
        model = Elastic(l=4.0 * u - 2.0, theta=phase)
    elif kind == "window":
        model = TotalAbsorption(
            n_minus=int(u * max(0, -nonreg[0])), n_plus=int(phase / (2.0 * math.pi) * max(0, nonreg[-1]))
        )
    else:  # |S| <= 1 on every mode: |r| <= 1 (subcritical) or e^{-pi mu} (supercritical)
        ratios = {}
        for mode in modes:
            bound = math.exp(-math.pi * mode.mu) if mode.regime == Regime.SUPERCRITICAL else 1.0
            ratios[mode.m] = u * bound * cmath.exp(1j * (phase + mode.m))
        model = Custom(ratios=ratios)
    for mode in modes:
        sol = solve_channel(cfg, mode, model)
        mod = abs(sol.s_matrix)
        assert mod <= 1.0 + 1e-12
        if kind == "elastic" or mode.regime == Regime.REGULAR:
            assert abs(mod - 1.0) <= 1e-12
        assert sol.sigma_abs >= 0.0
        assert abs(sol.sigma_abs - (1.0 - mod**2) / cfg.p) <= 3e-12 / cfg.p
