"""Checks for mode classification, boundary models, and channel observables."""

import cmath
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxsink import channels, cli, quartic, specfun
from fluxsink.channels import (
    PHI_MIN,
    REGIME_EPS,
    Custom,
    Elastic,
    ElasticSubcritical,
    ElasticSupercritical,
    PartialMode,
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


def _subcritical_ratio_reference(cfg, mu, l):
    # the ratio as it was written before l == 0 skipped the gamma ratio
    t = l * (0.5 * cfg.p) ** (2.0 * mu) * (
        specfun.complex_gamma(1.0 - mu) / specfun.complex_gamma(1.0 + mu)
    ).real
    ph = cmath.exp(1j * math.pi * mu)
    r = (1.0 + t * ph) / (1.0 + t / ph)
    return r / abs(r)


def test_subcritical_ratio_skips_gamma_only_where_no_bit_moves(monkeypatch):
    # 0 < mu < 1 makes Gamma(1 - mu) / Gamma(1 + mu) positive and finite, so
    # t = l (p/2)^(2 mu) ratio is the signed zero of l at l = +-0.0: skipping
    # the ratio there (a square Sink run's subcritical modes) moves no bit
    calls = []

    def counted(z):
        calls.append(z)
        return specfun.complex_gamma(z)

    def bits(z):
        return z.real.hex(), z.imag.hex()

    monkeypatch.setattr(channels, "complex_gamma", counted)
    for p in (0.3, 1.0, 3.0):
        cfg = ScatteringConfig(beta=0.3, gamma=1.5, p=p)
        for mu in (1e-9, *np.linspace(0.025, 0.975, 39).tolist(), 1.0 - 1e-9):
            mode = PartialMode(m=2, nu_squared=mu * mu, mu=mu, regime=Regime.SUBCRITICAL)
            for l in (0.0, -0.0):
                got = channels._subcritical_ratio_from_l(cfg, mode, l)
                assert bits(got) == bits(_subcritical_ratio_reference(cfg, mu, l)), (p, mu, l)
            assert calls == []
            got = channels._subcritical_ratio_from_l(cfg, mode, 0.7)
            assert calls == [1.0 - mu, 1.0 + mu]
            assert bits(got) == bits(_subcritical_ratio_reference(cfg, mu, 0.7))
            calls.clear()


def test_subcritical_ratio_takes_the_limit_where_the_power_overflows():
    # (p/2)^(2 mu) overflows at huge p; r -> e^{2 i pi mu} as t -> +-inf
    mu = 0.9
    mode = PartialMode(m=2, nu_squared=mu * mu, mu=mu, regime=Regime.SUBCRITICAL)
    limit = cmath.exp(2j * math.pi * mu)
    for l in (0.7, -0.7):
        for p in (1e200, 1e300):
            r = channels._subcritical_ratio_from_l(ScatteringConfig(beta=0.3, gamma=1.5, p=p), mode, l)
            assert abs(r - limit) <= 1e-15 and abs(abs(r) - 1.0) <= 1e-15, (l, p)

        def finite(p):
            try:
                return cmath.isfinite(_subcritical_ratio_reference(ScatteringConfig(beta=0.3, gamma=1.5, p=p), mu, l))
            except (OverflowError, ZeroDivisionError):  # the power, or num / den near t = 1e308
                return False

        # bisect the bit patterns of p for the largest p the unguarded formula survives
        lo, hi = (struct.unpack("<q", struct.pack("<d", p))[0] for p in (1.0, 1e300))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if finite(struct.unpack("<d", struct.pack("<q", mid))[0]) else (lo, mid)
        for bits, p_edge in ((lo, True), (hi, False)):
            p = struct.unpack("<d", struct.pack("<q", bits))[0]
            assert finite(p) is p_edge
            cfg = ScatteringConfig(beta=0.3, gamma=1.5, p=p)
            got = channels._subcritical_ratio_from_l(cfg, mode, l)
            want = _subcritical_ratio_reference(cfg, mu, l) if p_edge else limit
            assert abs(got - want) <= 1e-15 and abs(got - limit) <= 1e-15, (l, p)


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


def _reference_cone(phi):
    # scalar reference: math.fmod reduction of one angle
    w = math.fmod(phi + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    w -= math.pi
    if abs(w) < PHI_MIN:
        raise ForwardDirectionError(f"phi={phi} is inside the excluded forward cone (|phi| < {PHI_MIN})")
    return w


def _reference_ab(cfg, phi):
    # scalar reference: the closed f_AB as one complex expression
    w = _reference_cone(phi)
    c = cmath.exp(-0.25j * math.pi) / math.sqrt(2.0 * math.pi * cfg.p)
    return -c * math.sin(math.pi * cfg.beta) * cmath.exp(0.5j * w) / math.sin(0.5 * w)


def _reference_amplitudes(cfg, solutions, phis):
    # scalar reference: one cmath.exp per (mode, angle), terms added in ascending m
    if isinstance(cfg, ScatteringConfig):
        phis = [_reference_cone(phi) for phi in phis]  # the mode phases see the reduced angle
    c = cmath.exp(-0.25j * math.pi) / math.sqrt(2.0 * math.pi * cfg.p)
    k = -c * math.sin(math.pi * cfg.beta)
    terms = []
    for sol in sorted(solutions, key=lambda s: s.mode.m):
        m = sol.mode.m
        s_ab = cmath.exp((1j if m >= 1 else -1j) * math.pi * cfg.beta)
        terms.append((1j * m, sol.s_matrix - s_ab))
    out = []
    for phi in phis:
        w = _reference_cone(phi)
        acc = 0.0 + 0.0j
        for im, dm in terms:
            acc += dm * cmath.exp(im * phi)
        out.append(c * acc + k * cmath.exp(0.5j * w) / math.sin(0.5 * w))
    return out


def _outcome(fn, *args):
    try:
        got = fn(*args)
    except ForwardDirectionError as exc:
        return "ForwardDirectionError", str(exc)
    return [_bits(f) for f in got] if isinstance(got, list) else _bits(got)


def _cone_edges(centers):
    # angles within 1e-12 of each center, down to one ulp either side
    out = []
    for x in centers:
        for d in (0.0, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12):
            out += [x - d, x + d]
        out += [float(np.nextafter(x, -np.inf)), float(np.nextafter(x, np.inf))]
    return out


REFERENCE_CASES = {
    "square": (ScatteringConfig(beta=0.3, gamma=1.5, p=1.0), Elastic(l=0.7, theta=1.2), range(-12, 13)),
    "square_gamma_0": (ScatteringConfig(beta=0.7, gamma=0.0, p=2.0), Sink(), range(-10, 11)),
    "square_free": (ScatteringConfig(beta=0.0, gamma=0.0, p=1.3), Sink(), range(-5, 6)),
    "square_pm200": (ScatteringConfig(beta=0.45, gamma=2.5, p=0.7), Sink(), range(-200, 201)),
    "square_negative_to_1": (ScatteringConfig(beta=0.3, gamma=0.5, p=3.0), Sink(), range(-200, 2)),
    "square_0_to_200": (ScatteringConfig(beta=0.9, gamma=0.2, p=0.2), Elastic(l=-1.5), range(0, 201)),
    "quartic": (quartic.QuarticConfig(beta=0.3, lam=2.0, p=1.0), Sink(), range(-6, 7)),
    "quartic_beta_0": (quartic.QuarticConfig(beta=0.0, lam=1.0, p=1.5), Elastic(theta=0.5), range(-5, 6)),
}


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_amplitude_grid_matches_the_complex_loop_bitwise(case):
    # the float64 array pass does the complex loop's IEEE operations in its order
    cfg, model, ms = REFERENCE_CASES[case]
    sols = cfg.solve(ms, model)
    rng = np.random.default_rng(2026)
    draws = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 300).tolist()
    if isinstance(cfg, quartic.QuarticConfig):  # raw angles up to and past 2 pi
        draws = rng.uniform(PHI_MIN, 5.0 * math.pi, 300).tolist()
    draws = [phi for phi in draws if abs(math.remainder(phi, 2.0 * math.pi)) > 2.0 * PHI_MIN]
    grid = _phi_grid().tolist() + draws
    assert _outcome(cfg.amplitudes, sols, grid) == _outcome(_reference_amplitudes, cfg, sols, grid)
    edges = _cone_edges([PHI_MIN, -PHI_MIN, math.pi, -math.pi, 2.0 * math.pi - PHI_MIN, 2.0 * math.pi + PHI_MIN])
    outcomes = [_outcome(cfg.amplitudes, sols, [phi]) for phi in edges]
    assert outcomes == [_outcome(_reference_amplitudes, cfg, sols, [phi]) for phi in edges]
    assert any(isinstance(o, list) for o in outcomes) and any(isinstance(o, tuple) for o in outcomes)


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 0.999])
def test_ab_amplitude_closed_matches_the_closed_formula_bitwise(beta):
    cfg = ScatteringConfig(beta=beta, gamma=0.0, p=0.8)
    rng = np.random.default_rng(7)
    phis = rng.uniform(-10.0, 10.0, 200).tolist() + _cone_edges([PHI_MIN, -PHI_MIN, math.pi])
    for phi in phis:
        assert _outcome(ab_amplitude_closed, cfg, phi) == _outcome(_reference_ab, cfg, phi)


def _squares(cfg, solutions, phis):
    # what a run wrote before the float pair: Python's abs and ** 2 per complex value
    return [abs(f) ** 2 for f in cfg.amplitudes(solutions, phis)]


def _float_outcome(fn, *args):
    try:
        return [float(x).hex() for x in fn(*args)]
    except ForwardDirectionError as exc:
        return "ForwardDirectionError", str(exc)


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_differential_is_abs_squared_of_the_amplitudes_bitwise(case):
    # np.hypot then np.float_power(x, 2.0) repeat abs(complex) and float ** 2 bit for bit,
    # including the ranges where -m has no +m partner (-200..1, 0..200) and both phase conventions
    cfg, model, ms = REFERENCE_CASES[case]
    sols = cfg.solve(ms, model)
    rng = np.random.default_rng(29)
    draws = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 300).tolist()
    if isinstance(cfg, quartic.QuarticConfig):
        draws = rng.uniform(PHI_MIN, 5.0 * math.pi, 300).tolist()
    draws = [phi for phi in draws if abs(math.remainder(phi, 2.0 * math.pi)) > 2.0 * PHI_MIN]
    grid = _phi_grid().tolist() + draws
    assert _float_outcome(cfg.differential, sols, grid) == _float_outcome(_squares, cfg, sols, grid)
    edges = _cone_edges([PHI_MIN, -PHI_MIN, math.pi, -math.pi, 2.0 * math.pi - PHI_MIN, 2.0 * math.pi + PHI_MIN])
    outcomes = [_float_outcome(cfg.differential, sols, [phi]) for phi in edges]
    assert outcomes == [_float_outcome(_squares, cfg, sols, [phi]) for phi in edges]
    assert any(isinstance(o, list) for o in outcomes) and any(isinstance(o, tuple) for o in outcomes)


def test_differential_checks_the_cone_before_the_modes():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    sols = cfg.solve([0], Sink())  # m = 1 missing
    with pytest.raises(ForwardDirectionError):
        cfg.differential(sols, [math.pi, 0.0])
    with pytest.raises(IncompleteRangeError):
        cfg.differential(sols, [math.pi, 1.0])


def test_float64_cos_is_even_and_sin_odd_bitwise():
    # a precondition of the host, not of the package: _amplitude_grid hands the cos and sin
    # of mode -m to +m, which keeps the golden bytes only where these hold bit for bit
    grid = _phi_grid()
    for m in range(1, 301):
        assert (float(-m) * grid == -(float(m) * grid)).all()
    y = np.concatenate([np.outer(np.arange(1.0, 301.0), grid).ravel(),
                        np.random.default_rng(29).uniform(-1e4, 1e4, 200_000)])
    cos_bad = np.count_nonzero(np.cos(-y).view(np.int64) != np.cos(y).view(np.int64))
    sin_bad = np.count_nonzero(np.sin(-y).view(np.int64) != (-np.sin(y)).view(np.int64))
    assert cos_bad == sin_bad == 0, (
        f"precondition failed on this host: numpy's float64 cos is not even ({cos_bad} of {y.size})"
        f" or sin not odd ({sin_bad}) bit for bit, so the +-m sharing moves the amplitude's bits"
    )


def test_amplitude_pass_holds_at_most_the_pair_budget(monkeypatch):
    # without a budget, 5000 held (cos, sin) pairs at 721 angles peaked at ~58 MB
    cfg = ScatteringConfig(beta=0.3, gamma=1.5, p=1.0)
    sols = cfg.solve(range(-5000, 5001), Sink())
    grid = _phi_grid()

    def traced(budget):
        monkeypatch.setattr(channels, "PAIR_BUDGET", budget)
        tracemalloc.start()
        try:
            return cfg.differential(sols, grid), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    budget = channels.PAIR_BUDGET
    shared, peak = traced(budget)
    alone, base = traced(0)  # nothing held: every mode computes its own cos and sin
    assert shared.tobytes() == alone.tobytes()
    assert peak <= base + 8 * budget, (peak, base)


def _amplitude_calls():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    sols = cfg.solve(range(-3, 4), Sink())
    qcfg = quartic.QuarticConfig(beta=0.3, lam=2.0, p=1.0)
    qsols = qcfg.solve(range(-2, 3), Sink())
    return {
        "amplitudes": lambda phi: amplitudes(cfg, sols, [1.0, phi]),
        "amplitude": lambda phi: amplitude(cfg, sols, phi),
        "ab_amplitude_closed": lambda phi: ab_amplitude_closed(cfg, phi),
        "quartic_amplitudes": lambda phi: qcfg.amplitudes(qsols, [1.0, phi]),
        "quartic_amplitude": lambda phi: quartic.quartic_amplitude(qcfg, qsols, phi),
        "differential": lambda phi: cfg.differential(sols, [1.0, phi]),
        "quartic_differential": lambda phi: qcfg.differential(qsols, [1.0, phi]),
    }


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("call", ["amplitudes", "amplitude", "ab_amplitude_closed", "quartic_amplitudes", "quartic_amplitude",
                                  "differential", "quartic_differential"])
def test_non_finite_angle_is_a_config_error(call, phi):
    # neither a bare "math domain error" (inf) nor a silent nan+nanj (nan)
    with pytest.raises(ConfigError, match=f"^phi={phi} must be finite$"):
        _amplitude_calls()[call](phi)


def test_non_finite_angle_is_named_before_the_cone_and_the_modes():
    cfg = ScatteringConfig(beta=0.3, gamma=0.5, p=1.0)
    sols = cfg.solve([0], Sink())  # m = 1 missing
    with pytest.raises(ConfigError, match="phi=nan"):
        amplitudes(cfg, sols, [0.0, math.nan])


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
