"""rho^-4 channel: connection matrices, boundary models, absorbed windows."""

import cmath
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxsink import quartic
from fluxsink.errors import ConfigError, FitDegenerateError
from fluxsink.channels import Custom
from fluxsink.quartic import (
    ConnectionMatrix,
    Elastic,
    QuarticConfig,
    Sink,
    TotalAbsorption,
    backward_defect,
    capture_probability,
    connection_matrices,
    connection_matrix,
    forward_fit_defect,
    quartic_smatrix,
)

Q1 = QuarticConfig(beta=0.0, lam=1.0, p=1.0)  # q = 1 reference point

# (beta, q, m, S sink, S elastic(theta = 1.1)) at p = 1, from
# tests/make_floquet_reference.py (mpmath, 40 digits)
FLOQUET_REFERENCE = (
    (0.3, 0.3, -2, (0.5936125956286274-0.804733980267093j), (0.5936151582256532-0.8047490564919804j)),
    (0.3, 2.0, 0, (-0.08983757202064913-0.056917500237231085j), (0.3101713125325457+0.9506806808186636j)),
    (0.3, 8.0, 2, (0.019757449114389366+0.009727278685842266j), (0.6013277828120763-0.7990024390565478j)),
    (0.3, 30.0, -9, (0.9959221959401379+0.08688425740701754j), (0.9962150473978066+0.08692283553926326j)),
    (0.0, 0.0001, 0, (0.9003319957290451-0.29955686506972584j), (0.9360478356595859-0.35187277439012654j)),
    (0.0, 0.0001, 1, (0.9999999876629888+7.612239174181002e-08j), (0.9999999999999976+6.984324952368172e-08j)),
    (0.0, 0.0001, 2, (1+1.3089969520545595e-09j), (1+1.3089969510734434e-09j)),
    (0.0, 2.0, -2, (0.6238736982807754+0.3806664599157619j), (0.8842790672950969+0.46695881097128206j)),
    (0.0, 0.3, 7, (0.9999999778696019+0.00021038249845221104j), (0.9999999778696019+0.00021038249845221104j)),
    (0.1957611404423356, 30.0, 4, (0.0007763373084243853+0.0006910229347345131j), (0.9949623177242772-0.10024961999296723j)),
    (0.0, 0.005064456830183533, -11, (0.9999999999999999+1.526095451504886e-08j), (0.9999999999999999+1.526095451504886e-08j)),
    (7.123056334383823e-08, 0.00023157896270033576, 10, (0.9999999999999749+2.2381995994082103e-07j), (0.9999999999999749+2.2381995994082103e-07j)),
)


def test_config_validation():
    with pytest.raises(ConfigError):
        QuarticConfig(beta=1.0, lam=1.0, p=1.0)
    with pytest.raises(ConfigError):
        QuarticConfig(beta=0.2, lam=0.0, p=1.0)
    with pytest.raises(ConfigError):
        QuarticConfig(beta=0.2, lam=1.0, p=-1.0)
    with pytest.raises(ConfigError):
        QuarticConfig(beta=0.2, lam=1.0, p=1.0, mass=0.0)
    with pytest.raises(ConfigError, match="too large"):
        QuarticConfig(beta=0.2, lam=1e300, p=1.0)  # start point overflows
    assert QuarticConfig(beta=0.2, lam=1e4, p=1.0).q == quartic.Q_MAX  # the bound itself is accepted
    for lam in (1.01e4, 1e20):  # 1e20: the start point would lie inside x = 0
        with pytest.raises(ConfigError, match="too large"):
            QuarticConfig(beta=0.2, lam=lam, p=1.0)
    cfg = QuarticConfig(beta=0.2, lam=2.0, p=0.5)
    assert cfg.q == pytest.approx(1.0)


def test_connection_flux_preservation():
    t = connection_matrix(Q1, 0)
    d3, d4, ddet = t.flux_defects
    assert d3 <= 1e-6
    assert d4 <= 1e-6
    assert ddet <= 1e-6


def test_connection_conjugation_structure():
    # the x-form equation is real, so column 4 is the conjugate swap of column 3
    t = connection_matrix(Q1, 0).entries
    assert abs(t[0, 1] - np.conj(t[1, 0])) <= 1e-10
    assert abs(t[1, 1] - np.conj(t[0, 0])) <= 1e-10


def test_connection_self_convergence():
    t1 = connection_matrix(Q1, 0, tol=1e-8).entries
    t2 = connection_matrix(Q1, 0, tol=1e-9).entries
    assert np.max(np.abs(t1 - t2)) <= 1e-6


def test_connection_tol_validation():
    with pytest.raises(ConfigError):
        connection_matrix(Q1, 0, tol=1e-11)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-6, 0.0, 1e-11, 1e-2])
def test_bad_tolerances_are_refused_before_any_solve(tol):
    # nan used to hang the inward solve, inf to return an unconverged S
    with pytest.raises(ConfigError, match="tol"):
        quartic_smatrix(Q1, 0, Sink(), tol=tol)
    with pytest.raises(ConfigError, match="tol"):
        forward_fit_defect(Q1, 0, tol=tol)


def test_backward_consistency():
    assert backward_defect(Q1, 0) <= 1e-5


def test_mirror_matches_forward_fit():
    # the forward fit shares neither the mirror argument nor the 2x2 solve,
    # so agreement tests the inward integration the flux identities cannot
    for q, m in ((0.3, 0), (1.0, 1), (10.0, 3)):
        cfg = QuarticConfig(beta=0.37, lam=q / 0.9, p=0.9)
        assert forward_fit_defect(cfg, m) <= 1e-6, (q, m)
    # at this q, np.log and math.log put the window's top point and the
    # integration end one bit apart
    edge = QuarticConfig(beta=0.3, lam=4.8630569248448765, p=1.0)
    assert forward_fit_defect(edge, 0) <= 1e-6
    # q = 100: the fit window [u0, 2 u0] sits where the dressing bias is small
    big = QuarticConfig(beta=0.3, lam=100.0, p=1.0)
    assert forward_fit_defect(big, 2, tol=1e-6) <= 1e-6


def test_connection_cache_key():
    # T depends on (|m - beta|, q, tol) only: +-m share it at beta = 0, and
    # so do configs that differ only in mass
    assert connection_matrix(Q1, 1) is connection_matrix(Q1, -1)
    heavy = QuarticConfig(beta=0.0, lam=1.0, p=1.0, mass=2.0)
    assert connection_matrix(heavy, 2) is connection_matrix(Q1, 2)
    assert connection_matrix(Q1, 1, tol=1e-9) is not connection_matrix(Q1, 1)


def test_batch_matches_single_modes(monkeypatch):
    cfg = QuarticConfig(beta=0.2, lam=1.7, p=0.8)
    monkeypatch.setattr(quartic, "_cache", {})
    batch = connection_matrices(cfg, [2, -1, 0, 1])
    for m, conn in zip([2, -1, 0, 1], batch):
        monkeypatch.setattr(quartic, "_cache", {})
        single = connection_matrix(cfg, m)
        assert conn.nu == single.nu == abs(m - cfg.beta)
        s_batch, s_single = (t.entries[0, 0] / t.entries[1, 0] for t in (conn, single))
        assert abs(s_batch - s_single) <= 1e-8, m


def test_inward_solve_work_follows_local_wavelength(monkeypatch):
    # the step cap in v = sqrt(q) e^{|x|} follows the local wavelength, so
    # the inward solve costs about (u0 - sqrt q) / cap DOP853 steps of 12
    # RHS calls; a cap set by the fast end u0 needs about x0 times more
    nfev = []
    solve_ivp = scipy.integrate.solve_ivp

    def counting_solve_ivp(*args, **kwargs):
        res = solve_ivp(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(scipy.integrate, "solve_ivp", counting_solve_ivp)
    monkeypatch.setattr(quartic, "_cache", {})
    cfg = QuarticConfig(beta=0.3, lam=8.0, p=1.0)
    tol = 1e-8
    connection_matrices(cfg, range(-2, 3), tol)
    cap = min(2.0 * math.pi / 20.0, 26.5 * tol**0.3)
    steps = (quartic._start_w(cfg.q) - math.sqrt(cfg.q)) / cap
    assert len(nfev) == 1
    assert sum(nfev) <= 12 * 1.25 * steps  # 23,273 here


def test_elastic_unitary_across_q():
    for q, m in ((0.3, 0), (1.0, 1), (10.0, 0), (10.0, 3)):
        cfg = QuarticConfig(beta=0.37, lam=q / 0.9, p=0.9)
        sol = quartic_smatrix(cfg, m, Elastic(theta=1.1))
        assert abs(abs(sol.s_matrix) - 1.0) <= 1e-6, (q, m)
        assert sol.sigma_abs == 0.0


def test_sink_capture_bounds():
    for q, m in ((1.0, 0), (10.0, 1)):
        cfg = QuarticConfig(beta=0.37, lam=q / 0.9, p=0.9)
        sol = quartic_smatrix(cfg, m, Sink())
        assert abs(sol.s_matrix) <= 1.0 + 1e-9
        assert 0.0 <= sol.sigma_abs * cfg.p <= 1.0


def test_sink_capture_two_tolerances():
    c1 = capture_probability(Q1, 0, tol=1e-8)
    c2 = capture_probability(Q1, 0, tol=1e-9)
    assert abs(c1 - c2) <= 1e-6
    assert 0.0 < c1 < 1.0


def test_total_absorption_exact():
    sol = quartic_smatrix(Q1, 2, TotalAbsorption(n_minus=2, n_plus=2))
    assert sol.s_matrix == 0
    assert sol.sigma_abs == 1.0 / Q1.p
    assert sol.delta is None


def test_vanishing_coupling_restores_free_modes():
    # power-law channels only: nu = 0 (m = 0 at beta = 0) approaches its
    # limit logarithmically and is exercised in the crossover test instead
    cfg = QuarticConfig(beta=0.0, lam=1e-4, p=1.0)
    for m in (1, 2):
        s = quartic_smatrix(cfg, m, Elastic(theta=math.pi / 2)).s_matrix
        assert abs(s - 1.0) <= 1e-3, m


def test_crossover_matches_pure_flux_values():
    cfg = QuarticConfig(beta=0.3, lam=1e-8, p=1.0)
    for m in (0, 1):
        nu = abs(m - cfg.beta)
        want = cmath.exp(1j * math.pi * (m - nu))
        got = quartic_smatrix(cfg, m, Elastic(theta=math.pi / 2)).s_matrix
        assert abs(got - want) <= 1e-4, m


def test_tau_halving_refines_by_four():
    ss = [quartic_smatrix(Q1, 0, Sink(), tol=t).s_matrix for t in (4e-7, 2e-7, 1e-7)]
    d1 = abs(ss[0] - ss[1])
    d2 = abs(ss[1] - ss[2])
    assert d1 / d2 >= 4.0


def test_capture_monotone_in_centrifugal_order():
    cfg = QuarticConfig(beta=0.0, lam=2.0, p=1.0)  # q = 2
    caps = [capture_probability(cfg, m) for m in range(0, 6)]
    assert all(c0 > c1 for c0, c1 in zip(caps, caps[1:]))
    assert caps[0] > 0.9
    assert caps[5] < 1e-6


def _sigma_total(cfg, model, ms):
    return sum((sol.sigma_abs for sol in cfg.solve(ms, model)), 0.0)


def test_schedule_single_absorbed_mode():
    model = TotalAbsorption()
    assert Q1.required_modes(model) == [0]
    assert _sigma_total(Q1, model, [0]) == 1.0 / Q1.p


def test_schedule_window_count():
    # the window |m| <= 2 absorbs 1/p per mode; the elastic modes outside add 0
    cfg = QuarticConfig(beta=0.2, lam=1.0, p=1.0)
    assert _sigma_total(cfg, TotalAbsorption(n_minus=2, n_plus=2), range(-3, 4)) == 5.0 / cfg.p


def test_schedule_all_elastic():
    assert _sigma_total(Q1, Elastic(theta=0.3), range(-2, 3)) == 0.0
    assert Q1.required_modes(Elastic()) == []


def test_schedule_validation():
    with pytest.raises(ConfigError):
        TotalAbsorption(n_minus=-1, n_plus=0)
    with pytest.raises(ConfigError):
        Q1.required_modes(Custom(ratios={0: 0.5}))  # a ratio of the inverse-square core
    with pytest.raises(ConfigError):
        quartic_smatrix(Q1, 0, Custom(ratios={0: 0.5}))
    with pytest.raises(ConfigError):
        Q1.solve([0], TotalAbsorption(n_minus=0, n_plus=1))  # the window is |m| <= m_abs


def test_schedule_model_for():
    # inside the window S = 0; outside it the default Elastic() applies
    model = TotalAbsorption(n_minus=1, n_plus=1)
    sols = Q1.solve([-1, 0, 2], model)
    assert [s.s_matrix for s in sols[:2]] == [0, 0]
    assert sols[2] == quartic_smatrix(Q1, 2, Elastic())
    assert abs(abs(sols[2].s_matrix) - 1.0) <= 1e-6


def test_connection_matrix_rejects_singular():
    with pytest.raises(FitDegenerateError):
        ConnectionMatrix(entries=np.zeros((2, 2), dtype=complex), nu=0.5, q=1.0)


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("model", [Sink(), Elastic()], ids=["sink", "elastic"])
def test_high_orders_finite_and_approach_pure_flux(monkeypatch, p, model):
    # orders nu >> sqrt(q) in one batch: |f| |f'| at x = 0 reaches ~1e22, so
    # the Wronskian must come from the start point, not from f and f' there
    cfg = QuarticConfig(beta=0.2, lam=1.0, p=p)
    monkeypatch.setattr(quartic, "_cache", {})
    ms = range(-12, 13)
    dev = {}
    for m, sol in zip(ms, cfg.solve(ms, model)):
        assert cmath.isfinite(sol.s_matrix), m
        s_ab = cmath.exp(1j * math.pi * (m - abs(m - cfg.beta)))
        dev[m] = abs(sol.s_matrix - s_ab)
    for side in (range(3, 13), range(-3, -13, -1)):
        tail = [dev[m] for m in side]
        assert all(a > b for a, b in zip(tail, tail[1:])), (side, tail)


@pytest.mark.parametrize("beta,q,m,sink,elastic", FLOQUET_REFERENCE)
def test_floquet_matches_40_digit_reference(monkeypatch, beta, q, m, sink, elastic):
    # stable and instability bands, beta = 0 integer orders down to
    # mu = 4.7e-10, a band centre, where the Hill matrix is defective, and
    # orders within 1e-7 of an integer
    monkeypatch.setattr(quartic, "_cache", {})
    cfg = QuarticConfig(beta=beta, lam=q, p=1.0)
    assert abs(quartic_smatrix(cfg, m, Sink()).s_matrix - sink) <= 1e-10
    assert abs(quartic_smatrix(cfg, m, Elastic(theta=1.1)).s_matrix - elastic) <= 1e-10


def test_default_connection_is_floquet_up_to_q_spectral(monkeypatch):
    monkeypatch.setattr(quartic, "_cache", {})
    for q, tol in ((quartic.Q_SPECTRAL, None), (1.01 * quartic.Q_SPECTRAL, 1e-8)):
        connection_matrix(QuarticConfig(beta=0.3, lam=q, p=1.0), 1)
        assert list(quartic._cache) == [(0.7, q, tol)]
        quartic._cache.clear()


@pytest.mark.parametrize("q", [0.3, 2.0, 8.0, 30.0])
def test_floquet_matches_inward_solve(q):
    # the inward solve at tol 1e-10 is good to ~7e-9 here, the Floquet S to ~1e-14
    for beta in (0.0, 0.3):
        cfg = QuarticConfig(beta=beta, lam=q, p=1.0)
        for model in (Sink(), Elastic(theta=1.1)):
            ode = quartic.quartic_smatrices(cfg, range(-12, 13), model, tol=1e-10)
            floquet = quartic.quartic_smatrices(cfg, range(-12, 13), model)
            assert max(abs(a.s_matrix - b.s_matrix) for a, b in zip(ode, floquet)) <= 1e-8, (beta, model)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    log_q=st.floats(-4.0, math.log10(quartic.Q_SPECTRAL)),
    beta=st.floats(0.0, 1.0, exclude_max=True),
    m=st.integers(-12, 12),
)
def test_floquet_unitarity_property(log_q, beta, m):
    cfg = QuarticConfig(beta=beta, lam=min(10.0**log_q, quartic.Q_SPECTRAL), p=1.0)
    sink = quartic_smatrix(cfg, m, Sink())
    assert abs(sink.s_matrix) <= 1.0 + 1e-12 and sink.sigma_abs >= 0.0
    elastic = quartic_smatrix(cfg, m, Elastic(theta=1.1))
    assert abs(abs(elastic.s_matrix) - 1.0) <= 1e-12
