"""rho^-4 channel: connection matrices, boundary models, mode schedules."""

import cmath
import math

import numpy as np
import pytest

from fluxsink import quartic
from fluxsink.errors import ConfigError, FitDegenerateError
from fluxsink.quartic import (
    ConnectionMatrix,
    Elastic,
    ModeSchedule,
    QuarticConfig,
    Sink,
    TotalAbsorption,
    backward_defect,
    capture_probability,
    connection_matrices,
    connection_matrix,
    forward_fit_defect,
    model_schedule,
    quartic_smatrix,
    schedule_cross_section,
)

Q1 = QuarticConfig(beta=0.0, lam=1.0, p=1.0)  # q = 1 reference point


def test_config_validation():
    with pytest.raises(ConfigError):
        QuarticConfig(beta=1.0, lam=1.0, p=1.0)
    with pytest.raises(ConfigError):
        QuarticConfig(beta=0.2, lam=0.0, p=1.0)
    with pytest.raises(ConfigError):
        QuarticConfig(beta=0.2, lam=1.0, p=-1.0)
    with pytest.raises(ConfigError):
        QuarticConfig(beta=0.2, lam=1.0, p=1.0, mass=0.0)
    cfg = QuarticConfig(beta=0.2, lam=2.0, p=0.5)
    assert cfg.rho0 == pytest.approx(2.0)
    assert cfg.q == pytest.approx(1.0)
    assert cfg.mathieu_a(2) == pytest.approx(1.8**2)


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


def test_backward_consistency():
    assert backward_defect(Q1, 0) <= 1e-5


def test_mirror_matches_forward_fit():
    # the forward fit shares neither the mirror argument nor the 2x2 solve,
    # so agreement tests the inward integration the flux identities cannot
    for q, m in ((0.3, 0), (1.0, 1), (10.0, 3)):
        cfg = QuarticConfig(beta=0.37, lam=q / 0.9, p=0.9)
        assert forward_fit_defect(cfg, m) <= 1e-6, (q, m)


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
    sol = quartic_smatrix(Q1, 2, TotalAbsorption())
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


def test_schedule_single_absorbed_mode():
    sch = model_schedule(Q1, 0, TotalAbsorption(), Elastic())
    assert schedule_cross_section(sch) == 1.0 / Q1.p


def test_schedule_window_count():
    cfg = QuarticConfig(beta=0.2, lam=1.0, p=1.0)
    sch = model_schedule(cfg, 2, TotalAbsorption(), Elastic())
    assert schedule_cross_section(sch) == 5.0 / cfg.p


def test_schedule_all_elastic():
    sch = model_schedule(Q1, 2, Elastic(0.3), Elastic())
    assert schedule_cross_section(sch) == 0.0


def test_schedule_validation():
    with pytest.raises(ConfigError):
        model_schedule(Q1, -1, Elastic(), Elastic())
    sch = model_schedule(Q1, 1, Sink(), Sink())
    with pytest.raises(ConfigError):
        schedule_cross_section(sch)  # absorbing outer model needs a range
    with pytest.raises(ConfigError):
        schedule_cross_section(model_schedule(Q1, 1, Elastic(), Elastic()), m_range=(2, 1))


def test_schedule_model_for():
    sch = model_schedule(Q1, 1, TotalAbsorption(), Elastic(0.4))
    assert isinstance(sch.model_for(0), TotalAbsorption)
    assert isinstance(sch.model_for(-1), TotalAbsorption)
    assert isinstance(sch.model_for(2), Elastic)


def test_connection_matrix_rejects_singular():
    with pytest.raises(FitDegenerateError):
        ConnectionMatrix(entries=np.zeros((2, 2), dtype=complex), nu=0.5, q=1.0)
