"""Moment ODEs, closed-form covariances, and squeezing metrics."""

import math

import numpy as np
import pytest

from doublepass.errors import ConfigError
from doublepass.gaussian import (CSV_COLUMNS, build_moment_odes,
                                 closed_form_covariances,
                                 closed_form_trajectory, csv_row_values,
                                 initial_snapshot, integrate_covariance,
                                 mode_index, normalized_field_variances,
                                 squeezing_report)

PUBLISHED = (("p_at", "p_at"), ("p_at", "X_ph"), ("X_ph", "X_ph"),
             ("x_at", "x_at"), ("x_at", "P_ph"), ("P_ph", "P_ph"))


def rel_err(value, ref):
    diff = abs(value - ref)
    if ref == 0:
        return 0.0 if diff < 1e-13 else math.inf
    return diff / abs(ref)


# -- build_moment_odes --------------------------------------------------------


def test_drift_matrix_entries():
    alpha = 1.3
    ode = build_moment_odes(alpha)
    a2 = alpha * alpha
    expected = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, -a2, 0.0, 0.0],
        [0.0, alpha, 0.0, 0.0],
        [-alpha, 0.0, 0.0, 0.0],
    ])
    assert np.allclose(ode.drift, expected, atol=1e-14)


def test_diffusion_matrix_entries():
    alpha = 0.7
    ode = build_moment_odes(alpha)
    a2h = alpha * alpha / 2
    expected = np.array([
        [a2h, 0.0, 0.0, alpha / 2],
        [0.0, a2h, -alpha / 2, 0.0],
        [0.0, -alpha / 2, 0.5, 0.0],
        [alpha / 2, 0.0, 0.0, 0.5],
    ])
    assert np.allclose(ode.diffusion, expected, atol=1e-14)
    assert np.linalg.eigvalsh(ode.diffusion).min() >= -1e-12


def test_variance_rate_examples():
    # d var_pp/dt = -2 a^2 var_pp + a^2/2 and d var_xx/dt = a^2/2 at t = 0
    alpha = 1.0
    ode = build_moment_odes(alpha)
    c = initial_snapshot().cov
    rate = ode.drift @ c + c @ ode.drift.T + ode.diffusion
    i_p, i_x = mode_index("p_at"), mode_index("x_at")
    assert rate[i_p, i_p] == pytest.approx(-2 * 0.5 + 0.5)
    assert rate[i_x, i_x] == pytest.approx(0.5)


def test_negative_alpha_rejected():
    with pytest.raises(ConfigError):
        build_moment_odes(-0.1)


# -- integrate_covariance -------------------------------------------------------


def test_t_zero_single_snapshot():
    traj = integrate_covariance(build_moment_odes(1.0), 0.0, 1e-3)
    assert len(traj) == 1
    assert np.allclose(traj.covs[0], np.diag([0.5, 0.5, 0.0, 0.0]))
    assert np.allclose(traj.means[0], 0.0)


def test_rk4_matches_closed_form_at_unit_time():
    traj = integrate_covariance(build_moment_odes(1.0), 1.0, 1e-4)
    snap = traj.snapshot(len(traj) - 1)
    assert rel_err(snap.entry("p_at", "p_at"),
                   0.25 * (1 + math.exp(-2))) < 1e-8


def test_alpha_zero_vacuum_accumulation():
    traj = integrate_covariance(build_moment_odes(0.0), 1.0, 1e-3)
    snap = traj.snapshot(len(traj) - 1)
    assert snap.entry("X_ph", "X_ph") == pytest.approx(0.5, abs=1e-12)
    assert snap.entry("P_ph", "P_ph") == pytest.approx(0.5, abs=1e-12)
    assert snap.entry("p_at", "p_at") == pytest.approx(0.5, abs=1e-12)


def test_step_size_validation():
    ode = build_moment_odes(2.0)
    with pytest.raises(ConfigError):
        integrate_covariance(ode, 1.0, 0.05)   # > 0.1/alpha^2
    with pytest.raises(ConfigError):
        integrate_covariance(ode, 0.001, 0.01)  # dt > t_max
    with pytest.raises(ConfigError):
        integrate_covariance(ode, 1.0, 3e-4)    # does not divide t_max


def test_ode_route_matches_all_published_entries():
    for alpha in (0.3, 1.0, 2.0):
        traj = integrate_covariance(build_moment_odes(alpha), 5.0, 1e-3)
        for i in (0, len(traj) // 3, len(traj) - 1):
            snap = traj.snapshot(i)
            closed = closed_form_covariances(alpha, snap.time)
            for r, c in PUBLISHED:
                assert rel_err(snap.entry(r, c), closed.entry(r, c)) < 1e-8


def test_cross_sector_stays_zero():
    traj = integrate_covariance(build_moment_odes(1.5), 2.0, 1e-3)
    for r, c in (("x_at", "p_at"), ("x_at", "X_ph"), ("p_at", "P_ph"),
                 ("X_ph", "P_ph")):
        assert np.abs(traj.series(r, c)).max() < 1e-12


def test_covariance_symmetric_psd_and_uncertainty():
    traj = integrate_covariance(build_moment_odes(1.0), 3.0, 1e-3)
    for i in range(0, len(traj), 300):
        snap = traj.snapshot(i)
        snap.validate()
        assert np.linalg.eigvalsh(snap.cov).min() >= -1e-10


def test_var_x_at_exactly_linear():
    alpha = 1.2
    traj = integrate_covariance(build_moment_odes(alpha), 2.0, 1e-3)
    expected = 0.5 * (1 + alpha ** 2 * traj.times)
    assert np.abs(traj.series("x_at", "x_at") - expected).max() < 1e-10


def test_var_p_at_nonincreasing():
    traj = integrate_covariance(build_moment_odes(1.0), 4.0, 1e-3)
    vp = traj.series("p_at", "p_at")
    assert (np.diff(vp) <= 1e-14).all()


# -- closed_form_covariances -----------------------------------------------------


def test_closed_form_initial_state():
    snap = closed_form_covariances(1.0, 0.0)
    assert snap.entry("p_at", "p_at") == pytest.approx(0.5)
    assert snap.entry("x_at", "x_at") == pytest.approx(0.5)
    assert snap.entry("X_ph", "X_ph") == 0.0
    assert snap.entry("p_at", "X_ph") == 0.0


def test_closed_form_long_time_limit():
    snap = closed_form_covariances(1.0, 50.0)
    assert snap.entry("p_at", "p_at") == pytest.approx(0.25, rel=1e-12)


def test_closed_form_spot_value_at_log2():
    snap = closed_form_covariances(1.0, math.log(2))
    assert snap.entry("p_at", "X_ph") == pytest.approx(-1.0 / 16.0, rel=1e-12)


def test_closed_form_unavailable_entries_marked():
    snap = closed_form_covariances(1.0, 1.0)
    i, j = mode_index("x_at"), mode_index("X_ph")
    assert not snap.available[i, j]
    assert math.isnan(snap.cov[i, j])
    assert snap.available[mode_index("p_at"), mode_index("X_ph")]


def test_closed_form_alpha_zero_limits():
    snap = closed_form_covariances(0.0, 2.0)
    assert snap.entry("X_ph", "X_ph") == pytest.approx(1.0)
    assert snap.entry("p_at", "X_ph") == 0.0
    assert snap.entry("P_ph", "P_ph") == pytest.approx(1.0)


# -- normalized variances / squeezing ---------------------------------------------


def test_normalized_variances_unit_values():
    vx, vp = normalized_field_variances(1.0, 1.0)
    assert vp == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert vx == pytest.approx(0.25 * (3 + math.exp(-2) - 4 * math.exp(-1)),
                               rel=1e-12)


def test_normalized_variances_vacuum_limit():
    vx, vp = normalized_field_variances(0.1, 1e-4)
    assert vx == pytest.approx(0.5, abs=1e-5)
    assert vp == pytest.approx(0.5, abs=1e-5)


def test_normalized_variances_large_time_asymptote():
    vx, _ = normalized_field_variances(1.0, 100.0)
    assert vx == pytest.approx(3.0 / 400.0, rel=1e-10)


def test_normalized_variances_reject_t_zero():
    with pytest.raises(ConfigError):
        normalized_field_variances(1.0, 0.0)


def test_squeezing_saturation():
    traj = closed_form_trajectory(1.0, 10.0, 2001)
    rep = squeezing_report(traj)
    expected = 10 * math.log10(2.0 / (1 + math.exp(-20.0)))
    assert rep.peak_atom_db == pytest.approx(expected, abs=1e-9)
    assert rep.peak_atom_db < 10 * math.log10(2.0)
    # monotone approach to the bound
    assert (np.diff(rep.atom_db) > -1e-12).all()


def test_field_squeezing_at_large_interaction():
    traj = closed_form_trajectory(1.0, 100.0, 101)
    rep = squeezing_report(traj)
    assert rep.field_x_db[-1] == pytest.approx(
        10 * math.log10(0.5 / 0.0075), abs=1e-6)
    assert rep.field_x_db[-1] > 18.0


def test_uncertainty_products():
    rep = squeezing_report(closed_form_trajectory(1.0, 5.0, 501))
    assert (rep.unc_prod_field[1:] > 0.25).all()
    assert (rep.unc_prod_atom >= 0.25 - 1e-12).all()
    assert rep.unc_prod_field[0] == pytest.approx(0.25)


def test_squeezing_rejects_nonpositive_variance():
    traj = closed_form_trajectory(1.0, 1.0, 11)
    bad = traj.covs.copy()
    bad[5, 1, 1] = 0.0
    from doublepass.gaussian import CovTrajectory
    with pytest.raises(ValueError):
        squeezing_report(CovTrajectory(traj.times, traj.means, bad,
                                       traj.available))


def test_csv_row_schema():
    row = csv_row_values(1.0, 1.0)
    assert tuple(row) == CSV_COLUMNS
    assert row["var_p_ph_norm"] == pytest.approx(2.0 / 3.0)
    row0 = csv_row_values(1.0, 0.0)
    assert row0["var_x_ph_norm"] == 0.5
    assert row0["sq_db_atom"] == 0.0


def test_moment_coefficient_guard_is_an_exception():
    from doublepass.gaussian import _const
    from doublepass.scalars import FormalScalar, I
    with pytest.raises(ValueError, match="not real"):
        _const(FormalScalar.const(I), 1.0)
    with pytest.raises(ValueError, match="not real"):
        build_moment_odes(math.nan)
