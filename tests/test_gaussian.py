"""Moment ODEs, closed-form covariances, and squeezing metrics."""

import math
import sys

import numpy as np
import pytest

from doublepass.errors import ConfigError
from doublepass.gaussian import (CSV_COLUMNS, build_moment_odes,
                                 closed_form_covariances, closed_form_table,
                                 initial_snapshot, integrate_covariance,
                                 mode_index, relative_error, variance_table)

PUBLISHED = (("p_at", "p_at"), ("p_at", "X_ph"), ("X_ph", "X_ph"),
             ("x_at", "x_at"), ("x_at", "P_ph"), ("P_ph", "P_ph"))


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
    assert len(traj.times) == 1
    assert np.allclose(traj.covs[0], np.diag([0.5, 0.5, 0.0, 0.0]))


def test_rk4_matches_closed_form_at_unit_time():
    traj = integrate_covariance(build_moment_odes(1.0), 1.0, 1e-4)
    i = mode_index("p_at")
    assert relative_error(traj.covs[-1, i, i],
                          0.25 * (1 + math.exp(-2))) < 1e-8


def test_alpha_zero_vacuum_accumulation():
    traj = integrate_covariance(build_moment_odes(0.0), 1.0, 1e-3)
    for mode in ("X_ph", "P_ph", "p_at"):
        assert traj.series(mode, mode)[-1] == pytest.approx(0.5, abs=1e-12)


def test_step_size_validation():
    ode = build_moment_odes(2.0)
    with pytest.raises(ConfigError):
        integrate_covariance(ode, 1.0, 0.05)   # > 0.1/alpha^2
    assert len(integrate_covariance(ode, 1.0, 0.025).times) == 41  # at it
    with pytest.raises(ConfigError):
        integrate_covariance(ode, 0.001, 0.01)  # dt > t_max
    with pytest.raises(ConfigError):
        integrate_covariance(ode, 1.0, 3e-4)    # does not divide t_max


def test_ode_route_matches_all_published_entries():
    for alpha in (0.3, 1.0, 2.0):
        traj = integrate_covariance(build_moment_odes(alpha), 5.0, 1e-3)
        for i in (0, len(traj.times) // 3, len(traj.times) - 1):
            closed = closed_form_covariances(alpha, traj.times[i])
            for r, c in PUBLISHED:
                assert relative_error(traj.series(r, c)[i],
                                      closed.entry(r, c)) < 1e-8


def _rk4_with_means(ode, t_max, dt):
    """Covariances of the RK4 route on the stacked 20-vector (mean, Delta).

    The reference for :func:`integrate_covariance`, which integrates
    Delta = C - C0 alone: the means start at 0 and stay exactly 0.
    """
    a, c0 = ode.drift, np.diag([0.5, 0.5, 0.0, 0.0])
    n_steps = round(t_max / dt)

    def pack(mean, cov):
        return np.concatenate([mean, cov.reshape(16)])

    k_mat = np.zeros((20, 20))
    for idx in range(20):
        basis = np.zeros(20)
        basis[idx] = 1.0
        m_b, c_b = basis[:4], basis[4:].reshape(4, 4)
        k_mat[:, idx] = pack(a @ m_b, a @ c_b + c_b @ a.T)
    b_vec = pack(np.zeros(4), a @ c0 + c0 @ a.T + ode.diffusion)
    r_mat, r_vec, term = np.eye(20), np.zeros(20), np.eye(20)
    for j in range(1, 5):
        r_vec = r_vec + (term @ b_vec) * (dt ** j / math.factorial(j))
        term = term @ k_mat
        r_mat = r_mat + term * (dt ** j / math.factorial(j))
    ys = np.zeros((n_steps + 1, 20))
    covs = ys[:, 4:].reshape(n_steps + 1, 4, 4)
    for step in range(1, n_steps + 1):
        ys[step] = r_mat @ ys[step - 1] + r_vec
        cov = covs[step]
        cov[...] = 0.5 * (cov + cov.T)
    assert not ys[:, :4].any()
    return covs + c0


@pytest.mark.parametrize("alpha, t_max, dt", [
    (1.0, 1.0, 1e-4), (0.3, 1.0, 1e-4), (2.0, 1.0, 1e-4), (0.0, 1.0, 1e-3),
    (1.3, 10.0, 1e-3), (5.0, 1.0, 1e-3), (1e-170, 1.0, 1e-3)])
def test_covariance_rk4_bit_equal_to_mean_carrying_rk4(alpha, t_max, dt):
    ode = build_moment_odes(alpha)
    assert np.array_equal(integrate_covariance(ode, t_max, dt).covs,
                          _rk4_with_means(ode, t_max, dt))


def test_cross_sector_stays_zero():
    traj = integrate_covariance(build_moment_odes(1.5), 2.0, 1e-3)
    for r, c in (("x_at", "p_at"), ("x_at", "X_ph"), ("p_at", "P_ph"),
                 ("X_ph", "P_ph")):
        assert np.abs(traj.series(r, c)).max() < 1e-12


def test_covariance_symmetric_psd_and_uncertainty():
    traj = integrate_covariance(build_moment_odes(1.0), 3.0, 1e-3)
    for cov in traj.covs[::300]:
        assert np.allclose(cov, cov.T, atol=1e-10)
        assert cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2 >= 0.25 - 1e-10
        assert np.linalg.eigvalsh(cov).min() >= -1e-10


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
    assert math.isnan(snap.entry("x_at", "X_ph"))
    assert all(math.isfinite(snap.entry(r, c)) for r, c in PUBLISHED)


def test_closed_form_alpha_zero_limits():
    snap = closed_form_covariances(0.0, 2.0)
    assert snap.entry("X_ph", "X_ph") == pytest.approx(1.0)
    assert snap.entry("p_at", "X_ph") == 0.0
    assert snap.entry("P_ph", "P_ph") == pytest.approx(1.0)


def test_alpha_squared_below_normal_takes_alpha_zero_limit():
    zero = closed_form_covariances(0.0, 2.0).cov
    for alpha in (1e-160, 1e-170, 1e-300, 5e-324):
        cov = closed_form_covariances(alpha, 2.0).cov
        i, j = mode_index("p_at"), mode_index("X_ph")
        assert cov[i, j] == 0.0 and cov[j, j] == zero[j, j] == 1.0
        assert np.allclose(cov, zero, rtol=0, atol=1e-300, equal_nan=True)
    # just above the switch the general form agrees with the limit
    alpha = math.sqrt(sys.float_info.min) * (1 + 1e-15)
    assert alpha * alpha >= sys.float_info.min
    cov = closed_form_covariances(alpha, 2.0).cov
    assert cov[mode_index("X_ph"), mode_index("X_ph")] == pytest.approx(
        1.0, rel=1e-14)


# -- variance table ------------------------------------------------------------


def test_normalized_variances_unit_values():
    table = closed_form_table(1.0, np.array([1.0]))
    assert table["var_p_ph_norm"][0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert table["var_x_ph_norm"][0] == pytest.approx(
        0.25 * (3 + math.exp(-2) - 4 * math.exp(-1)), rel=1e-12)


def test_normalized_variances_vacuum_limit():
    table = closed_form_table(0.1, np.array([1e-4]))
    assert table["var_x_ph_norm"][0] == pytest.approx(0.5, abs=1e-5)
    assert table["var_p_ph_norm"][0] == pytest.approx(0.5, abs=1e-5)


def test_normalized_variances_large_time_asymptote():
    table = closed_form_table(1.0, np.array([100.0]))
    assert table["var_x_ph_norm"][0] == pytest.approx(3.0 / 400.0, rel=1e-10)


def test_squeezing_saturation():
    atom_db = closed_form_table(1.0, np.linspace(0.0, 10.0, 2001))[
        "sq_db_atom"]
    expected = 10 * math.log10(2.0 / (1 + math.exp(-20.0)))
    assert atom_db.max() == pytest.approx(expected, abs=1e-9)
    assert atom_db.max() < 10 * math.log10(2.0)
    # monotone approach to the bound
    assert (np.diff(atom_db) > -1e-12).all()


def test_field_squeezing_at_large_interaction():
    field_db = closed_form_table(1.0, np.linspace(0.0, 100.0, 101))[
        "sq_db_field_x"]
    assert field_db[-1] == pytest.approx(10 * math.log10(0.5 / 0.0075),
                                         abs=1e-6)
    assert field_db[-1] > 18.0


def test_uncertainty_products():
    table = closed_form_table(1.0, np.linspace(0.0, 5.0, 501))
    assert (table["unc_prod_field"][1:] > 0.25).all()
    assert (table["unc_prod_atom"] >= 0.25 - 1e-12).all()
    assert table["unc_prod_field"][0] == pytest.approx(0.25)


def test_squeezing_rejects_nonpositive_variance():
    times = np.linspace(0.0, 1.0, 11)
    good = np.array([closed_form_covariances(1.0, float(t)).cov
                     for t in times])
    for value in (0.0, -1e-3):
        for i in range(4):
            bad = good.copy()
            bad[5, i, i] = value
            with pytest.raises(ValueError, match="nonpositive variance"):
                variance_table(times, bad)
    # a t = 0 row takes the vacuum limit, whatever its field entries
    bad = good.copy()
    bad[0, 2, 2] = 0.0
    assert variance_table(times, bad)["var_x_ph_norm"][0] == 0.5


def test_csv_row_schema():
    times = np.array([0.0, 1.0])
    table = closed_form_table(1.0, times)
    assert tuple(table) == CSV_COLUMNS
    assert table["var_p_ph_norm"][1] == pytest.approx(2.0 / 3.0)
    # the t = 0 row: vacuum limit 1/2, 0 dB, field product 1/4
    row0 = {col: values[0] for col, values in table.items()}
    assert row0["var_x_ph_norm"] == row0["var_p_ph_norm"] == 0.5
    assert row0["sq_db_atom"] == row0["sq_db_field_x"] == 0.0
    assert row0["sq_db_field_p"] == 0.0
    assert row0["unc_prod_field"] == 0.25
    # entries a route does not measure stay NaN
    covs = np.full((2, 4, 4), np.nan)
    covs[:, 1, 1] = 0.4
    partial = variance_table(times, covs)
    assert partial["sq_db_atom"] == pytest.approx(
        [10 * math.log10(0.5 / 0.4)] * 2)
    assert np.isnan(partial["var_x_at"]).all()
    assert np.isnan(partial["unc_prod_atom"]).all()
    assert np.isnan(partial["sq_db_field_x"][1])
    assert np.isnan(partial["unc_prod_field"][1])


def test_moment_coefficient_guard_is_an_exception():
    from doublepass.scalars import FormalScalar, I, SYM_ALPHA
    # build_moment_odes evaluates every coefficient by evaluate_real
    assert SYM_ALPHA.evaluate_real(a=2.0) == 2.0
    with pytest.raises(ValueError, match="not real"):
        FormalScalar.const(I).evaluate_real(a=1.0)
    with pytest.raises(ValueError, match="not real"):
        SYM_ALPHA.evaluate_real(a=math.nan)
    with pytest.raises(ValueError, match="not real"):
        build_moment_odes(math.nan)
