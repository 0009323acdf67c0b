"""Moment ODEs, closed-form covariances, and squeezing metrics."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from doublepass.errors import ConfigError
from doublepass.gaussian import (CSV_COLUMNS, MODES, SECTORS, VACUUM,
                                 _cross_sector_max, _moment_odes_by_degree,
                                 _rk4_step_map, build_moment_odes,
                                 closed_form_covariances,
                                 integrate_covariance, mode_index,
                                 relative_error, variance_table)

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


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
def test_moment_odes_by_degree_sum_to_the_evaluated_odes(alpha):
    # at powers of two every alpha^d and every sum is exact, so the
    # alpha-free coefficients give the evaluated entries bit for bit
    (a0, d0), (a1, d1), (a2, d2) = _moment_odes_by_degree()
    ode = build_moment_odes(alpha)
    assert not a0.any()
    assert np.array_equal(a0 + alpha * a1 + alpha ** 2 * a2, ode.drift)
    assert np.array_equal(d0 + alpha * d1 + alpha ** 2 * d2, ode.diffusion)


def test_variance_rate_examples():
    # d var_pp/dt = -2 a^2 var_pp + a^2/2 and d var_xx/dt = a^2/2 at t = 0
    alpha = 1.0
    ode = build_moment_odes(alpha)
    c = VACUUM
    rate = ode.drift @ c + c @ ode.drift.T + ode.diffusion
    i_p, i_x = mode_index("p_at"), mode_index("x_at")
    assert rate[i_p, i_p] == pytest.approx(-2 * 0.5 + 0.5)
    assert rate[i_x, i_x] == pytest.approx(0.5)


def test_negative_alpha_rejected():
    with pytest.raises(ConfigError):
        build_moment_odes(-0.1)


# -- integrate_covariance -------------------------------------------------------


def test_t_zero_single_snapshot():
    traj = integrate_covariance(build_moment_odes(1.0), 0.0, 1e-3, 1e-3)
    assert len(traj.times) == 1
    assert np.array_equal(traj.covs[0], np.diag([0.5, 0.5, 0.0, 0.0]))
    # the vacuum is shared and read-only; the trajectory owns its stack
    assert not VACUUM.flags.writeable
    traj.covs[0, 0, 0] = 1.0
    assert VACUUM[0, 0] == 0.5


def test_rk4_matches_closed_form_at_unit_time():
    traj = integrate_covariance(build_moment_odes(1.0), 1.0, 1e-4, 1.0)
    i = mode_index("p_at")
    assert relative_error(traj.covs[-1, i, i],
                          0.25 * (1 + math.exp(-2))) < 1e-8


def test_alpha_zero_vacuum_accumulation():
    traj = integrate_covariance(build_moment_odes(0.0), 1.0, 1e-3, 1e-3)
    for mode in ("X_ph", "P_ph", "p_at"):
        i = mode_index(mode)
        assert traj.covs[-1, i, i] == pytest.approx(0.5, abs=1e-12)


def test_step_size_validation():
    ode = build_moment_odes(2.0)
    with pytest.raises(ConfigError):
        integrate_covariance(ode, 1.0, 0.05, 0.05)   # > 0.1/alpha^2
    assert len(integrate_covariance(ode, 1.0, 0.025, 0.025).times) == 41
    with pytest.raises(ConfigError):
        integrate_covariance(ode, 0.001, 0.01, 0.01)  # dt > t_max
    with pytest.raises(ConfigError):
        integrate_covariance(ode, 1.0, 3e-4, 3e-4)    # does not divide t_max
    with pytest.raises(ConfigError, match="solver.dt must divide grid_step"):
        integrate_covariance(ode, 1.0, 1e-4, 1e-12)
    with pytest.raises(ConfigError, match="grid_step must divide t_max"):
        integrate_covariance(ode, 1.0, 1e-4, 0.3)


def test_nonpositive_rk4_variance_names_t_max():
    # Var(X_ph)'s rate cancels once p_at has relaxed; over 1e17 relaxation
    # times RK4's rounding of it drives the variance below 0 (the table
    # raised ValueError, exit 3)
    with pytest.raises(ConfigError, match=r"t_max = 1e\+37: .* X_ph"):
        integrate_covariance(build_moment_odes(1e-10), 1e37, 1e19, 1e37)


def test_ode_route_matches_all_published_entries():
    for alpha in (0.3, 1.0, 2.0):
        traj = integrate_covariance(build_moment_odes(alpha), 5.0, 1e-3,
                                    1e-3)
        for i in (0, len(traj.times) // 3, len(traj.times) - 1):
            closed = closed_form_covariances(alpha, traj.times[i])
            for r, c in PUBLISHED:
                i_r, i_c = mode_index(r), mode_index(c)
                assert relative_error(traj.covs[i, i_r, i_c],
                                      closed[i_r, i_c]) < 1e-8


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
    e_mat, r_vec = _rk4_step_map(dt * k_mat, b_vec, dt)
    r_mat = np.eye(20) + e_mat
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
def test_covariance_rk4_scan_matches_mean_carrying_rk4(alpha, t_max, dt):
    """The powered step map and the doubling scan against stepwise RK4,
    the same iterates in exact arithmetic: a bound on the rounding drift,
    exact structure and, at stride 1, row 1.

    Powers of two and their neighbours end the binary powering and the
    scan on a full or a partial last pass; one sample runs no scan pass.
    The longest run, 101 samples at stride 100, spans ``t_max / dt``.
    """
    strides = [1, 2, 3, 4, 5, 7, 8, 9, 100]
    samples = [1, 2, 3, 4, 5, 7, 8, 9, 101]
    n_steps = max(strides) * max(samples)
    assert n_steps * dt >= t_max
    ode = build_moment_odes(alpha)
    stepwise = _rk4_with_means(ode, n_steps * dt, dt)
    for stride in strides:
        for n in samples:
            case = f"stride {stride}, {n} samples"
            ref = stepwise[:n * stride + 1:stride]
            sample_dt = stride * dt
            traj = integrate_covariance(ode, n * sample_dt, dt, sample_dt)
            covs = traj.covs
            assert covs.shape == ref.shape == (n + 1, 4, 4), case
            assert np.array_equal(traj.times,
                                  np.arange(n + 1) * sample_dt), case
            # about 5x the largest drift measured over these cases, 1.9e-13
            assert np.abs(covs - ref).max() <= 1e-12 * np.abs(ref).max(), case
            assert np.array_equal(covs == 0, ref == 0), case
            assert np.array_equal(covs, covs.transpose(0, 2, 1)), case
            if stride == 1:
                assert np.array_equal(covs[1], ref[1]), case


def _taylor_step_map(k_mat, b_vec, dt):
    """The RK4 step map as the plain sum of its four Taylor terms."""
    n = len(k_mat)
    e_mat, r_vec, term = np.zeros((n, n)), np.zeros(n), np.eye(n)
    for j in range(1, 5):
        r_vec = r_vec + (term @ b_vec) * (dt ** j / math.factorial(j))
        term = term @ k_mat
        e_mat = e_mat + term * (dt ** j / math.factorial(j))
    return e_mat, r_vec


@pytest.mark.parametrize("alpha", [0.0, 5e-324, 1e-100, 1e-9, 1e-3, 0.3,
                                   1.0, 5.0, 1e3])
def test_horner_step_map_matches_taylor_sum(alpha):
    # the Horner map is the Taylor sum up to rounding wherever the sum is
    # finite; where dt ** j overflows but the stability bound holds, as at
    # a tiny alpha and dt 1e99, the Horner map is still finite
    ode = build_moment_odes(alpha)
    a, eye = ode.drift, np.eye(4)
    k_mat = np.kron(a, eye) + np.kron(eye, a)
    b_vec = (a @ VACUUM + VACUUM @ a.T + ode.diffusion).reshape(16)
    for dt in (1e-300, 1e-13, 1e-4, 1e-2, 0.1, 1.0, 1e30, 1e76, 1e77, 1e78,
               1e99, 1e299):
        case = f"dt {dt:g}"
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                old = _taylor_step_map(k_mat, b_vec, dt)
        except OverflowError:
            old = None
        if old is None or not all(np.isfinite(m).all() for m in old):
            if alpha * alpha * dt <= 0.1:
                assert old is None, case
                assert all(np.isfinite(m).all() for m in
                           _rk4_step_map(dt * k_mat, b_vec, dt)), case
            continue
        for new, ref in zip(_rk4_step_map(dt * k_mat, b_vec, dt), old):
            assert np.array_equal(new == 0, ref == 0), case
            assert np.abs(new - ref).max() <= 2e-15 * np.abs(ref).max(), case


def test_cross_sector_stays_zero():
    traj = integrate_covariance(build_moment_odes(1.5), 2.0, 1e-3, 1e-3)
    worst = 0.0
    for r, c in (("x_at", "p_at"), ("x_at", "X_ph"), ("p_at", "P_ph"),
                 ("X_ph", "P_ph")):
        series = traj.covs[:, mode_index(r), mode_index(c)]
        assert np.abs(series).max() < 1e-12
        worst = max(worst, np.abs(series).max())
    # the trajectory reports the maximum as its health number
    assert traj.cross_sector == worst
    assert integrate_covariance(build_moment_odes(1.5), 0.0, 1e-3,
                                1e-3).cross_sector == 0.0
    # and the guard raises above 1e-10, in either off-diagonal block: one
    # triangle of one pair alone trips it
    for r, c in (("x_at", "X_ph"), ("X_ph", "x_at")):
        covs = np.array([VACUUM] * 2)
        covs[1, mode_index(r), mode_index(c)] = 2e-10
        with pytest.raises(AssertionError,
                           match="cross-sector covariance grew"):
            _cross_sector_max(covs)
        covs[1, mode_index(r), mode_index(c)] = 0.9e-10
        assert _cross_sector_max(covs) == 0.9e-10


def test_sectors_split_the_modes():
    pairs = list(SECTORS.values())
    assert len(pairs) == 2 and sorted(sum(pairs, ())) == sorted(MODES)
    # the closed form defines each sector's entries and leaves NaN exactly
    # at the entries between the sectors, at every time of an array of any
    # shape
    inside = np.zeros((4, 4), dtype=bool)
    for pair in pairs:
        idx = [mode_index(m) for m in pair]
        inside[np.ix_(idx, idx)] = True
    for alpha, t in ((0.0, 0.5), (1.0, 0.0), (1.3, 2.0), (1.0, [0.5]),
                     (0.3, [0.0, 1.0, 2.0]), (2.0, np.ones((2, 3)))):
        cov = closed_form_covariances(alpha, t)
        assert cov.shape == np.shape(t) + (4, 4)
        assert np.array_equal(np.isnan(cov), np.broadcast_to(~inside,
                                                             cov.shape))


def test_covariance_symmetric_psd_and_uncertainty():
    traj = integrate_covariance(build_moment_odes(1.0), 3.0, 1e-3, 0.3)
    for cov in traj.covs:
        assert np.allclose(cov, cov.T, atol=1e-10)
        assert cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2 >= 0.25 - 1e-10
        assert np.linalg.eigvalsh(cov).min() >= -1e-10


def test_var_x_at_exactly_linear():
    alpha = 1.2
    traj = integrate_covariance(build_moment_odes(alpha), 2.0, 1e-3, 1e-3)
    expected = 0.5 * (1 + alpha ** 2 * traj.times)
    i = mode_index("x_at")
    assert np.abs(traj.covs[:, i, i] - expected).max() < 1e-10


def test_var_p_at_nonincreasing():
    traj = integrate_covariance(build_moment_odes(1.0), 4.0, 1e-3, 1e-3)
    i = mode_index("p_at")
    vp = traj.covs[:, i, i]
    assert (np.diff(vp) <= 1e-14).all()


# -- closed_form_covariances -----------------------------------------------------


def _entry(cov, r, c):
    return cov[mode_index(r), mode_index(c)]


def test_closed_form_initial_state():
    cov = closed_form_covariances(1.0, 0.0)
    assert _entry(cov, "p_at", "p_at") == pytest.approx(0.5)
    assert _entry(cov, "x_at", "x_at") == pytest.approx(0.5)
    assert _entry(cov, "X_ph", "X_ph") == 0.0
    assert _entry(cov, "p_at", "X_ph") == 0.0


def test_closed_form_long_time_limit():
    cov = closed_form_covariances(1.0, 50.0)
    assert _entry(cov, "p_at", "p_at") == pytest.approx(0.25, rel=1e-12)


def test_closed_form_spot_value_at_log2():
    cov = closed_form_covariances(1.0, math.log(2))
    assert _entry(cov, "p_at", "X_ph") == pytest.approx(-1.0 / 16.0,
                                                        rel=1e-12)


def test_closed_form_unavailable_entries_marked():
    cov = closed_form_covariances(1.0, 1.0)
    assert math.isnan(_entry(cov, "x_at", "X_ph"))
    assert all(math.isfinite(_entry(cov, r, c)) for r, c in PUBLISHED)


def test_closed_form_alpha_zero_limits():
    cov = closed_form_covariances(0.0, 2.0)
    assert _entry(cov, "X_ph", "X_ph") == pytest.approx(1.0)
    assert _entry(cov, "p_at", "X_ph") == 0.0
    assert _entry(cov, "P_ph", "P_ph") == pytest.approx(1.0)
    # both field variances are t / 2 even where t^3 overflows
    cov = closed_form_covariances(0.0, [1e103, 1e300])
    for mode in ("X_ph", "P_ph"):
        i = mode_index(mode)
        assert cov[:, i, i].tolist() == [5e102, 5e299]


#: (alpha, t) where alpha^2 is subnormal: u = alpha^2 t of 1e-20 (the
#: variances run of test_cli), 1e-2 near the top of the double range,
#: 2e-8 with alpha^2 just under the normal range, and u itself subnormal
#: or 0
SUBNORMAL_ALPHA2 = [(1e-160, 1e300), (1e-155, 1e308), (1.4e-154, 1e300),
                    (1e-170, 1e300), (1e-300, 1e300), (1e-155, 100.0),
                    (5e-324, 1e300)]


@pytest.mark.parametrize("alpha, t", SUBNORMAL_ALPHA2)
def test_rk4_at_subnormal_alpha_squared_matches_closed_form(alpha, t):
    # the drift's -alpha^2 is subnormal or 0 here: RK4 sums h = dt K and
    # dt b by degree in alpha and keeps every digit of alpha^2 dt (from the
    # evaluated drift the worst entry was 1.1e-5 off at alpha 1e-160 and
    # 1.0 at 1e-170); 100 steps keep RK4's own error below 3e-15
    traj = integrate_covariance(build_moment_odes(alpha), t, t / 100, t)
    closed = closed_form_covariances(alpha, t)
    for r, c in PUBLISHED:
        err = relative_error(_entry(traj.covs[-1], r, c), _entry(closed, r, c))
        assert err < 1e-14, (r, c, err)


def _decimal_closed_form(alpha, t):
    """The published entries in 800-digit decimals, with alpha^2 t exact:
    enough digits that 1 - exp(-u) keeps its own for u down to 1e-700."""
    with localcontext() as ctx:
        ctx.prec = 800
        a, t = Decimal(alpha), Decimal(t)
        u = a * a * t
        em = 1 - (-u).exp()
        return {("p_at", "p_at"): (1 + (-2 * u).exp()) / 4,
                ("x_at", "x_at"): (1 + u) / 2,
                ("x_at", "P_ph"): -a ** 3 * t ** 2 / 4,
                ("p_at", "X_ph"): -em * em / (4 * a),
                ("X_ph", "X_ph"): em * (2 + em) / (4 * a * a),
                ("P_ph", "P_ph"): t / 2 + a ** 4 * t ** 3 / 6}


#: (alpha, t) where alpha^2 is normal but the closed form's older general
#: form, which divided by alpha and alpha^2, was far off: u = alpha^2 t
#: subnormal or 0 (Var(X_ph) written as 0 at t = 1e-300), alpha^2 just
#: above the smallest normal, and u of 1e-200 at huge t
NORMAL_ALPHA2 = [(1e-9, 1e-300), (1e-20, 1e-300), (1e-110, 1e-300),
                 (1.5e-154, 1e-5), (1e-150, 1e100), (1e-110, 1e20)]

#: ordinary couplings and times
ORDINARY = [(alpha, t) for alpha in (0.3, 1.0, 3.0)
            for t in (1e-4, 0.5, 50.0)]


def test_closed_form_within_3_ulp_at_every_alpha():
    # at t = 2 every entry is the alpha = 0 limit to double precision
    zero = closed_form_covariances(0.0, 2.0)
    for alpha in (1e-160, 1e-170, 1e-300, 5e-324):
        cov = closed_form_covariances(alpha, 2.0)
        i, j = mode_index("p_at"), mode_index("X_ph")
        assert cov[i, j] == 0.0 and cov[j, j] == zero[j, j] == 1.0
        assert np.allclose(cov, zero, rtol=0, atol=1e-300, equal_nan=True)
    # u is formed from alpha t and no entry divides by a power of alpha:
    # each is within 3 ulp of the exact value, with alpha^2 subnormal (the
    # alpha = 0 limit was 1.7e11 ulp off in X_ph and P_ph at alpha 1e-155,
    # t 1e308, and wrote 0 for p_at, X_ph) or normal
    for alpha, t in SUBNORMAL_ALPHA2 + NORMAL_ALPHA2 + ORDINARY:
        cov = closed_form_covariances(alpha, t)
        for (r, c), exact in _decimal_closed_form(alpha, t).items():
            ulps = _ulps(_entry(cov, r, c), Fraction(exact))
            assert ulps <= 3, (alpha, t, r, c, ulps)


def _scalar_closed_form(alpha, t):
    """The closed form at one time, in Python floats: the reference."""
    cov = np.full((4, 4), np.nan)

    def put(r, c, value):
        i, j = mode_index(r), mode_index(c)
        cov[i, j] = cov[j, i] = value

    at = alpha * t
    u = alpha * at
    em = -math.expm1(-u)
    phi = em / u if u > 0 else 1.0
    put("x_at", "P_ph", -0.25 * u * at)
    put("p_at", "X_ph", -0.25 * phi * em * at)
    put("X_ph", "X_ph", 0.25 * phi * (2.0 + em) * t)
    put("p_at", "p_at", 0.25 * (1.0 + math.exp(-2.0 * u)))
    put("x_at", "x_at", 0.5 * (1.0 + u))
    put("P_ph", "P_ph", 0.5 * t + u * u * t / 6.0)
    return cov


#: entries whose formula takes no library function: +, -, * and / round
#: the same in NumPy as in Python floats.  The others call exp or expm1,
#: whose NumPy loops may differ from libm's by an ulp
_ARITHMETIC_ONLY = (("x_at", "x_at"), ("x_at", "P_ph"), ("P_ph", "P_ph"))

#: the couplings and times the closed form is checked on
CLOSED_FORM_ALPHAS = (0.0, 5e-324, 1e-9, 1e-3, 0.3, 1.0, 3.0)
CLOSED_FORM_TIMES = (0.0, 1e-300, 1e-4, 0.5, 1.0, 50.0)


@pytest.mark.parametrize("alpha", CLOSED_FORM_ALPHAS)
def test_closed_form_on_arrays_matches_scalar_reference(alpha):
    times = np.array(CLOSED_FORM_TIMES)
    stack = closed_form_covariances(alpha, times)
    assert stack.shape == (len(times), 4, 4)
    for t, cov in zip(times.tolist(), stack):
        single = closed_form_covariances(alpha, t)
        assert single.shape == (4, 4)
        # one time alone and the same time in a stack: the same bits
        assert single.tobytes() == cov.tobytes()
        ref = _scalar_closed_form(alpha, t)
        assert np.array_equal(np.isnan(cov), np.isnan(ref))
        for r, c in PUBLISHED:
            new, old = _entry(cov, r, c), _entry(ref, r, c)
            if (r, c) in _ARITHMETIC_ONLY:
                assert new == old, (r, c, t)
            else:
                assert abs(new - old) <= 2 * np.spacing(abs(old)), (r, c, t)


def _ulps(value, exact):
    """|value - exact| in spacings of the doubles at ``exact``."""
    spacing = Fraction(float(np.spacing(abs(float(exact)))))
    return float(abs(Fraction(value) - exact) / spacing)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cubic_entries_match_exact_arithmetic():
    # -alpha^3 t^2 / 4 and t/2 + alpha^4 t^3 / 6 in rationals, on the grid
    # above and at two variances runs where a tiny alpha lets through a t
    # whose cube overflows while alpha ** 4 underflows; a warning fails
    cases = [(alpha, CLOSED_FORM_TIMES) for alpha in CLOSED_FORM_ALPHAS]
    cases += [(1e-100, (1e200,)), (1e-110, (1e237,))]
    for alpha, times in cases:
        stack = closed_form_covariances(alpha, np.array(times))
        a = Fraction(alpha)
        for t, cov in zip(map(Fraction, times), stack):
            for (r, c), exact in (
                    (("x_at", "P_ph"), -a ** 3 * t * t / 4),
                    (("P_ph", "P_ph"), t / 2 + a ** 4 * t ** 3 / 6)):
                ulps = _ulps(_entry(cov, r, c), exact)
                assert ulps <= 8, (alpha, float(t), r, c, ulps)


def test_closed_form_rejects_any_negative_time():
    for times in (-1e-300, [-1.0, 0.5], [0.0, 1.0, -0.5], [[1.0], [-2.0]]):
        with pytest.raises(ConfigError, match="must be nonnegative"):
            closed_form_covariances(1.0, times)
    with pytest.raises(ConfigError, match="must be nonnegative"):
        closed_form_covariances(-0.1, [0.0, 1.0])


def _scalar_relative_error(value, ref):
    """The rule of :func:`relative_error` in Python floats: the reference."""
    diff = abs(value - ref)
    if ref == 0 and diff < 1e-14:
        return 0.0
    return diff / max(abs(ref), 1e-300)


def test_relative_error_on_arrays_is_the_scalar_rule():
    nan = math.nan
    # the ref == 0 exemption, its 1e-14 edge, the 1e-300 floor, a negative
    # ref, NaN in either argument, inf, and a quotient that overflows
    pairs = [(0.0, 0.0), (5e-15, 0.0), (-5e-15, 0.0), (1e-14, 0.0),
             (2e-14, 0.0), (1e-310, 1e-310), (2e-310, 1e-310),
             (1e-300, 0.0), (1.5, 1.0), (0.5, -1.0), (nan, 1.0), (1.0, nan),
             (nan, 0.0), (0.0, nan), (math.inf, 1.0), (math.inf, math.inf),
             (1.0, 1e-320), (1e10, 0.0)]
    values, refs = (np.array(col) for col in zip(*pairs))
    errs = relative_error(values, refs)
    assert errs.shape == values.shape
    for value, ref, err in zip(values.tolist(), refs.tolist(), errs.tolist()):
        expected = _scalar_relative_error(value, ref)
        assert (math.isnan(err) and math.isnan(expected)) or err == expected
        # a scalar call gives the same number, as a scalar
        single = relative_error(value, ref)
        assert np.ndim(single) == 0
        assert (math.isnan(single) and math.isnan(err)) or single == err
    # check 4's form: rows of columns, as nested sequences
    stacked = relative_error([values, values], [refs, refs])
    assert stacked.shape == (2, len(pairs))
    assert np.array_equal(stacked[1], errs, equal_nan=True)
    assert np.isnan(np.max(stacked))


# -- variance table ------------------------------------------------------------


def test_normalized_variances_unit_values():
    times = np.array([1.0])
    table = variance_table(times, closed_form_covariances(1.0, times))
    assert table["var_p_ph_norm"][0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert table["var_x_ph_norm"][0] == pytest.approx(
        0.25 * (3 + math.exp(-2) - 4 * math.exp(-1)), rel=1e-12)


def test_normalized_variances_vacuum_limit():
    times = np.array([1e-4])
    table = variance_table(times, closed_form_covariances(0.1, times))
    assert table["var_x_ph_norm"][0] == pytest.approx(0.5, abs=1e-5)
    assert table["var_p_ph_norm"][0] == pytest.approx(0.5, abs=1e-5)


def test_normalized_variances_large_time_asymptote():
    times = np.array([100.0])
    table = variance_table(times, closed_form_covariances(1.0, times))
    assert table["var_x_ph_norm"][0] == pytest.approx(3.0 / 400.0, rel=1e-10)


def test_squeezing_saturation():
    times = np.linspace(0.0, 10.0, 2001)
    atom_db = variance_table(times, closed_form_covariances(1.0, times))[
        "sq_db_atom"]
    expected = 10 * math.log10(2.0 / (1 + math.exp(-20.0)))
    assert atom_db.max() == pytest.approx(expected, abs=1e-9)
    assert atom_db.max() < 10 * math.log10(2.0)
    # monotone approach to the bound
    assert (np.diff(atom_db) > -1e-12).all()


def test_field_squeezing_at_large_interaction():
    times = np.linspace(0.0, 100.0, 101)
    field_db = variance_table(times, closed_form_covariances(1.0, times))[
        "sq_db_field_x"]
    assert field_db[-1] == pytest.approx(10 * math.log10(0.5 / 0.0075),
                                         abs=1e-6)
    assert field_db[-1] > 18.0


def test_uncertainty_products():
    times = np.linspace(0.0, 5.0, 501)
    table = variance_table(times, closed_form_covariances(1.0, times))
    assert (table["unc_prod_field"][1:] > 0.25).all()
    assert (table["unc_prod_atom"] >= 0.25 - 1e-12).all()
    assert table["unc_prod_field"][0] == pytest.approx(0.25)


def test_squeezing_rejects_nonpositive_variance():
    times = np.linspace(0.0, 1.0, 11)
    good = closed_form_covariances(1.0, times)
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
    table = variance_table(times, closed_form_covariances(1.0, times))
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
