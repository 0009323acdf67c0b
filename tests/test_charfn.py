"""Closed-form, characteristics, and finite-difference transport routes."""

import io
import math
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from doublepass import charfn
from doublepass.charfn import (RESIDUAL_H, BoundaryLeakError, CharSurface,
                               GridSpec, _upwind_layout, closed_form_char,
                               fd_solve, moc_solve, pde_residual)
from doublepass.errors import ConfigError
from doublepass.gaussian import closed_form_covariances, mode_index
from doublepass.ito import PdeCoefficients, double_pass_derivation
from doublepass.scalars import SYM_K, Cyclo, FormalScalar

FAMILIES = ("F", "G")


def closed_sampler(family, alpha):
    return lambda t, k, l: closed_form_char(family, alpha, t, k, l)


def closed_on_grid(family, alpha, t, grid):
    """The closed form on the full (k, l) mesh of ``grid``."""
    return closed_form_char(family, alpha, t, *np.meshgrid(
        grid.k_values(), grid.l_values(), indexing="ij"))


def full_surface(surf):
    """Every row of ``surf``: its stored k >= 0 rows, after the k < 0 rows,
    which are those rows read backwards."""
    v = surf.values
    return np.vstack((v[::-1, ::-1][:len(surf.k_values) // 2], v))


# -- closed form -----------------------------------------------------------------


def test_initial_condition():
    for family in FAMILIES:
        for l in (-2.0, 0.0, 1.5):
            assert closed_form_char(family, 1.0, 0.0, 0.7, l) == \
                pytest.approx(math.exp(-l * l / 4))


def test_normalization_at_origin():
    for family in FAMILIES:
        for t in (0.0, 0.5, 3.0):
            assert closed_form_char(family, 1.0, t, 0.0, 0.0) == 1.0


def test_g_slice_at_k_zero():
    alpha, t, l = 1.2, 0.8, 1.1
    expected = math.exp(-0.25 * l * l * (1 + alpha * alpha * t))
    assert closed_form_char("G", alpha, t, 0.0, l) == pytest.approx(expected)


def origin_value(values):
    """The value at k = l = 0 of a surface (both grids are symmetric)."""
    nk, nl = values.shape
    return values[nk // 2, nl // 2]


def test_surface_invariants():
    values = closed_on_grid("F", 1.0, 0.7, GridSpec(6.0, 0.1, 2.0, 0.5))
    assert 0.0 < values.min() and values.max() <= 1.0
    assert origin_value(values) == 1.0
    # even under (k, l) -> (-k, -l)
    assert np.allclose(values, values[::-1, ::-1], atol=1e-9)


def test_log_derivatives_reproduce_covariances():
    # second derivatives of log F at the origin give the covariance entries
    alpha, t, h = 1.0, 1.3, 1e-3
    cov = closed_form_covariances(alpha, t)
    p, x = mode_index("p_at"), mode_index("X_ph")
    f = closed_sampler("F", alpha)

    def logf(k, l):
        return math.log(f(t, k, l))

    d_ll = (logf(0, h) - 2 * logf(0, 0) + logf(0, -h)) / h ** 2
    d_kk = (logf(h, 0) - 2 * logf(0, 0) + logf(-h, 0)) / h ** 2
    d_kl = (logf(h, h) - logf(h, -h) - logf(-h, h) + logf(-h, -h)) / (4 * h * h)
    assert -d_ll == pytest.approx(cov[p, p], abs=1e-6)
    assert -d_kk == pytest.approx(cov[x, x], abs=1e-6)
    assert -d_kl == pytest.approx(cov[p, x], abs=1e-6)


# -- method of characteristics ------------------------------------------------------


def test_moc_matches_closed_form_grid():
    worst = 0.0
    for family in FAMILIES:
        for alpha in (0.5, 1.0, 2.0):
            for t in (0.1, 1.0, 3.0):
                for k in np.linspace(-3, 3, 7):
                    for l in np.linspace(-3, 3, 7):
                        m = moc_solve(family, alpha, t, float(k), float(l))
                        c = closed_form_char(family, alpha, t, float(k),
                                             float(l))
                        worst = max(worst, abs(m - c))
    assert worst < 1e-10


def test_moc_sharp_characteristic_matches_closed_form():
    # F at alpha = 5, t = 3: the decay rate grows like exp(2 a^2 (s - t)),
    # by e every 0.02 towards s = t; only graded panels resolve it
    worst = max(abs(moc_solve("F", 5.0, 3.0, k, l)
                    - closed_form_char("F", 5.0, 3.0, k, l))
                for k in np.linspace(-3.0, 3.0, 7).tolist()
                for l in np.linspace(-3.0, 3.0, 7).tolist())
    assert worst < 1e-10


@pytest.mark.parametrize("alpha, t", [(30.0, 0.5), (30.0, 5.0), (100.0, 0.5),
                                      (100.0, 5.0)])
def test_moc_resolves_the_f_boundary_layer(alpha, t):
    # the layer at tau = 0 is ~1/(2 alpha^2) wide, far below one panel of
    # [0, t]: from alpha^2 t ~ 4000 on, an ungraded rule misses it and its
    # 10- and 20-point values still agree
    worst = max(abs(moc_solve("F", alpha, t, k, l)
                    - closed_form_char("F", alpha, t, k, l))
                for k in np.linspace(-3.0, 3.0, 7).tolist()
                for l in np.linspace(-3.0, 3.0, 7).tolist())
    assert worst < 1e-10


def test_moc_holds_at_every_alpha():
    # in reversed time tau = t - s the characteristic has no k/alpha term and
    # no node near s = t whose rounding alpha^2 amplifies, so both families
    # hold from alpha = 0 through the smallest subnormal up to alpha^2 t = 1e12
    probe = np.linspace(-3.0, 3.0, 7).tolist()
    for alpha, t in ((0.0, 0.5), (1e-3, 0.5), (1e-9, 0.5), (1e-160, 0.5),
                     (5e-324, 0.5), (1000.0, 5.0), (1e4, 1.0), (1e6, 1.0)):
        for family in FAMILIES:
            worst = max(abs(moc_solve(family, alpha, t, k, l)
                            - closed_form_char(family, alpha, t, k, l))
                        for k in probe for l in probe)
            assert worst < 1e-10, (family, alpha, t, worst)


def test_moc_quadrature_guard_raises(monkeypatch):
    # G at alpha = 30, t = 3, k = -3: the decay exponent is of order 1e7, so
    # the 10- and 20-point rules differ by rounding alone, ~1e-8 > 1e-9; the
    # value underflows to 0 even with that error added, as the closed form
    assert moc_solve("G", 30.0, 3.0, -3.0, 0.0) == 0.0
    assert closed_form_char("G", 30.0, 3.0, -3.0, 0.0) == 0.0
    # at a moderate decay the same error estimate still raises
    quadrature = charfn._gauss_legendre
    monkeypatch.setattr(charfn, "_gauss_legendre",
                        lambda fn, a, b, breaks: (
                            quadrature(fn, a, b, breaks)[0], 2e-9))
    with pytest.raises(RuntimeError, match="error estimate 2.00e-09"):
        moc_solve("F", 1.0, 1.0, 1.0, 1.0)


def test_moc_initial_time():
    assert moc_solve("F", 1.0, 0.0, 2.0, 1.0) == \
        pytest.approx(math.exp(-0.25))


def test_moc_alpha_zero():
    val = moc_solve("F", 0.0, 2.0, 1.5, 0.5)
    assert val == pytest.approx(math.exp(-0.5 ** 2 / 4 - 1.5 ** 2 * 2 / 4),
                                rel=1e-12)


def test_moc_f_slice_at_k_zero():
    # pure decay along expanding characteristics reproduces var_p_at
    alpha, t, l = 0.8, 1.2, 1.4
    var_p = 0.25 * (1 + math.exp(-2 * alpha * alpha * t))
    assert moc_solve("F", alpha, t, 0.0, l) == \
        pytest.approx(math.exp(-0.5 * var_p * l * l), rel=1e-12)


# -- finite differences ---------------------------------------------------------------


def test_fd_alpha_zero_is_exact():
    grid = GridSpec(l_max=8.0, dl=0.05, k_max=2.0, dk=1.0)
    (surf,) = fd_solve(("F",), 0.0, grid, 0.3, 1e-3)
    kk, ll = np.meshgrid(grid.k_values(), grid.l_values(), indexing="ij")
    exact = np.exp(-ll ** 2 / 4) * np.exp(-kk ** 2 * 0.3 / 4)
    assert np.abs(full_surface(surf) - exact).max() < 1e-12


def test_fd_matches_closed_form():
    grid = GridSpec(l_max=12.0, dl=0.02, k_max=3.0, dk=1.0)
    for family in FAMILIES:
        (surf,) = fd_solve((family,), 1.0, grid, 0.5, 4e-4)
        full = full_surface(surf)
        ref = closed_on_grid(family, 1.0, 0.5, grid)
        assert np.abs(full - ref).max() < 5e-4
        assert abs(origin_value(full) - 1.0) <= 1e-5
        assert full.max() <= 1.0 + 1e-5


def test_fd_convergence_order_two():
    errs = []
    for dl in (0.08, 0.04):
        grid = GridSpec(l_max=12.0, dl=dl, k_max=2.0, dk=1.0)
        dt = dl * dl / 4.0
        n = math.ceil(0.4 / dt)
        (surf,) = fd_solve(("F",), 1.0, grid, 0.4, 0.4 / n)
        ref = closed_on_grid("F", 1.0, 0.4, grid)
        errs.append(np.abs(full_surface(surf) - ref).max())
    order = math.log2(errs[0] / errs[1])
    assert 1.5 < order < 2.5


def test_fd_origin_stays_normalized():
    grid = GridSpec(l_max=10.0, dl=0.05, k_max=1.0, dk=0.5)
    (surf,) = fd_solve(("G",), 1.0, grid, 0.5, 1e-3)
    assert origin_value(full_surface(surf)) == pytest.approx(1.0, abs=1e-9)


def test_grid_spec_validation():
    with pytest.raises(ConfigError, match="pde.dl"):
        GridSpec(l_max=8.0, dl=0.03, k_max=8.0, dk=0.02)   # does not divide
    with pytest.raises(ConfigError, match="pde.l_max"):
        GridSpec(l_max=-1.0, dl=0.02, k_max=8.0, dk=0.02)
    with pytest.raises(ConfigError, match="pde.dk"):
        GridSpec(l_max=8.0, dl=0.02, k_max=8.0, dk=0.03)
    # the point counts, as Python ints, size both axes; a 16 000 001-point
    # axis is counted without allocating it
    grid = GridSpec(l_max=8.0, dl=0.02, k_max=2.0, dk=1.0)
    assert grid.shape == (len(grid.k_values()), len(grid.l_values())) \
        == (5, 801)
    assert GridSpec(8.0, 1e-6, 8.0, 0.02).shape == (801, 16_000_001)
    assert all(type(n) is int for n in grid.shape)


def test_fd_cfl_violation_rejected():
    grid = GridSpec(l_max=8.0, dl=0.1, k_max=2.0, dk=1.0)
    with pytest.raises(ConfigError):
        fd_solve(("F",), 1.0, grid, 0.5, 0.05)
    # CFL 0.605: Heun on the second-order upwind stencil amplifies the
    # highest wavenumber by 1 - 4 nu + 8 nu^2 > 1.  With the leak monitor
    # off, this grid at t = 0.15 errs by 1.2e-5 for nu up to 0.605, then by
    # 4e2 at nu = 0.756 and 4e18 at 0.907, as grid-scale rounding grows
    grid = GridSpec(l_max=12.0, dl=0.02, k_max=0.1, dk=0.05)
    with pytest.raises(ConfigError, match="CFL"):
        fd_solve(("F",), 1.0, grid, 0.15, 1e-3)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("alpha", (0.0, 0.7, 1.0))
@pytest.mark.parametrize("grid", (
    GridSpec(l_max=10.0, dl=0.02, k_max=2.0, dk=1.0),     # compare's grid
    GridSpec(l_max=8.0, dl=0.02, k_max=0.1, dk=0.02)),    # 11 x 801
    ids=("compare", "k_slices"))
def test_fd_surface_exactly_even(family, alpha, grid):
    # the grid is exactly symmetric, c0 even and c1 odd under
    # (k, l) -> (-k, -l), and IEEE rounding is symmetric under negation.
    # A surface holds the k >= 0 rows; the k = 0 row is its own mirror, bit
    # for bit (the other rows' mirrors are pinned by the two-stencil test)
    assert np.array_equal(grid.l_values(), -grid.l_values()[::-1])
    kv = grid.k_values()
    assert np.array_equal(kv, -kv[::-1])
    (surf,) = fd_solve((family,), alpha, grid, 0.05, 4e-4)
    assert surf.values.shape == (len(kv) // 2 + 1, len(grid.l_values()))
    assert kv[len(kv) // 2] == 0.0
    row = surf.values[0]
    assert np.array_equal(row, row[::-1])
    assert np.array_equal(np.signbit(row), np.signbit(row[::-1]))


def test_solvers_read_the_derived_equation(monkeypatch):
    # replace the derived F equation by pure decay, df/dt = -k^2/4 f: both
    # solvers must then follow it, whatever alpha the real equation has
    decay = PdeCoefficients("F", (SYM_K * SYM_K).scale(Cyclo(Fraction(-1, 4))),
                            FormalScalar.zero())
    monkeypatch.setattr(charfn, "double_pass_derivation",
                        lambda: SimpleNamespace(transport={"F": decay}))
    grid, t = GridSpec(l_max=8.0, dl=0.05, k_max=2.0, dk=1.0), 0.3
    kk, ll = np.meshgrid(grid.k_values(), grid.l_values(), indexing="ij")
    exact = np.exp(-ll ** 2 / 4 - kk ** 2 * t / 4)
    (surf,) = fd_solve(("F",), 1.0, grid, t, 1e-3)
    assert np.abs(full_surface(surf) - exact).max() < 1e-12
    for k, l in ((0.0, 0.0), (1.5, -0.5), (-2.0, 2.5)):
        assert moc_solve("F", 1.0, t, k, l) == pytest.approx(
            math.exp(-l * l / 4 - k * k * t / 4), rel=1e-12, abs=1e-12)


def test_fd_rejects_overflowing_coefficients():
    # l^2 = 1e320 overflows: a configuration error that names the keys
    grid = GridSpec(l_max=1e160, dl=1e158, k_max=1e160, dk=1e158)
    for family in FAMILIES:
        with pytest.raises(ConfigError, match="pde.l_max and pde.k_max"):
            fd_solve((family,), 1.0, grid, 0.5, 1e-3)


def test_fd_boundary_leak_detected():
    grid = GridSpec(l_max=2.0, dl=0.05, k_max=1.0, dk=0.5)
    with pytest.raises(BoundaryLeakError):
        fd_solve(("F",), 1.0, grid, 0.5, 1e-3)


# Reference: the two-stencil step (zero-padded shifted copies, both upwind
# stencils at every point, one kept per point).  fd_solve folds the same step
# into fixed five-tap weights, so the two differ by rounding alone.

#: rounding of one FD step, per unit of the largest value (at most 1 here):
#: either route forms a value from at most 16 rounded operations on terms no
#: larger than it (the step map's 13 terms and 5 products, Heun's stages),
#: and under the CFL bound a step does not amplify an earlier difference, so
#: after n steps the routes differ by at most n times this
FD_STEP_ROUNDING = 16 * np.finfo(float).eps


def _two_stencil_gradient(f, a, dl):
    fm1 = np.zeros_like(f)
    fm2 = np.zeros_like(f)
    fp1 = np.zeros_like(f)
    fp2 = np.zeros_like(f)
    fm1[:, 1:] = f[:, :-1]
    fm2[:, 2:] = f[:, :-2]
    fp1[:, :-1] = f[:, 1:]
    fp2[:, :-2] = f[:, 2:]
    backward = (3.0 * f - 4.0 * fm1 + fm2) / (2.0 * dl)
    forward = (-3.0 * f + 4.0 * fp1 - fp2) / (2.0 * dl)
    return np.where(a >= 0.0, backward, forward)


def _two_stencil_fd(family, alpha, grid, n_steps, dt, f0=None):
    """(values, cfl, boundary values after each step) of the old loop, from
    the row ``f0`` in every row (default: the initial value)."""
    kk, ll = np.meshgrid(grid.k_values(), grid.l_values(), indexing="ij")
    # the same derived evaluation fd_solve reads
    decay, c1 = double_pass_derivation().transport[family].evaluate(
        alpha, kk, ll)
    drift = -c1
    lv = grid.l_values()
    if f0 is None:
        f0 = np.exp(-lv * lv / 4.0)
    f = f0[None, :] * np.ones((len(grid.k_values()), 1))
    half_decay = np.exp(0.5 * dt * decay)
    edges = []
    for _ in range(n_steps):
        f = f * half_decay
        k1 = -drift * _two_stencil_gradient(f, drift, grid.dl)
        k2 = -drift * _two_stencil_gradient(f + dt * k1, drift, grid.dl)
        f = f + 0.5 * dt * (k1 + k2)
        f = f * half_decay
        edges.append(max(float(np.abs(f[:, 0]).max()),
                         float(np.abs(f[:, -1]).max())))
    cfl = float(np.abs(drift).max()) * dt / grid.dl
    return f, cfl, edges


# k of both signs and k = 0, where the G drift is exactly 0 on a whole row
# (and the F drift at l = 0; at alpha = 0 it is 0 everywhere).
REF_GRID = GridSpec(l_max=8.0, dl=0.1, k_max=1.0, dk=0.5)
# |k| > alpha * l_max: the F drift points into the grid at the outer edges,
# so the stencils there read the zero ghosts (tolerance 1: no leak error).
INFLOW_GRID = GridSpec(l_max=4.0, dl=0.1, k_max=4.0, dk=2.0)
# at alpha = 1 the F rows have 1, 40 and 80 of 81 points in their forward
# run: a ghost reads a one-point run on one side, the zero slot on the other
EDGE_RUN_GRID = GridSpec(l_max=4.0, dl=0.1, k_max=3.95, dk=3.95)
# an even number of k rows, none at k = 0: FD steps k = 0.25 and 0.75 only
EVEN_GRID = GridSpec(l_max=8.0, dl=0.1, k_max=0.75, dk=0.5)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("alpha", (0.0, 0.7, 1.0))
@pytest.mark.parametrize("grid, tol", ((REF_GRID, 1e-3), (INFLOW_GRID, 1.0),
                                       (EDGE_RUN_GRID, 1.0),
                                       (EVEN_GRID, 1e-3)),
                         ids=("outflow", "inflow", "edge_run", "even_rows"))
def test_fd_bit_identical_to_two_stencil_step(family, alpha, grid, tol,
                                             monkeypatch):
    # the reference steps every row; fd_solve steps the k >= 0 rows, and
    # the k < 0 rows of the reference are those rows read backwards
    monkeypatch.setattr(charfn, "BOUNDARY_TOL", tol)
    kv = grid.k_values()
    assert kv.min() < 0 < kv.max() and (0.0 in kv) == (len(kv) % 2 == 1)
    dt, n_steps = 0.005, 40
    ref, cfl, edges = _two_stencil_fd(family, alpha, grid, n_steps, dt)
    (surf,) = fd_solve((family,), alpha, grid, n_steps * dt, dt)
    full = full_surface(surf)
    bound = n_steps * FD_STEP_ROUNDING
    assert np.abs(full - ref).max() <= bound
    assert np.array_equal(np.signbit(full), np.signbit(ref))
    assert surf.cfl == cfl
    assert abs(surf.boundary_max - max(edges)) <= bound


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("alpha", (0.0, 0.7, 1.0))
@pytest.mark.parametrize("grid", (INFLOW_GRID, EDGE_RUN_GRID),
                         ids=("inflow", "edge_run"))
def test_fd_step_weights_match_one_two_stencil_step(family, alpha, grid,
                                                     monkeypatch):
    # one step of a block's five-tap weights on every unit vector in l, in
    # a block of every row of the grid: rows with 0, 1, 40, 80 and 81 of
    # 81 points in their forward run, so every ghost and the zero slot are
    # read.  Each column of the step map is that of one two-stencil step
    monkeypatch.setattr(charfn, "BOUNDARY_TOL", np.inf)
    dt = 0.005
    kk, ll = np.meshgrid(grid.k_values(), grid.l_values(), indexing="ij")
    decay, c1 = double_pass_derivation().transport[family].evaluate(
        alpha, kk, ll)
    drift, decay = (np.broadcast_to(c, kk.shape) for c in (-c1, decay))
    runs = set((drift < 0.0).sum(axis=1).tolist())
    for unit in np.eye(len(grid.l_values())):
        values, _, trip = charfn._fd_block(drift, decay, unit, dt, grid.dl, 1)
        ref, _, _ = _two_stencil_fd(family, alpha, grid, 1, dt, unit)
        assert trip is None
        assert np.abs(values - ref).max() <= 4 * np.finfo(float).eps
        assert np.array_equal(values == 0.0, ref == 0.0)
    if family == "F" and alpha == 1.0:
        assert runs == ({1, 40, 80} if grid is EDGE_RUN_GRID
                        else {0, 20, 40, 60, 80})
    if family == "F" and alpha == 0.7 and grid is INFLOW_GRID:
        assert 81 in runs


def test_fd_window_guard_survives_optimize_flag(capsys):
    # a layout whose ghost of column m-2 before the forward run copies the
    # zero slot, as the '-' ghost does: the step of column m-1 reads m-2
    # through the stencil of column m, whose drift is 1, in none of its slots
    code = ("import numpy as np\n"
            "from doublepass.charfn import _step_weights, _upwind_layout\n"
            "drift = np.array([[-1.0, -1.0, 1.0, 1.0]])\n"
            "pos, ghost, source = _upwind_layout(drift < 0.0)\n"
            "weights = _step_weights(pos, ghost, source, drift, 0 * drift,"
            " 0.1, 1.0)\n"
            "source[0] = source[1]\n"
            "try:\n"
            "    _step_weights(pos, ghost, source, drift, 0 * drift, 0.1, 1.0)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n")
    message = ("an FD step reads a column outside the five slots before a"
               " point\n")
    res = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == message
    exec(code, {})
    assert capsys.readouterr().out == message


@pytest.mark.parametrize("grid, tol", ((REF_GRID, 1e-3), (INFLOW_GRID, 1.0),
                                       (EVEN_GRID, 1e-3)),
                         ids=("outflow", "inflow", "even_rows"))
def test_fd_joint_call_matches_single_family_calls(grid, tol, monkeypatch):
    # the families share one state but no row: each surface and its health
    # numbers are those of its own call, in either order
    monkeypatch.setattr(charfn, "BOUNDARY_TOL", tol)
    dt, t = 0.005, 0.2
    singles = {family: fd_solve((family,), 0.7, grid, t, dt)[0]
               for family in FAMILIES}
    assert singles["F"].cfl != singles["G"].cfl
    for families in (FAMILIES, FAMILIES[::-1]):
        joint = fd_solve(families, 0.7, grid, t, dt)
        assert [surf.family for surf in joint] == list(families)
        for surf in joint:
            single = singles[surf.family]
            assert np.array_equal(surf.values, single.values)
            assert surf.cfl == single.cfl
            assert surf.boundary_max == single.boundary_max


def test_fd_joint_call_raises_at_the_earlier_leak(monkeypatch):
    # G here is F's equation with twice its drift (still odd in (k, l)), so
    # it reaches the boundary first
    f_pde = double_pass_derivation().transport["F"]
    fast = PdeCoefficients("G", f_pde.c0, f_pde.c1.scale(Cyclo(2)))
    monkeypatch.setattr(charfn, "double_pass_derivation", lambda:
                        SimpleNamespace(transport={"F": f_pde, "G": fast}))
    grid, dt = GridSpec(l_max=6.0, dl=0.05, k_max=1.0, dk=0.5), 1e-3

    def first_leak(families):
        """Steps taken when the monitor trips (the running max only grows)."""
        clean, leaky = 0, 512
        while leaky - clean > 1:
            mid = (clean + leaky) // 2
            try:
                fd_solve(families, 1.0, grid, mid * dt, dt)
                clean = mid
            except BoundaryLeakError:
                leaky = mid
        return leaky

    # row blocks of one row (of 249 slots), of two rows (a block of F and G
    # rows between blocks of one family) and the default (one block): a
    # later block may trip before the blocks run ahead of it
    for budget in (8 * 249, 8 * 2 * 249, charfn.FD_BLOCK_BYTES):
        monkeypatch.setattr(charfn, "FD_BLOCK_BYTES", budget)
        step_f, step_g = first_leak(("F",)), first_leak(("G",))
        assert (step_g, step_f) == (86, 309)
        assert first_leak(FAMILIES) == first_leak(FAMILIES[::-1]) == step_g
        with pytest.raises(BoundaryLeakError) as single:
            fd_solve(("G",), 1.0, grid, step_g * dt, dt)
        with pytest.raises(BoundaryLeakError) as joint:
            fd_solve(FAMILIES, 1.0, grid, step_g * dt, dt)
        assert str(joint.value) == str(single.value) == (
            "boundary value 1.019e-03 exceeds tolerance 1.0e-03;"
            " widen the l grid")
        # past F's trip too: in F, G order F's blocks trip first, at 309,
        # and G's blocks then trip earlier; the error is still G's at 86
        for families in (FAMILIES, FAMILIES[::-1]):
            with pytest.raises(BoundaryLeakError) as longer:
                fd_solve(families, 1.0, grid, 400 * dt, dt)
            assert str(longer.value) == str(single.value)
        before = fd_solve(FAMILIES, 1.0, grid, (step_g - 1) * dt, dt)
        for surf in before:
            (alone,) = fd_solve((surf.family,), 1.0, grid,
                                (step_g - 1) * dt, dt)
            assert surf.boundary_max == alone.boundary_max


def _record_blocks(monkeypatch):
    """(rows, trip) of every ``_fd_block`` call from now on."""
    blocks, block = [], charfn._fd_block

    def recorded(drift, *args):
        result = block(drift, *args)
        blocks.append((len(drift), result[2]))
        return result

    monkeypatch.setattr(charfn, "_fd_block", recorded)
    return blocks


@pytest.mark.parametrize("batch", (1, 5, 32, 1000))
def test_fd_leak_found_in_a_partial_last_batch(batch, monkeypatch):
    # F trips at step 309 of this grid (test_fd_boundary_leak_on_same_step).
    # A run of 309 steps trips at its last step, in a last batch that is
    # not full for every batch size but 1 (at 1000 the run is one partial
    # batch); a run of 311 steps trips two steps before its end
    monkeypatch.setattr(charfn, "_LEAK_CHECK_STEPS", batch)
    monkeypatch.setattr(charfn, "FD_BLOCK_BYTES", 8 * 249)
    blocks = _record_blocks(monkeypatch)
    grid, dt = GridSpec(l_max=6.0, dl=0.05, k_max=1.0, dk=0.5), 1e-3
    messages = set()
    for n_steps in (309, 311):
        with pytest.raises(BoundaryLeakError) as info:
            fd_solve(FAMILIES, 1.0, grid, n_steps * dt, dt)
        messages.add(str(info.value))
    assert messages == {
        "boundary value 1.005e-03 exceeds tolerance 1.0e-03; widen the l grid"}
    assert {trip[0] for _, trip in blocks if trip is not None} == {309}
    # one step before the trip, the surfaces are those of the defaults
    batched = fd_solve(FAMILIES, 1.0, grid, 308 * dt, dt)
    monkeypatch.undo()
    for surf, ref in zip(batched, fd_solve(FAMILIES, 1.0, grid, 308 * dt, dt)):
        assert np.array_equal(surf.values, ref.values)
        assert surf.boundary_max == ref.boundary_max


# nine k rows, |k| up to 4 > alpha * l_max: rows with inflow, outflow and
# k = 0; 5 rows of 89 slots per family
BLOCK_GRID = GridSpec(l_max=4.0, dl=0.1, k_max=4.0, dk=1.0)


@pytest.mark.parametrize("rows, sizes", ((1, [1] * 10), (3, [3, 3, 3, 1]),
                                         (4, [4, 4, 2]), (10, [10])))
def test_fd_row_blocks_match_one_block(rows, sizes, monkeypatch):
    # the rows never couple: any cut into blocks, across the families too,
    # steps every row exactly as one block does
    monkeypatch.setattr(charfn, "BOUNDARY_TOL", 1.0)
    whole = fd_solve(FAMILIES, 0.7, BLOCK_GRID, 0.2, 0.005)
    blocks = _record_blocks(monkeypatch)
    monkeypatch.setattr(charfn, "FD_BLOCK_BYTES", rows * 89 * 8 + 7)
    cut = fd_solve(FAMILIES, 0.7, BLOCK_GRID, 0.2, 0.005)
    assert [n_rows for n_rows, _ in blocks] == sizes
    for surf, ref in zip(cut, whole):
        assert np.array_equal(surf.values, ref.values)
        assert np.array_equal(np.signbit(surf.values), np.signbit(ref.values))
        assert surf.cfl == ref.cfl
        assert surf.boundary_max == ref.boundary_max


@pytest.mark.parametrize("grid, sizes", (
    # compare's grid and the pde_grid benchmark's: one block each
    (GridSpec(l_max=10.0, dl=0.02, k_max=2.0, dk=1.0), [6]),
    (GridSpec(l_max=8.0, dl=0.02, k_max=0.1, dk=0.02), [12]),
    # the default pde grid: 802 rows in blocks of 40
    (GridSpec(l_max=8.0, dl=0.02, k_max=8.0, dk=0.02), [40] * 20 + [2]),
), ids=("compare", "pde_grid", "default"))
def test_fd_block_sizes(grid, sizes, monkeypatch):
    blocks = _record_blocks(monkeypatch)
    fd_solve(FAMILIES, 1.0, grid, 4e-4, 4e-4)
    assert [n_rows for n_rows, _ in blocks] == sizes


def test_upwind_layout_slots():
    forward = np.array([[True, True, False],
                        [False, False, False],
                        [True, True, True]])
    nk, nl = forward.shape
    pos, ghost, source = _upwind_layout(forward)
    # each row in upwind order: four ghosts, columns m-1, ..., 0, four
    # ghosts, columns m, ..., nl-1
    assert pos.tolist() == [[5, 4, 10], [19, 20, 21], [28, 27, 26]]
    assert sorted(pos.ravel().tolist() + ghost.tolist()) == list(range(33))
    zero = 33
    copies = dict(zip(ghost.tolist(), source.tolist()))
    # the ghosts copy the columns m-2, -, m+1, m and m+1, -, m-2, m-1
    assert copies == {0: 5, 1: zero, 2: zero, 3: 10,
                      6: zero, 7: zero, 8: 5, 9: 4,
                      11: zero, 12: zero, 13: 20, 14: 19,
                      15: 20, 16: zero, 17: zero, 18: zero,
                      22: 27, 23: zero, 24: zero, 25: zero,
                      29: zero, 30: zero, 31: 27, 32: 26}
    # every slot of row r, grid or ghost, lies in one block of nl + 8
    for r in range(nk):
        row_ghosts = ghost[8 * r:8 * r + 8]
        for slot in pos[r].tolist() + row_ghosts.tolist():
            assert r * (nl + 8) <= slot < (r + 1) * (nl + 8)
    with pytest.raises(RuntimeError):
        _upwind_layout(np.array([[False, True]]))


def test_fd_boundary_leak_on_same_step():
    grid = GridSpec(l_max=6.0, dl=0.05, k_max=1.0, dk=0.5)
    dt, tol = 1e-3, charfn.BOUNDARY_TOL
    _, _, edges = _two_stencil_fd("F", 1.0, grid, 500, dt)
    leaks = np.maximum.accumulate(edges)
    first = int(np.argmax(leaks > tol)) + 1      # steps taken when it trips
    assert leaks[first - 1] > tol and first > 1
    (before,) = fd_solve(("F",), 1.0, grid, (first - 1) * dt, dt)
    assert first == 309
    assert abs(before.boundary_max - leaks[first - 2]) <= \
        (first - 1) * FD_STEP_ROUNDING
    with pytest.raises(BoundaryLeakError) as info:
        fd_solve(("F",), 1.0, grid, first * dt, dt)
    assert str(info.value) == (
        f"boundary value {leaks[first - 1]:.3e} exceeds tolerance {tol:.1e};"
        " widen the l grid")


def test_fd_cfl_limit():
    grid = GridSpec(l_max=8.0, dl=0.1, k_max=1.0, dk=0.5)
    # G drift is alpha * k: |drift| * dt / dl = 1/2 at alpha = 1, dt = dl/2
    (at_limit,) = fd_solve(("G",), 1.0, grid, 0.2, 0.05)
    assert at_limit.cfl == 0.5
    # just above the limit the message shows the number that failed, in its
    # shortest round-trip form, not rounded to the limit
    with pytest.raises(ConfigError) as info:
        fd_solve(("G",), 1.0 + 1e-9, grid, 0.2, 0.05)
    assert str(info.value) == (
        "CFL violation: |drift|*dt/dl = 0.5000000005 > 0.5")


def test_fd_health_only_on_fd_surfaces():
    grid = GridSpec(l_max=8.0, dl=0.1, k_max=1.0, dk=0.5)
    # at t = 0 no step runs: every row is the initial value, bit for bit,
    # and the surface still carries its health (F drift 9 at l = 8, k = -1:
    # CFL 0.45 at dt 0.005, 0.9 at dt 0.01)
    (surf,) = fd_solve(("F",), 1.0, grid, 0.0, 0.005)
    lv = grid.l_values()
    for row in surf.values:
        assert np.array_equal(row, np.exp(-lv * lv / 4.0))
    assert surf.cfl == pytest.approx(0.45) and surf.boundary_max == 0.0
    with pytest.raises(ConfigError, match="CFL"):
        fd_solve(("F",), 1.0, grid, 0.0, 0.01)
    # the health numbers are required: no surface is built without them
    with pytest.raises(TypeError, match="cfl.*boundary_max"):
        CharSurface("F", 1.0, 0.0, surf.k_values, surf.l_values, surf.values)


def test_surface_shape_guard_survives_optimize_flag():
    code = ("import numpy as np\n"
            "from doublepass.charfn import CharSurface\n"
            "try:\n"
            "    CharSurface('F', 1.0, 0.0, np.zeros(2), np.zeros(3),"
            " np.zeros((3, 2)), 0.0, 0.0)\n"
            "except ValueError:\n"
            "    print('raised')\n")
    res = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "raised\n"
    with pytest.raises(ValueError):
        CharSurface("F", 1.0, 0.0, np.zeros(2), np.zeros(3), np.zeros((3, 2)),
                    0.0, 0.0)


def test_surface_csv_matches_per_row_formatting(monkeypatch):
    monkeypatch.setattr(charfn, "BOUNDARY_TOL", 1.0)
    grid = GridSpec(l_max=1.0, dl=0.25, k_max=0.5, dk=0.25)
    (surf,) = fd_solve(("G",), 0.7, grid, 0.05, 0.01)
    buf = io.StringIO()
    surf.to_csv(buf)
    full = full_surface(surf)
    rows = [f"{k:.12g},{l:.12g},{full[i, j]:.12g}"
            for i, k in enumerate(surf.k_values)
            for j, l in enumerate(surf.l_values)]
    lines = buf.getvalue().split("\n")
    assert lines[2:] == rows + [""]
    assert buf.tell() == len(buf.getvalue())


def _reference_csv_body(surf):
    """The lines after the header, each number formatted on its own line."""
    full = full_surface(surf)
    return "".join("{:.12g},{:.12g},{:.12g}\n".format(k, l, full[i, j])
                   for i, k in enumerate(surf.k_values)
                   for j, l in enumerate(surf.l_values))


def _hand_built(values):
    """A surface storing ``values`` as its k >= 0 rows, k = 0 among them."""
    rows, nl = values.shape
    return CharSurface("F", 1.0, 0.1, np.linspace(-1.0, 1.0, 2 * rows - 1),
                       np.linspace(-2.0, 2.0, nl), values, 0.0, 0.0)


def _closed_surface(family, alpha, t, grid):
    """A hand-built surface holding the closed form on ``grid``."""
    nk = grid.shape[0]
    return CharSurface(family, alpha, t, grid.k_values(), grid.l_values(),
                       closed_on_grid(family, alpha, t, grid)[nk // 2:],
                       0.0, 0.0)


# odd nk (k = 0 among the rows) and even nk (k_max 0.5, dk 0.2: six rows)
CSV_GRIDS = (GridSpec(l_max=8.0, dl=0.1, k_max=0.5, dk=0.25),
             GridSpec(l_max=8.0, dl=0.1, k_max=0.5, dk=0.2))
RANDOM_HALF = np.random.default_rng(7).normal(size=(3, 4))
# -0.0 and 0.0 are == but print differently; a k < 0 row is a stored row
# reversed, so its signed zeros swap places
SIGNED_ZEROS = np.array([[-0.0, 2.0, 0.0], [0.0, 0.5, -0.0]])


@pytest.mark.parametrize("surf", [
    *(s for grid in CSV_GRIDS for s in fd_solve(FAMILIES, 0.7, grid, 0.1,
                                                0.01)),
    _closed_surface("G", 0.3, 0.5, CSV_GRIDS[1]),
    _hand_built(RANDOM_HALF),
    _hand_built(SIGNED_ZEROS),
    _hand_built(np.where(SIGNED_ZEROS == 0, -0.0, SIGNED_ZEROS)),
    _hand_built(np.array([[1.0, 3.0, 1.0]])),
], ids=("odd_nk_F", "odd_nk_G", "even_nk_F", "even_nk_G", "closed_form",
        "random_half", "signed_zeros", "negative_zeros", "one_row"))
def test_surface_csv_bytes_match_a_per_line_writer(surf):
    # to_csv formats each stored value once and writes each k < 0 row from
    # a stored row's strings reversed: it must write what one format call
    # per line of the full surface writes
    buf = io.StringIO()
    surf.to_csv(buf)
    header, columns, body = buf.getvalue().split("\n", 2)
    assert header.startswith(f"# family={surf.family} ")
    assert columns == "k,l,value"
    assert body == _reference_csv_body(surf)


def test_surface_csv_dump():
    grid = GridSpec(l_max=1.0, dl=0.5, k_max=0.5, dk=0.5)
    surf = _closed_surface("F", 1.0, 0.5, grid)
    buf = io.StringIO()
    surf.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# family=F alpha=1 t=0.5")
    assert lines[1] == "k,l,value"
    assert len(lines) == 2 + 3 * 5


# -- residual --------------------------------------------------------------------------


def test_residual_of_closed_form_small():
    worst = 0.0
    for family in FAMILIES:
        sampler = closed_sampler(family, 1.0)
        for t in (0.5, 1.0, 2.0):
            for k in (-2.0, 0.0, 1.0):
                for l in (-1.0, 0.5, 2.0):
                    worst = max(worst, abs(pde_residual(
                        family, 1.0, sampler, t, k, l)))
    assert worst < 1e-6


def test_residual_negative_control():
    # doubling var_p_at must leave a visible residual somewhere
    alpha = 1.0

    def tampered(t, k, l):
        cov = closed_form_covariances(alpha, t)
        p, x = mode_index("p_at"), mode_index("X_ph")
        s_ll, s_kl, s_kk = 2.0 * cov[p, p], cov[p, x], cov[x, x]
        return math.exp(-0.5 * (s_ll * l * l + 2 * s_kl * k * l
                                + s_kk * k * k))

    worst = max(abs(pde_residual("F", alpha, tampered, t, k, l))
                for t in (0.5, 1.0)
                for k in (-1.0, 0.0, 1.0)
                for l in (-1.0, 0.5, 1.5))
    assert worst > 1e-2


def test_residual_overflow_is_a_value_error():
    # k^2 = 1e400 overflows in the derived c0
    with pytest.raises(ValueError, match="not real and finite"):
        pde_residual("G", 1.0, closed_sampler("G", 1.0), 0.5, 1e200, 0.0)


def test_residual_needs_t_of_one_step():
    sampler = closed_sampler("F", 1.0)
    assert abs(pde_residual("F", 1.0, sampler, RESIDUAL_H, 0.0, 0.0)) < 1e-12
    with pytest.raises(ConfigError, match=r"t = 5e-05, h = 0\.0001$"):
        pde_residual("F", 1.0, sampler, 5e-5, 0.0, 0.0)


def test_residual_zero_at_origin():
    sampler = closed_sampler("F", 1.0)
    assert abs(pde_residual("F", 1.0, sampler, 1.0, 0.0, 0.0)) < 1e-12
