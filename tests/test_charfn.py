"""Closed-form, characteristics, and finite-difference transport routes."""

import io
import math
import subprocess
import sys

import numpy as np
import pytest

from doublepass import charfn
from doublepass.charfn import (BoundaryLeakError, CharSurface, GridSpec,
                               _upwind_layout, closed_form_char,
                               closed_form_surface, fd_solve, moc_solve,
                               pde_residual)
from doublepass.errors import ConfigError
from doublepass.gaussian import closed_form_covariances

FAMILIES = ("F", "G")


def closed_sampler(family, alpha):
    return lambda t, k, l: closed_form_char(family, alpha, t, k, l)


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


def origin_value(surf):
    """The surface value at k = l = 0 (both grids are symmetric)."""
    return surf.values[len(surf.k_values) // 2, len(surf.l_values) // 2]


def test_surface_invariants():
    surf = closed_form_surface("F", 1.0, 0.7, GridSpec(6.0, 0.1, 2.0, 0.5))
    assert 0.0 < surf.values.min() and surf.values.max() <= 1.0
    assert origin_value(surf) == 1.0
    # even under (k, l) -> (-k, -l)
    assert np.allclose(surf.values, surf.values[::-1, ::-1], atol=1e-9)


def test_log_derivatives_reproduce_covariances():
    # second derivatives of log F at the origin give the covariance entries
    alpha, t, h = 1.0, 1.3, 1e-3
    snap = closed_form_covariances(alpha, t)
    f = closed_sampler("F", alpha)

    def logf(k, l):
        return math.log(f(t, k, l))

    d_ll = (logf(0, h) - 2 * logf(0, 0) + logf(0, -h)) / h ** 2
    d_kk = (logf(h, 0) - 2 * logf(0, 0) + logf(-h, 0)) / h ** 2
    d_kl = (logf(h, h) - logf(h, -h) - logf(-h, h) + logf(-h, -h)) / (4 * h * h)
    assert -d_ll == pytest.approx(snap.entry("p_at", "p_at"), abs=1e-6)
    assert -d_kk == pytest.approx(snap.entry("X_ph", "X_ph"), abs=1e-6)
    assert -d_kl == pytest.approx(snap.entry("p_at", "X_ph"), abs=1e-6)


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
    # hold from alpha = 0 through the smallest subnormal up to alpha^2 t = 1e8
    probe = np.linspace(-3.0, 3.0, 7).tolist()
    for alpha, t in ((0.0, 0.5), (1e-3, 0.5), (1e-9, 0.5), (1e-160, 0.5),
                     (5e-324, 0.5), (1000.0, 5.0), (1e4, 1.0)):
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
    surf = fd_solve("F", 0.0, grid, 0.3, 1e-3)
    kk, ll = np.meshgrid(grid.k_values(), grid.l_values(), indexing="ij")
    exact = np.exp(-ll ** 2 / 4) * np.exp(-kk ** 2 * 0.3 / 4)
    assert np.abs(surf.values - exact).max() < 1e-12


def test_fd_matches_closed_form():
    grid = GridSpec(l_max=12.0, dl=0.02, k_max=3.0, dk=1.0)
    for family in FAMILIES:
        surf = fd_solve(family, 1.0, grid, 0.5, 4e-4)
        ref = closed_form_surface(family, 1.0, 0.5, grid)
        assert np.abs(surf.values - ref.values).max() < 5e-4
        assert abs(origin_value(surf) - 1.0) <= 1e-5
        assert surf.values.max() <= 1.0 + 1e-5
        assert np.allclose(surf.values, surf.values[::-1, ::-1], atol=1e-9)


def test_fd_convergence_order_two():
    errs = []
    for dl in (0.08, 0.04):
        grid = GridSpec(l_max=12.0, dl=dl, k_max=2.0, dk=1.0)
        dt = dl * dl / 4.0
        n = math.ceil(0.4 / dt)
        surf = fd_solve("F", 1.0, grid, 0.4, 0.4 / n)
        ref = closed_form_surface("F", 1.0, 0.4, grid)
        errs.append(np.abs(surf.values - ref.values).max())
    order = math.log2(errs[0] / errs[1])
    assert 1.5 < order < 2.5


def test_fd_origin_stays_normalized():
    grid = GridSpec(l_max=10.0, dl=0.05, k_max=1.0, dk=0.5)
    surf = fd_solve("G", 1.0, grid, 0.5, 1e-3)
    assert origin_value(surf) == pytest.approx(1.0, abs=1e-9)


def test_grid_spec_validation():
    with pytest.raises(ConfigError, match="pde.dl"):
        GridSpec(l_max=8.0, dl=0.03, k_max=8.0, dk=0.02)   # does not divide
    with pytest.raises(ConfigError, match="pde.l_max"):
        GridSpec(l_max=-1.0, dl=0.02, k_max=8.0, dk=0.02)
    with pytest.raises(ConfigError, match="pde.dk"):
        GridSpec(l_max=8.0, dl=0.02, k_max=8.0, dk=0.03)


def test_fd_cfl_violation_rejected():
    grid = GridSpec(l_max=8.0, dl=0.1, k_max=2.0, dk=1.0)
    with pytest.raises(ConfigError):
        fd_solve("F", 1.0, grid, 0.5, 0.05)
    # CFL 0.605: Heun on the second-order upwind stencil amplifies the
    # highest wavenumber by 1 - 4 nu + 8 nu^2 > 1.  With the leak monitor
    # off, this grid at t = 0.15 errs by 1.2e-5 for nu up to 0.605, then by
    # 4e2 at nu = 0.756 and 4e18 at 0.907, as grid-scale rounding grows
    grid = GridSpec(l_max=12.0, dl=0.02, k_max=0.1, dk=0.05)
    with pytest.raises(ConfigError, match="CFL"):
        fd_solve("F", 1.0, grid, 0.15, 1e-3)


def test_fd_boundary_leak_detected():
    grid = GridSpec(l_max=2.0, dl=0.05, k_max=1.0, dk=0.5)
    with pytest.raises(BoundaryLeakError):
        fd_solve("F", 1.0, grid, 0.5, 1e-3)


# Reference: the two-stencil step (zero-padded shifted copies, both upwind
# stencils at every point, one kept per point).  fd_solve must match it bit
# for bit.


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


def _two_stencil_fd(family, alpha, grid, n_steps, dt):
    """(values, cfl, boundary values after each step) of the old loop."""
    kk, ll = np.meshgrid(grid.k_values(), grid.l_values(), indexing="ij")
    if family == "F":
        drift = alpha * (alpha * ll - kk)
        decay = -0.25 * (alpha * ll - kk) ** 2
    else:
        drift = alpha * kk * np.ones_like(ll)
        decay = -0.25 * (alpha * ll + kk) ** 2
    lv = grid.l_values()
    f = np.exp(-lv * lv / 4.0)[None, :] * np.ones((len(grid.k_values()), 1))
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


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("alpha", (0.0, 0.7, 1.0))
@pytest.mark.parametrize("grid, tol", ((REF_GRID, 1e-3), (INFLOW_GRID, 1.0),
                                       (EDGE_RUN_GRID, 1.0)),
                         ids=("outflow", "inflow", "edge_run"))
def test_fd_bit_identical_to_two_stencil_step(family, alpha, grid, tol,
                                             monkeypatch):
    monkeypatch.setattr(charfn, "BOUNDARY_TOL", tol)
    kv = grid.k_values()
    assert kv.min() < 0 < kv.max() and 0.0 in kv
    dt, n_steps = 0.005, 40
    ref, cfl, edges = _two_stencil_fd(family, alpha, grid, n_steps, dt)
    surf = fd_solve(family, alpha, grid, n_steps * dt, dt)
    assert np.array_equal(surf.values, ref)
    assert np.array_equal(np.signbit(surf.values), np.signbit(ref))
    assert surf.cfl == cfl
    assert surf.boundary_max == max(edges)


def test_upwind_layout_slots():
    forward = np.array([[True, True, False],
                        [False, False, False],
                        [True, True, True]])
    nk, nl = forward.shape
    pos, ghost, source = _upwind_layout(forward)
    # each row in upwind order: columns m+1, m, ..., 0, then m-2, ..., nl-1
    assert pos.tolist() == [[3, 2, 6], [11, 12, 13], [18, 17, 16]]
    assert sorted(pos.ravel().tolist() + ghost.tolist()) == list(range(21))
    zero = 21
    copies = dict(zip(ghost.tolist(), source.tolist()))
    assert copies == {0: zero, 1: 6, 4: 3, 5: 2, 7: 12, 8: 11, 9: zero,
                      10: zero, 14: zero, 15: zero, 19: 17, 20: 16}
    # every slot of row r, grid or ghost, lies in one block of nl + 4
    for r in range(nk):
        row_ghosts = ghost[4 * r:4 * r + 4]
        for slot in pos[r].tolist() + row_ghosts.tolist():
            assert r * (nl + 4) <= slot < (r + 1) * (nl + 4)
    with pytest.raises(RuntimeError):
        _upwind_layout(np.array([[False, True]]))


def test_fd_boundary_leak_on_same_step():
    grid = GridSpec(l_max=6.0, dl=0.05, k_max=1.0, dk=0.5)
    dt, tol = 1e-3, charfn.BOUNDARY_TOL
    _, _, edges = _two_stencil_fd("F", 1.0, grid, 500, dt)
    leaks = np.maximum.accumulate(edges)
    first = int(np.argmax(leaks > tol)) + 1      # steps taken when it trips
    assert leaks[first - 1] > tol and first > 1
    before = fd_solve("F", 1.0, grid, (first - 1) * dt, dt)
    assert before.boundary_max == leaks[first - 2]
    with pytest.raises(BoundaryLeakError) as info:
        fd_solve("F", 1.0, grid, first * dt, dt)
    assert str(info.value) == (
        f"boundary value {leaks[first - 1]:.3e} exceeds tolerance {tol:.1e};"
        " widen the l grid")


def test_fd_cfl_limit():
    grid = GridSpec(l_max=8.0, dl=0.1, k_max=1.0, dk=0.5)
    # G drift is alpha * k: |drift| * dt / dl = 1/2 at alpha = 1, dt = dl/2
    at_limit = fd_solve("G", 1.0, grid, 0.2, 0.05)
    assert at_limit.cfl == 0.5
    with pytest.raises(ConfigError, match="CFL"):
        fd_solve("G", 1.0 + 1e-9, grid, 0.2, 0.05)


def test_fd_health_only_on_fd_surfaces():
    grid = GridSpec(l_max=8.0, dl=0.1, k_max=1.0, dk=0.5)
    assert fd_solve("F", 1.0, grid, 0.0, 0.01).cfl is None
    assert closed_form_surface("F", 1.0, 0.5, grid).boundary_max is None


def test_surface_shape_guard_survives_optimize_flag():
    code = ("import numpy as np\n"
            "from doublepass.charfn import CharSurface\n"
            "try:\n"
            "    CharSurface('F', 1.0, 0.0, np.zeros(2), np.zeros(3),"
            " np.zeros((3, 2)))\n"
            "except ValueError:\n"
            "    print('raised')\n")
    res = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "raised\n"
    with pytest.raises(ValueError):
        CharSurface("F", 1.0, 0.0, np.zeros(2), np.zeros(3), np.zeros((3, 2)))


def test_surface_csv_matches_per_row_formatting(monkeypatch):
    monkeypatch.setattr(charfn, "BOUNDARY_TOL", 1.0)
    grid = GridSpec(l_max=1.0, dl=0.25, k_max=0.5, dk=0.25)
    surf = fd_solve("G", 0.7, grid, 0.05, 0.01)
    buf = io.StringIO()
    surf.to_csv(buf)
    rows = [f"{k:.12g},{l:.12g},{surf.values[i, j]:.12g}"
            for i, k in enumerate(surf.k_values)
            for j, l in enumerate(surf.l_values)]
    lines = buf.getvalue().split("\n")
    assert lines[2:] == rows + [""]
    assert buf.tell() == len(buf.getvalue())


def test_surface_csv_dump():
    grid = GridSpec(l_max=1.0, dl=0.5, k_max=0.5, dk=0.5)
    surf = closed_form_surface("F", 1.0, 0.5, grid)
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
        snap = closed_form_covariances(alpha, t)
        s_ll = 2.0 * snap.entry("p_at", "p_at")
        s_kl = snap.entry("p_at", "X_ph")
        s_kk = snap.entry("X_ph", "X_ph")
        return math.exp(-0.5 * (s_ll * l * l + 2 * s_kl * k * l
                                + s_kk * k * k))

    worst = max(abs(pde_residual("F", alpha, tampered, t, k, l))
                for t in (0.5, 1.0)
                for k in (-1.0, 0.0, 1.0)
                for l in (-1.0, 0.5, 1.5))
    assert worst > 1e-2


def test_residual_zero_at_origin():
    sampler = closed_sampler("F", 1.0)
    assert abs(pde_residual("F", 1.0, sampler, 1.0, 0.0, 0.0)) < 1e-12
