"""Transport equations for the joint characteristic functions.

Both families satisfy a 1-D advection-reaction equation in l with k as a
parameter, so every k-slice is independent:

    family F:  df/dt = -1/4 (a*l - k)^2 f - a*(a*l - k) df/dl
    family G:  dg/dt = -1/4 (a*l + k)^2 g - a*k       dg/dl

with initial condition exp(-l^2/4).  Three routes are provided: the
closed-form Gaussian built from the covariance formulas, integration along
characteristics (independent of those formulas), and an explicit upwind
finite-difference solver with an exact pointwise decay factor per step.
A finite-difference residual check ties any sampler back to the equations.
"""

from __future__ import annotations

import math
from itertools import repeat
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np

from .errors import ConfigError, step_count
from .gaussian import closed_form_covariances
from .ito import FAMILY_F, FAMILY_G, double_pass_derivation


#: largest boundary value the FD leak monitor accepts
BOUNDARY_TOL = 1e-3


class BoundaryLeakError(ConfigError):
    """Raised when grid-boundary values exceed the leakage threshold.

    A configuration error: a wider l grid (``pde.l_max``) removes it.
    """


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric (k, l) grid: the ``pde.`` keys of its field names."""

    l_max: float
    dl: float
    k_max: float
    dk: float

    def __post_init__(self):
        for extent, step, axis in ((self.l_max, self.dl, "l"),
                                   (self.k_max, self.dk, "k")):
            if extent <= 0 or step <= 0:
                raise ConfigError(
                    f"pde.{axis}_max and pde.d{axis} must be positive")
            step_count(2 * extent, step, f"pde.d{axis}",
                       f"2*pde.{axis}_max", atol=1e-9)

    def l_values(self) -> np.ndarray:
        n = round(2 * self.l_max / self.dl) + 1
        return np.linspace(-self.l_max, self.l_max, n)

    def k_values(self) -> np.ndarray:
        n = round(2 * self.k_max / self.dk) + 1
        return np.linspace(-self.k_max, self.k_max, n)


@dataclass(frozen=True)
class CharSurface:
    """Sampled characteristic function on a (k, l) grid at one time.

    Surfaces from :func:`fd_solve` also carry the solver's health numbers:
    the CFL number ``max|drift| dt / dl`` and the largest boundary value
    the leak monitor saw; both are ``None`` for other routes.
    """

    family: str
    alpha: float
    t: float
    k_values: np.ndarray
    l_values: np.ndarray
    values: np.ndarray          # shape (nk, nl)
    cfl: float | None = None
    boundary_max: float | None = None

    def __post_init__(self):
        shape = (len(self.k_values), len(self.l_values))
        if self.values.shape != shape:
            raise ValueError(
                f"surface values have shape {self.values.shape}, grid {shape}")

    def to_csv(self, stream: TextIO) -> None:
        nk, nl = self.values.shape
        stream.write(
            f"# family={self.family} alpha={self.alpha:.12g} t={self.t:.12g}"
            f" l_min={self.l_values[0]:.12g} l_max={self.l_values[-1]:.12g}"
            f" nl={nl}"
            f" k_min={self.k_values[0]:.12g} k_max={self.k_values[-1]:.12g}"
            f" nk={nk}\n")
        stream.write("k,l,value\n")
        # one str.format pass per k row keeps the transient lists small
        line = "{:.12g},{:.12g},{:.12g}\n".format
        l_list = self.l_values.tolist()
        for k, row in zip(self.k_values.tolist(), self.values):
            stream.write("".join(map(line, repeat(k, nl), l_list,
                                     row.tolist())))


def _check_family(family: str) -> None:
    if family not in (FAMILY_F, FAMILY_G):
        raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Route 1: closed-form Gaussian
# ---------------------------------------------------------------------------


def closed_form_char(family: str, alpha: float, t: float,
                     k, l):
    """Gaussian closed form, built from the covariance formulas.

    Accepts scalars or numpy arrays for k and l.
    """
    _check_family(family)
    snap = closed_form_covariances(alpha, t)
    if family == FAMILY_F:
        s_ll = snap.entry("p_at", "p_at")
        s_kl = snap.entry("p_at", "X_ph")
        s_kk = snap.entry("X_ph", "X_ph")
    else:
        s_ll = snap.entry("x_at", "x_at")
        s_kl = snap.entry("x_at", "P_ph")
        s_kk = snap.entry("P_ph", "P_ph")
    k = np.asarray(k, dtype=float)
    l = np.asarray(l, dtype=float)
    out = np.exp(-0.5 * (s_ll * l * l + 2.0 * s_kl * k * l + s_kk * k * k))
    return float(out) if out.ndim == 0 else out


def closed_form_surface(family: str, alpha: float, t: float,
                        grid: GridSpec) -> CharSurface:
    kv, lv = grid.k_values(), grid.l_values()
    kk, ll = np.meshgrid(kv, lv, indexing="ij")
    return CharSurface(family, alpha, t, kv, lv,
                       closed_form_char(family, alpha, t, kk, ll))


# ---------------------------------------------------------------------------
# Route 2: method of characteristics
# ---------------------------------------------------------------------------


#: Gauss-Legendre nodes and weights on [-1, 1]: the coarse and the fine rule
_GL_COARSE = np.polynomial.legendre.leggauss(10)
_GL_FINE = np.polynomial.legendre.leggauss(20)


def _gauss_legendre(fn: Callable[[np.ndarray], np.ndarray], a: float,
                    b: float, breaks: Sequence[float] = ()
                    ) -> tuple[float, float]:
    """Integral of a vectorized ``fn`` on [a, b] and its error estimate.

    The rule starts from the panels between the increasing ``breaks``
    inside (a, b).  A panel whose 10- and 20-point values differ by more
    than 1e-12 of its value and by more than its share of 1e-13 is bisected,
    up to 200 panels.  Returns the sum of the 20-point values and the sum of
    the differences.
    """
    edges = [a, *breaks, b]
    # popped from the end, so the panels run from a to b
    todo = list(zip(edges[:-1], edges[1:]))[::-1]
    n_panels, value, err = len(todo), 0.0, 0.0
    while todo:
        lo, hi = todo.pop()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        coarse, fine = (half * float(w @ fn(mid + half * x))
                        for x, w in (_GL_COARSE, _GL_FINE))
        diff = abs(fine - coarse)
        if (n_panels >= 200 or diff <= 1e-12 * abs(fine)
                or diff <= 1e-13 * (hi - lo) / (b - a)):
            value += fine
            err += diff
        else:
            todo += [(mid, hi), (lo, mid)]
            n_panels += 1
    return value, err


def moc_solve(family: str, alpha: float, t: float, k: float, l: float,
              ) -> float:
    """Integrate backward along the characteristic through (t, l).

    The advection fields are linear, so the characteristic path is written
    exactly, in the reversed time tau = t - s; the accumulated decay
    exponent is integrated over tau in [0, t] by panel-adaptive
    Gauss-Legendre quadrature (Davis & Rabinowitz, *Methods of Numerical
    Integration*, 2nd ed., 1984, ch. 2 and 6): each panel is bisected until
    its 10- and 20-point rules agree to 1e-12 relative or 1e-13 absolute, up
    to 200 panels.  For family F the first panels are graded toward the
    boundary layer at tau = 0, of width ~1/(2 alpha^2), where 1/alpha^2 < t.
    An error estimate above 1e-9 raises ``RuntimeError``,
    unless the value is 0 even with the error added to the exponent.
    This route never touches the covariance formulas.
    """
    _check_family(family)
    if t < 0:
        raise ConfigError("t must be nonnegative")
    if t == 0:
        return math.exp(-l * l / 4.0)

    breaks: list[float] = []
    if family == FAMILY_F:
        # dl/ds = a*(a*l - k), so a*l(tau) - k = (a*l - k) exp(-a^2 tau) and
        # the foot is l e^-x + k*a*t*phi(x), x = a^2 t, phi(x) = (1 - e^-x)/x
        x = alpha * alpha * t
        l0 = l * math.exp(-x) + k * alpha * t * (-math.expm1(-x) / x if x
                                                 else 1.0)
        dev = alpha * l - k

        def rate(tau: np.ndarray) -> np.ndarray:
            return -0.25 * (dev * np.exp(-alpha * alpha * tau)) ** 2

        # the rate has a layer of width ~1/(2 alpha^2) at tau = 0: grade
        # the first panels toward it, at tau = 2^j/alpha^2 inside (0, t)
        scale = 1.0
        while scale < x:
            breaks.append(scale / (alpha * alpha))
            scale *= 2.0
    else:
        # dl/ds = a*k: straight characteristic
        l0 = l - alpha * k * t

        def rate(tau: np.ndarray) -> np.ndarray:
            return -0.25 * (alpha * l + k - alpha * alpha * k * tau) ** 2

    decay, err = _gauss_legendre(rate, 0.0, t, breaks)
    if err > 1e-9:
        # decay + err bounds the exponent from above; when even that bound
        # underflows, the value is 0 to double precision whatever the error
        if math.exp(decay + err - l0 * l0 / 4.0) == 0.0:
            return 0.0
        raise RuntimeError(
            f"decay quadrature failed on [0, {t}]: error estimate {err:.2e}")
    return math.exp(decay - l0 * l0 / 4.0)


# ---------------------------------------------------------------------------
# Route 3: finite differences (upwind advection + exact decay factor)
# ---------------------------------------------------------------------------


def _upwind_layout(forward: np.ndarray):
    """Slots of the FD state: each row in upwind order, with four ghosts.

    ``forward`` marks the points of the ``(nk, nl)`` grid whose drift is
    negative; in every row they are a prefix of ``m`` columns (l below the
    zero of the drift).  Row ``r`` takes the contiguous slots
    ``[r (nl + 4), (r + 1)(nl + 4))`` and holds the columns
    ``m+1, m, m-1, ..., 0`` then ``m-2, m-1, m, ..., nl-1``: column ``c``
    sits at offset ``m + 1 - c`` if ``c < m`` and at ``c + 4`` otherwise.
    So the two upwind neighbours of every grid point sit in the two slots
    before it.  The four ghost offsets ``0, 1, m+2, m+3`` copy the columns
    ``m+1, m, m-2, m-1``, or the zero slot ``nk (nl + 4)`` where that
    column is off the l grid.  Returns the slot of every grid point, the
    ghost slots and the slots they copy.
    """
    nk, nl = forward.shape
    cols = np.arange(nl)
    m = forward.sum(axis=1)[:, None]
    if not np.array_equal(forward, cols < m):
        raise RuntimeError(
            "forward-stencil points are not a prefix of each row")
    start = (nl + 4) * np.arange(nk)[:, None]
    pos = start + np.where(forward, m + 1 - cols, cols + 4)
    ghost = start + [0, 1, 2, 3] + m * [0, 0, 1, 1]
    copied = m + [1, 0, -2, -1]         # on the grid: offsets m+5, m+4, 3, 2
    source = np.where((copied >= 0) & (copied < nl),
                      start + [5, 4, 3, 2] + m * [1, 1, 0, 0], nk * (nl + 4))
    return pos, ghost.ravel(), source.ravel()


def fd_solve(family: str, alpha: float, grid: GridSpec, t: float, dt: float,
             ) -> CharSurface:
    """Explicit finite-difference evolution of all k-slices at once.

    Per step: half decay (exact pointwise factor), one Heun advection step
    with a second-order upwind-biased derivative, half decay.  The drift does
    not depend on time, so the upwind side of every point, ``-|drift|`` and
    the decay factor are fixed before the loop.

    The state lives in one preallocated flat buffer laid out by
    :func:`_upwind_layout`: each k row in upwind order, so every point takes
    the same backward stencil ``(3f - 4f[j-1] + f[j-2]) / 2dl`` on the slots
    before it, times ``-|drift|``.  Where the drift is negative this reads
    the row mirrored and gives, bit for bit, the negative of the forward
    stencil ``((4f[j+1] - 3f) - f[j+2]) / 2dl`` in l order: IEEE rounding
    is symmetric under negation.  Before each Heun stage the ghost slots copy
    the values across the turn of each row (zero beyond the l grid); the
    stencil then reads contiguous slices into preallocated arrays.

    Requires the CFL condition max|drift| * dt <= dl / 2: above it Heun on
    this stencil amplifies the highest wavenumber by ``1 - 4 nu + 8 nu^2 > 1``
    (Hundsdorfer & Verwer, *Numerical Solution of Time-Dependent
    Advection-Diffusion-Reaction Equations*, 2003).  Boundary values are
    monitored after every step and an excess over :data:`BOUNDARY_TOL`
    raises :class:`BoundaryLeakError`.  The CFL number ``nu`` and the
    largest boundary value are returned on the surface.
    """
    _check_family(family)
    if t < 0 or dt <= 0:
        raise ConfigError("need t >= 0 and dt > 0")
    kv, lv = grid.k_values(), grid.l_values()
    kk, ll = np.meshgrid(kv, lv, indexing="ij")
    if family == FAMILY_F:
        drift = alpha * (alpha * ll - kk)
        decay = -0.25 * (alpha * ll - kk) ** 2
    else:
        drift = alpha * kk * np.ones_like(ll)
        decay = -0.25 * (alpha * ll + kk) ** 2

    f0 = np.exp(-lv * lv / 4.0)[None, :] * np.ones((len(kv), 1))
    if t == 0:
        return CharSurface(family, alpha, 0.0, kv, lv, f0)

    n_steps = step_count(t, dt, "pde.dt", "pde.t")
    cfl = float(np.abs(drift).max()) * dt / grid.dl
    if cfl > 0.5 + 1e-12:
        raise ConfigError(f"CFL violation: |drift|*dt/dl = {cfl:.3f} > 0.5")

    pos, ghost, source = _upwind_layout(drift < 0.0)
    n = pos.size + 4 * len(kv)
    f = np.zeros(n + 1)                 # slot n is the zero slot
    g = np.zeros(n + 1)
    f[pos] = f0
    f_slots, g_slots = f[:n], g[:n]
    neg_abs_drift = np.zeros(n)
    neg_abs_drift[pos] = -np.abs(drift)
    half_decay = np.ones(n)
    half_decay[pos] = np.exp(0.5 * dt * decay)
    two_dl, half_dt = 2.0 * grid.dl, 0.5 * dt
    three_f, four_f, k1, k2 = (np.empty(n) for _ in range(4))
    # no stencil writes slots 0 and 1; they are ghosts (factor 0), so they
    # stay 0 through the loop's reuse of num as well
    num = np.zeros(n)

    def advection(src: np.ndarray, out: np.ndarray) -> None:
        """out = -|drift| * d(src)/dl in every slot, in upwind order."""
        src[ghost] = src[source]
        s = src[:n]
        np.multiply(s, 3.0, out=three_f)
        np.multiply(s, 4.0, out=four_f)
        np.subtract(three_f[2:], four_f[1:-1], out=num[2:])
        np.add(num[2:], s[:-2], out=num[2:])
        np.divide(num, two_dl, out=num)
        np.multiply(neg_abs_drift, num, out=out)

    edges = pos[:, [0, -1]].ravel()     # first and last l columns
    leak = 0.0
    for _ in range(n_steps):
        f_slots *= half_decay
        advection(f, k1)
        np.multiply(k1, dt, out=num)
        np.add(f_slots, num, out=g_slots)
        advection(g, k2)
        np.add(k1, k2, out=num)
        num *= half_dt
        f_slots += num
        f_slots *= half_decay
        leak = max(leak, float(np.abs(f[edges]).max()))
        if leak > BOUNDARY_TOL:
            raise BoundaryLeakError(
                f"boundary value {leak:.3e} exceeds tolerance {BOUNDARY_TOL:.1e};"
                " widen the l grid")
    return CharSurface(family, alpha, float(t), kv, lv, f[pos],
                       cfl=cfl, boundary_max=leak)


# ---------------------------------------------------------------------------
# Residual check
# ---------------------------------------------------------------------------

Sampler = Callable[[float, float, float], float]


def pde_residual(family: str, alpha: float, sampler: Sampler,
                 t: float, k: float, l: float) -> float:
    """d/dt - c0*f - c1*d/dl at one point, by central differences.

    Near zero for true solutions; the differences take steps h = 1e-4, and
    t >= h is required so the centered time stencil stays in the domain.
    """
    _check_family(family)
    h = 1e-4
    if t < h:
        raise ConfigError("need t >= h for the centered time stencil")
    c0, c1 = double_pass_derivation().transport[family].evaluate(
        alpha, k, l)
    df_dt = (sampler(t + h, k, l) - sampler(t - h, k, l)) / (2.0 * h)
    df_dl = (sampler(t, k, l + h) - sampler(t, k, l - h)) / (2.0 * h)
    return df_dt - c0 * sampler(t, k, l) - c1 * df_dl
