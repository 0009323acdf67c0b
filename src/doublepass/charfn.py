"""Transport equations for the joint characteristic functions.

Both families satisfy a 1-D advection-reaction equation in l with k as a
parameter, so every k-slice is independent:

    df/dt = c0(a, k, l) f + c1(a, k, l) df/dl,    f(0) = exp(-l^2/4),

with (c0, c1) as :func:`~doublepass.ito.double_pass_derivation` derives
them (F: c0 = -(a*l - k)^2/4, c1 = -a*(a*l - k); G: c0 = -(a*l + k)^2/4,
c1 = -a*k).  Characteristics, an explicit upwind finite-difference solver
(exact pointwise decay factor per step) and the residual check of any
sampler read them; the closed-form Gaussian, built from the covariance
formulas, is the solvers' independent reference.

``PdeCoefficients`` accepts only a c0 even and a c1 odd under
(k, l) -> (-k, -l), so every solution is even.  The finite-difference
solver uses that derived symmetry: it steps the k >= 0 rows of all the
families it is given, in cache-sized blocks of rows, and returns those
rows; the k < 0 rows are the same rows read backwards.  The coefficients do
not depend on time, so its step (half decay, Heun along the upwind
stencil, half decay) is one fixed five-tap map per point, built once per
block.  A block's buffers start on 64-byte cache lines, so the speed of a
step does not depend on where the heap puts them.  The method of
characteristics integrates with Gauss-Legendre rules held as constants, so
no run imports ``numpy.polynomial``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np

from .errors import ConfigError, step_count
from .gaussian import SECTORS, closed_form_covariances, mode_index
from .ito import FAMILY_F, FAMILY_G, double_pass_derivation


#: largest boundary value the FD leak monitor accepts
BOUNDARY_TOL = 1e-3

#: step of the residual check's central differences; it needs t >= the step
RESIDUAL_H = 1e-4

#: bytes of one FD array per row block: 40 rows at nl 801, so the eight
#: arrays of a block (two state buffers, five step weights, one scratch)
#: stay in a 2 MiB L2 through the whole time loop
FD_BLOCK_BYTES = 2 ** 18

#: steps between two folds of the FD boundary history
_LEAK_CHECK_STEPS = 32

#: bytes of a cache line, the unit :func:`_aligned` places FD buffers by
_LINE = 64


class BoundaryLeakError(ConfigError):
    """Raised when grid-boundary values exceed the leakage threshold.

    A configuration error: a wider l grid (``pde.l_max``) removes it.
    """


@dataclass(frozen=True)
class GridSpec:
    """Exactly symmetric uniform (k, l) grid: the ``pde.`` keys of its fields."""

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

    @property
    def shape(self) -> tuple[int, int]:
        """(nk, nl): the points on each axis, 2 extent / step + 1, as
        Python ints, so sizing a grid allocates nothing."""
        nk, nl = (round(2 * extent / step) + 1 for extent, step in
                  ((self.k_max, self.dk), (self.l_max, self.dl)))
        return nk, nl

    def l_values(self) -> np.ndarray:
        nl = self.shape[1]
        return self.dl * (np.arange(nl) - (nl - 1) / 2)

    def k_values(self) -> np.ndarray:
        nk = self.shape[0]
        return self.dk * (np.arange(nk) - (nk - 1) / 2)


@dataclass(frozen=True)
class CharSurface:
    """A :func:`fd_solve` surface on a (k, l) grid at one time.

    ``values`` holds the rows FD stepped, those of ``k_values[nk // 2:]``
    (k >= 0); the surface is even, so the k < 0 rows are those rows read
    backwards.  It carries the solver's health numbers: the CFL number
    ``max|drift| dt / dl`` and the largest boundary value the leak monitor
    saw (0.0 when no step ran).
    """

    family: str
    alpha: float
    t: float
    k_values: np.ndarray
    l_values: np.ndarray
    values: np.ndarray          # shape (nk - nk // 2, nl)
    cfl: float
    boundary_max: float

    def __post_init__(self):
        nk, nl = len(self.k_values), len(self.l_values)
        if self.values.shape != (nk - nk // 2, nl):
            raise ValueError(
                f"surface values have shape {self.values.shape}, the k >= 0"
                f" rows of grid {(nk, nl)}")

    def to_csv(self, stream: TextIO) -> None:
        nk, nl = len(self.k_values), len(self.l_values)
        stream.write(
            f"# family={self.family} alpha={self.alpha:.12g} t={self.t:.12g}"
            f" l_min={self.l_values[0]:.12g} l_max={self.l_values[-1]:.12g}"
            f" nl={nl}"
            f" k_min={self.k_values[0]:.12g} k_max={self.k_values[-1]:.12g}"
            f" nk={nk}\n")
        stream.write("k,l,value\n")
        # each k and l string and each stored value is formatted once; row
        # i < nk // 2 is row nk - 1 - i, a stored row, reversed
        fmt = "{:.12g}".format
        l_strs = list(map(fmt, self.l_values.tolist()))
        half = [list(map(fmt, row)) for row in self.values.tolist()]
        rows = [row[::-1] for row in half[::-1][:nk // 2]] + half
        for k, row in zip(map(fmt, self.k_values.tolist()), rows):
            # the lines "k,l,value" of one row: its "l,value" pairs joined
            # by a newline and the next line's "k,"
            sep = f"\n{k},"
            stream.write(f"{k},{sep.join(map(','.join, zip(l_strs, row)))}\n")


def _check_family(family: str) -> None:
    if family not in (FAMILY_F, FAMILY_G):
        raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Route 1: closed-form Gaussian
# ---------------------------------------------------------------------------


def closed_form_char(family: str, alpha: float, t: float,
                     k, l) -> np.ndarray:
    """Gaussian closed form, built from the covariances of the family's sector.

    Takes scalars or arrays for k and l and returns the values on their
    broadcast shape: an array, or a 0-d NumPy float for two scalars.
    """
    _check_family(family)
    cov = closed_form_covariances(alpha, t)
    atom, field = (mode_index(m) for m in SECTORS[family])
    s_ll, s_kl, s_kk = cov[atom, atom], cov[atom, field], cov[field, field]
    k = np.asarray(k, dtype=float)
    l = np.asarray(l, dtype=float)
    return np.exp(-0.5 * (s_ll * l * l + 2.0 * s_kl * k * l + s_kk * k * k))


# ---------------------------------------------------------------------------
# Route 2: method of characteristics
# ---------------------------------------------------------------------------


def _mirrored(nodes: tuple, weights: tuple) -> tuple[np.ndarray, np.ndarray]:
    """A symmetric rule on [-1, 1] from its nodes x > 0 and their weights,
    in increasing x."""
    x, w = np.array(nodes), np.array(weights)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


#: Gauss-Legendre nodes and weights on [-1, 1], the coarse (10-point) and the
#: fine (20-point) rule: ``numpy.polynomial.legendre.leggauss``'s values
#: under NumPy 2.4.6, bit for bit (a test pins them), so no run imports
#: ``numpy.polynomial``
_GL_COARSE = _mirrored(
    (0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
     0.8650633666889845, 0.9739065285171717),
    (0.2955242247147528, 0.2692667193099965, 0.219086362515982,
     0.1494513491505804, 0.06667134430868814))
_GL_FINE = _mirrored(
    (0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
     0.5108670019508271, 0.636053680726515, 0.7463319064601508,
     0.8391169718222188, 0.912234428251326, 0.9639719272779138,
     0.993128599185095),
    (0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
     0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
     0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
     0.017614007139150893))


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

    Solves the derived ``df/dt = c0 f + c1 df/dl``.  The velocity
    ``-c1 = beta*l + gamma`` is affine in l, so the characteristic is exact
    in the reversed time tau = t - s: ``l(tau) = l e^-x - gamma*tau*phi(x)``,
    x = beta*tau, phi(x) = (1 - e^-x)/x.  The decay exponent, the integral
    of ``c0(l(tau))`` over tau in [0, t], is taken by panel-adaptive
    Gauss-Legendre quadrature (Davis & Rabinowitz, *Methods of Numerical
    Integration*, 2nd ed., 1984, ch. 2 and 6): each panel is bisected until
    its 10- and 20-point rules agree to 1e-12 relative or 1e-13 absolute, up
    to 200 panels; the rules are the constants :data:`_GL_COARSE` and
    :data:`_GL_FINE`, NumPy 2.4.6's ``leggauss`` values.  For
    beta > 0 the first panels are graded toward the
    boundary layer at tau = 0, of width ~1/(2 beta), where 1/beta < t.
    An error estimate above 1e-9 raises ``RuntimeError``,
    unless the value is 0 even with the error added to the exponent.
    This route never touches the covariance formulas.
    """
    _check_family(family)
    if t < 0:
        raise ConfigError("t must be nonnegative")

    pde = double_pass_derivation().transport[family]
    beta, gamma = (-pde.c1.l_coefficient(n).evaluate_real(a=alpha, k=k)
                   for n in (1, 0))

    def foot(tau):
        x = np.multiply(beta, tau)
        phi = np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x != 0)
        return l * np.exp(-x) - gamma * tau * phi

    # the layer of width ~1/(2 beta) at tau = 0: grade the first panels
    # toward it, at tau = 2^j/beta inside (0, t)
    breaks: list[float] = []
    scale = 1.0
    while scale < beta * t:
        breaks.append(scale / beta)
        scale *= 2.0
    l0 = float(foot(t))
    decay, err = _gauss_legendre(
        lambda tau: pde.c0.evaluate_real(a=alpha, k=k, l=foot(tau)),
        0.0, t, breaks)
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
    """Slots of the FD state: each row in upwind order, with eight ghosts.

    ``forward`` marks the points of the ``(nk, nl)`` grid whose drift is
    negative; in every row they are a prefix of ``m`` columns (l below the
    zero of the drift).  Row ``r`` takes the contiguous slots
    ``[r (nl + 8), (r + 1)(nl + 8))``: four ghosts, the forward run
    ``m-1, ..., 0``, four ghosts, the backward run ``m, ..., nl-1``.  Column
    ``c`` sits at offset ``m + 3 - c`` if ``c < m`` and at ``c + 8``
    otherwise.  So the two columns the upwind stencil of a point reads, and
    the two that theirs read in turn, sit in the four slots before it; near
    the turn of a row some of them lie across it.  The ghost offsets
    ``0, 1, 2, 3`` copy the columns ``m-2, -, m+1, m`` and the offsets
    ``m+4, ..., m+7`` the columns ``m+1, -, m-2, m-1``; ``-`` and a column
    off the l grid copy the zero slot ``nk (nl + 8)``.  Returns the slot of
    every grid point, the ghost slots and the slots they copy.
    """
    nk, nl = forward.shape
    cols = np.arange(nl)
    m = forward.sum(axis=1)[:, None]
    if not np.array_equal(forward, cols < m):
        raise RuntimeError(
            "forward-stencil points are not a prefix of each row")
    start = (nl + 8) * np.arange(nk)[:, None]
    pos = start + np.where(forward, m + 3 - cols, cols + 8)
    ghost = start + np.arange(8) + m * [0, 0, 0, 0, 1, 1, 1, 1]
    copied = m + [-2, 0, 1, 0, 1, 0, -2, -1]
    on_grid = ((copied >= 0) & (copied < nl)
               & np.array([1, 0, 1, 1, 1, 0, 1, 1], dtype=bool))
    source = np.where(on_grid, start + np.where(copied < m, m + 3 - copied,
                                                copied + 8), nk * (nl + 8))
    return pos, ghost.ravel(), source.ravel()


#: the second-order upwind derivative at a slot times 2 dl: the weights of
#: the slot and of the two before it
_UPWIND = (3.0, -4.0, 1.0)


def _aligned(shape: tuple[int, ...], offset: int = 0) -> np.ndarray:
    """Zeros of ``shape`` whose data start ``offset`` bytes past a cache line.

    Where an FD buffer starts changes the time of a step: on an AVX-512
    Xeon, 1250 steps of a 9708-slot block took 40 ms with the buffers
    placed as :func:`_fd_block` asks and 57-71 ms with all of them 8 to 56
    bytes further (pinned), most likely through vector loads and stores
    that straddle two lines.  So the buffers place themselves, and not
    where the heap happens to put them.
    """
    size = 8 * math.prod(shape)
    raw = np.zeros(size + _LINE, dtype=np.uint8)
    start = (offset - raw.ctypes.data) % _LINE
    return raw[start:start + size].view(np.float64).reshape(shape)


def _step_weights(pos: np.ndarray, ghost: np.ndarray, source: np.ndarray,
                  drift: np.ndarray, decay: np.ndarray, dt: float,
                  dl: float) -> np.ndarray:
    """The weights of one FD step on the slots of :func:`_upwind_layout`.

    One step is the fixed linear map ``D (I + dt L + dt^2/2 L^2) D`` with
    ``D`` the half-decay diagonal and ``L = -|drift| d/dl`` the upwind
    operator: half decay, Heun along ``L`` (on a linear operator exactly
    ``I + dt L + dt^2/2 L^2``), half decay.  Row ``b`` of the returned
    ``(5, n - 4)`` array (a view of rows padded to whole cache lines, each
    starting on one) multiplies slot ``j - b`` into slot ``j``, for the
    slots ``4 <= j < n``; each of
    the 13 terms of the map (one of ``I``, three of ``L``, nine of ``L^2``)
    is added to the weight of the slot in the point's window that holds the
    column it reads.  Ghost slots get no weight: the step overwrites them.
    Raises ``RuntimeError`` if a nonzero term reads a column outside the
    five slots ``j-4, ..., j``.
    """
    n = pos.size + 8 * len(pos)
    held = np.arange(n + 1)             # the slot whose value a slot holds
    held[ghost] = source
    window = [held[4 - b:n - b] for b in range(5)]
    rate = np.zeros(n + 1)              # 0 at the ghosts and the zero slot
    rate[pos] = -np.abs(drift) / (2.0 * dl)
    rate_j = rate[4:n]
    weights = _aligned((5, -(-(n - 4) // 8) * 8))[:, :n - 4]
    weights[0, pos - 4] = 1.0
    for b, c in enumerate(_UPWIND):
        weights[b] += (dt * c) * rate_j
    for i, ci in enumerate(_UPWIND):
        mid = window[i]                 # the column L at j reads at j - i
        for k, ck in enumerate(_UPWIND):
            read = held[mid - k]        # the column L at mid reads
            term = (0.5 * dt * dt * ci * ck) * rate_j * rate[mid]
            term[read == n] = 0.0       # beyond the l grid: the value is 0
            hits = np.zeros(n - 4, dtype=np.int8)
            for b in range(5):
                hit = window[b] == read
                np.add(weights[b], term, out=weights[b], where=hit)
                hits += hit
            if np.any((hits != 1) & (term != 0.0)):
                raise RuntimeError("an FD step reads a column outside the"
                                   " five slots before a point")
    half = np.zeros(n + 1)
    half[pos] = np.exp(0.5 * dt * decay)
    for b in range(5):
        weights[b] *= half[4:n]
        weights[b] *= half[window[b]]
    return weights


def _fd_block(drift: np.ndarray, decay: np.ndarray, f0: np.ndarray,
              dt: float, dl: float, n_steps: int) -> tuple:
    """All ``n_steps`` steps of :func:`fd_solve` on one block of rows.

    ``drift`` and ``decay`` hold the block's rows, ``f0`` the initial row.
    The block has its own :func:`_upwind_layout`, zero slot and
    :func:`_step_weights`.  Every buffer comes from :func:`_aligned`: the
    slots a step writes (from slot 4 of either state buffer), the scratch
    and each weight row start on a cache line.  A step is five multiplies
    and four adds of the slots ``j-4, ..., j`` into a second buffer, the
    ghost copy and a swap of the buffers.  After each step the edge values
    go into a history of :data:`_LEAK_CHECK_STEPS` rows; every that many
    steps, and after the last, the history is folded into the running
    maximum of each edge, and its steps are checked in order.  Returns the
    values and each row's largest boundary value, or, at the first step
    whose largest boundary value exceeds :data:`BOUNDARY_TOL`,
    ``(None, None, (step, value))``.
    """
    pos, ghost, source = _upwind_layout(drift < 0.0)
    weights = _step_weights(pos, ghost, source, drift, decay, dt, dl)
    n = pos.size + 8 * len(drift)
    # slot n is the zero slot; slot 4, where the slots a step writes begin,
    # and the scratch start on a cache line
    f, g = (_aligned((n + 1,), _LINE - 4 * 8) for _ in range(2))
    f[pos] = f0
    f[ghost] = f[source]
    scratch = _aligned((n - 4,))
    # a step reads one buffer and writes the other: each tap's weights and
    # the slots it reads, farthest first, then the buffer and slots written
    steps = []
    for src, dst in ((f, g), (g, f)):
        taps = tuple((weights[b], src[4 - b:n - b]) for b in (4, 3, 2, 1, 0))
        steps.append((taps[0], taps[1:], dst, dst[4:n]))
    state = f
    mul, add = np.multiply, np.add
    edges = pos[:, [0, -1]].ravel()     # first and last l columns
    batch = np.empty((_LEAK_CHECK_STEPS, edges.size))
    edge_max = np.zeros(edges.size)     # running maximum per edge
    for done in range(0, n_steps, _LEAK_CHECK_STEPS):
        history = batch[:n_steps - done]
        for row in history:
            (w_far, far), near, state, out = steps[state is g]
            mul(w_far, far, out=out)
            for w, tap in near:
                mul(w, tap, out=scratch)
                add(out, scratch, out=out)
            state[ghost] = state[source]
            # the edges are in range; "raise" would copy through a buffer
            state.take(edges, out=row, mode="clip")
        seen = np.abs(history)
        np.maximum(edge_max, seen.max(axis=0), out=edge_max)
        step_max = seen.max(axis=1)
        over = step_max > BOUNDARY_TOL
        if over.any():
            i = int(over.argmax())
            return None, None, (done + i + 1, float(step_max[i]))
    return state[pos], edge_max.reshape(-1, 2).max(axis=1), None


def fd_solve(families: Sequence[str], alpha: float, grid: GridSpec,
             t: float, dt: float) -> tuple[CharSurface, ...]:
    """Explicit finite-difference evolution of every family's k-slices at once.

    The derived ``c0`` is even and ``c1`` odd under ``(k, l) -> (-k, -l)``
    (:class:`~doublepass.ito.PdeCoefficients` raises otherwise), the initial
    value is even and the grid exactly symmetric, so every k < 0 row is, bit
    for bit, a k > 0 row read backwards: IEEE rounding is symmetric under
    negation.  Only the rows with k >= 0, ``k_values()[nk // 2:]`` (k = 0
    among them when nk is odd), are stepped; the rows of all ``families``
    are stacked.  Returns one surface of those rows per family, in order.

    Per step: half decay (exact pointwise factor of the derived c0), one Heun
    step along the drift ``-c1`` with a second-order upwind derivative, half
    decay.  The drift and the decay do not depend on time, so a step is one
    fixed linear map per row, ``D (I + dt L + dt^2/2 L^2) D`` with ``D`` the
    half decay and ``L`` the upwind operator (:func:`_step_weights`).

    The rows never couple, so the stack is cut into blocks of contiguous
    rows of at most :data:`FD_BLOCK_BYTES` per array (rows of both families
    may share one), and :func:`_fd_block` runs every step on one block
    before the next starts; a block's arrays stay in cache through the
    whole loop.  A block holds its rows in a flat buffer laid out by
    :func:`_upwind_layout`: each row in upwind order, so every point takes
    the same backward stencil ``(3f - 4f[j-1] + f[j-2]) / 2dl`` on the
    slots before it, times ``-|drift|``; where the drift is negative this
    reads the row mirrored, the forward stencil in l order.  The map then
    reads, at every point, its own slot and the four before it, with ghost
    slots copying the columns across the turn of each row (zero beyond the
    l grid): a step is five multiplies and four adds of contiguous slices.
    The weights are rounded products, so the surfaces differ from two Heun
    stages by rounding alone; a row's weights do not depend on its block.
    Requires the CFL condition max|drift| * dt <= dl / 2 for every family:
    above it Heun on this stencil amplifies the highest wavenumber by
    ``1 - 4 nu + 8 nu^2 > 1`` (Hundsdorfer & Verwer, *Numerical Solution of
    Time-Dependent Advection-Diffusion-Reaction Equations*, 2003).  Boundary
    values are monitored after every step; at the first step where one in
    any row exceeds :data:`BOUNDARY_TOL`, :class:`BoundaryLeakError` reports
    the largest boundary value of all rows up to that step.  A block runs no
    further than the earliest such step of the blocks before it.  Each
    surface carries its family's CFL number ``nu`` and largest boundary
    value.
    """
    for family in families:
        _check_family(family)
    if t < 0 or dt <= 0:
        raise ConfigError("need t >= 0 and dt > 0")
    kv, lv = grid.k_values(), grid.l_values()
    half = len(kv) // 2                 # kv[half:] >= 0
    kk, ll = np.meshgrid(kv[half:], lv, indexing="ij")
    transport = double_pass_derivation().transport
    try:
        coeffs = [transport[family].evaluate(alpha, kk, ll)
                  for family in families]
    except ValueError as exc:  # the derived c0, c1 are real: an overflow
        raise ConfigError("transport coefficients are not finite on the grid;"
                          " reduce pde.l_max and pde.k_max") from exc
    f0 = np.exp(-lv * lv / 4.0)
    n_steps = step_count(t, dt, "pde.dt", "pde.t")
    decay = np.concatenate([np.broadcast_to(c0, kk.shape) for c0, _ in coeffs])
    drift = np.concatenate([np.broadcast_to(-c1, kk.shape)
                            for _, c1 in coeffs])
    rows = len(kv) - half               # per family
    cfls = [float(np.abs(drift[i * rows:(i + 1) * rows]).max()) * dt / grid.dl
            for i in range(len(families))]
    for cfl in cfls:
        if not cfl <= 0.5 + 1e-12:
            raise ConfigError(
                f"CFL violation: |drift|*dt/dl = {float(cfl)!r} > 0.5")

    block = max(1, FD_BLOCK_BYTES // (8 * (len(lv) + 8)))
    values = np.empty(drift.shape)
    leaks = np.empty(len(drift))
    stop, trips = n_steps, []
    for r in range(0, len(drift), block):
        b = slice(r, r + block)
        out, leak, trip = _fd_block(drift[b], decay[b], f0, dt, grid.dl,
                                    stop)
        if trip is None:
            values[b], leaks[b] = out, leak
        else:                           # later blocks stop at this step
            trips.append(trip)
            stop = trip[0]
    if trips:
        # every boundary value before the earliest trip step is within the
        # limit, so the largest up to it is the largest at it
        leak = max(value for step, value in trips if step == stop)
        raise BoundaryLeakError(
            f"boundary value {leak:.3e} exceeds tolerance {BOUNDARY_TOL:.1e};"
            " widen the l grid")
    values = values.reshape(len(families), rows, -1)
    leaks = leaks.reshape(len(families), -1).max(axis=1)
    return tuple(
        CharSurface(family, alpha, float(t), kv, lv, h,
                    cfl=cfl, boundary_max=float(leak))
        for family, h, cfl, leak in zip(families, values, cfls, leaks))


# ---------------------------------------------------------------------------
# Residual check
# ---------------------------------------------------------------------------

Sampler = Callable[[float, float, float], float]


def pde_residual(family: str, alpha: float, sampler: Sampler,
                 t: float, k, l):
    """d/dt - c0*f - c1*d/dl at a point, by central differences.

    Near zero for true solutions; the differences take steps h = RESIDUAL_H,
    and t >= h is required so the centered time stencil stays in the domain.
    Accepts scalars or numpy arrays for k and l, if the sampler does.
    """
    _check_family(family)
    h = RESIDUAL_H
    if t < h:
        raise ConfigError(f"need t >= h for the centered time stencil:"
                          f" t = {t:.3g}, h = {h:.3g}")
    c0, c1 = double_pass_derivation().transport[family].evaluate(
        alpha, k, l)
    df_dt = (sampler(t + h, k, l) - sampler(t - h, k, l)) / (2.0 * h)
    df_dl = (sampler(t, k, l + h) - sampler(t, k, l - h)) / (2.0 * h)
    return df_dt - c0 * sampler(t, k, l) - c1 * df_dl
