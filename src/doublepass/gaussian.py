"""Gaussian moment dynamics of the extended mode set.

The modes are ordered (x_at, p_at, X_ph, P_ph) where X_ph and P_ph are the
accumulated (unnormalized) output field quadratures with [X_ph, P_ph] = i*t.
The first moments obey d<v>/dt = A <v> and start at 0, so they stay 0; the
symmetrized second moments obey the linear system

    dC/dt = A C + C A^T + D

whose drift A and diffusion D are generated from the symbolic engine and
instantiated numerically; the RK4 route integrates the 16 entries of
C - diag(1/2, 1/2, 0, 0) alone.  The module also evaluates the closed-form
variances of the double-pass model, and :func:`variance_table` turns either
route (or the oracle's atomic moments) into the one variance table the CLI
writes: the six published (co)variances, squeezing in dB (reference
variance 1/2) and the uncertainty products.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, step_count
from .ito import double_pass_derivation, lindblad
from .scalars import HALF, FormalScalar
from .weyl import OpPoly, mul

MODES = ("x_at", "p_at", "X_ph", "P_ph")

#: CSV schema shared by the closed-form/ODE route and the oracle route.
CSV_COLUMNS = (
    "t", "var_p_at", "cov_pat_xph", "var_x_ph_norm", "var_x_at",
    "cov_xat_pph", "var_p_ph_norm", "sq_db_atom", "sq_db_field_x",
    "sq_db_field_p", "unc_prod_field", "unc_prod_atom",
)

#: The six published (co)variances: CSV column -> mode pair.  The CSV
#: normalizes the field variances (``*_norm``) by t.
PUBLISHED = {
    "var_p_at": ("p_at", "p_at"),
    "cov_pat_xph": ("p_at", "X_ph"),
    "var_x_ph_norm": ("X_ph", "X_ph"),
    "var_x_at": ("x_at", "x_at"),
    "cov_xat_pph": ("x_at", "P_ph"),
    "var_p_ph_norm": ("P_ph", "P_ph"),
}

_REFERENCE_VAR = 0.5


def mode_index(label: str) -> int:
    return MODES.index(label)


@dataclass(frozen=True)
class LinearOde:
    """Drift/diffusion pair of the moment equations at a fixed coupling."""

    alpha: float
    drift: np.ndarray
    diffusion: np.ndarray


@dataclass(frozen=True)
class CovSnapshot:
    """Symmetrized covariance of the four modes at one time.

    The closed-form route leaves the entries it does not define (the
    cross-sector ones) NaN.
    """

    cov: np.ndarray

    def entry(self, row: str, col: str) -> float:
        return float(self.cov[mode_index(row), mode_index(col)])


@dataclass(frozen=True)
class CovTrajectory:
    """Uniform-grid sequence of covariance snapshots."""

    times: np.ndarray
    covs: np.ndarray        # (n, 4, 4)

    def __post_init__(self):
        if len(self.times) > 1:
            steps = np.diff(self.times)
            if not ((steps > 0).all()
                    and np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12)):
                raise ValueError(
                    "trajectory times must be uniform and increasing")

    def series(self, row: str, col: str) -> np.ndarray:
        return self.covs[:, mode_index(row), mode_index(col)]


# ---------------------------------------------------------------------------
# Symbolic construction of the moment equations
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _symbolic_moment_structure() -> tuple:
    """Exact (A, D) entries plus the quadratic-flow consistency check.

    Each mode's drift row is its I/O relation's ``x_at_out``/``p_at_out``
    terms, which the derivation checked to be linear; D follows from the
    pairwise Ito rule on the (dA, dA*) coefficients of the modes.  The
    atomic 2x2 block of the second-moment dynamics is generated again from
    the Lindblad drift of the quadratic monomials; the overlap of the two
    constructions must agree exactly.
    """
    derived = double_pass_derivation()
    io = derived.io
    zero = FormalScalar.zero()
    relations = (io.dx_at_out, io.dp_at_out, io.x_ph_out, io.p_ph_out)
    a_rows = [[rel.terms.get("x_at_out", zero),
               rel.terms.get("p_at_out", zero), zero, zero]
              for rel in relations]
    # (cA, cA*) of each mode, in the order of MODES
    noise = [(rel.differential.ca.constant_value(),
              rel.differential.castar.constant_value()) for rel in relations]
    d_entries = [[(ca_i * castar_j + ca_j * castar_i).scale(HALF)
                  for ca_j, castar_j in noise] for ca_i, castar_i in noise]

    # Independent atomic-block route: Lindblad drift of quadratic monomials.
    x, p = OpPoly.x(), OpPoly.p()
    sym_mon = {
        (0, 0): mul(x, x),
        (1, 1): mul(p, p),
        (0, 1): (mul(x, p) + mul(p, x)).scale(HALF),
    }
    for (i, j), mono in sym_mon.items():
        g = lindblad(derived.system, mono)
        # Expected: sum_m A_im M_mj + A_jm M_im + D_ij * 1, with M_ab the
        # symmetrized monomials over the atomic pair.
        expected = OpPoly.const(d_entries[i][j])
        for m in range(2):
            coeff_im = a_rows[i][m]
            coeff_jm = a_rows[j][m]
            m_mj = sym_mon.get(tuple(sorted((m, j))))
            m_im = sym_mon.get(tuple(sorted((i, m))))
            expected = expected + m_mj.scale(coeff_im) + m_im.scale(coeff_jm)
        if g != expected:
            raise AssertionError(
                f"quadratic-flow route disagrees at block ({i},{j}): "
                f"{g} vs {expected}")
    return a_rows, d_entries


def build_moment_odes(alpha: float) -> LinearOde:
    """Drift and diffusion of the 4-mode moment equations at coupling alpha.

    Entries come from the symbolic engine (flow differentials of the modes
    and of the quadratic atomic monomials) and are only instantiated
    numerically at the end.  Negative couplings are rejected.
    """
    if alpha < 0:
        raise ConfigError("coupling alpha must be nonnegative")
    a_rows, d_entries = _symbolic_moment_structure()
    drift = np.array([[c.evaluate_real(a=alpha) for c in row]
                      for row in a_rows])
    diffusion = np.array([[c.evaluate_real(a=alpha) for c in row]
                          for row in d_entries])
    if not np.allclose(diffusion, diffusion.T):
        raise ArithmeticError("moment diffusion matrix is not symmetric")
    if not np.linalg.eigvalsh(diffusion).min() > -1e-12:
        raise ArithmeticError(
            "moment diffusion matrix is not positive semidefinite")
    return LinearOde(alpha=float(alpha), drift=drift, diffusion=diffusion)


def initial_snapshot() -> CovSnapshot:
    """Vacuum/ground initial state: covariance diag(1/2, 1/2, 0, 0)."""
    return CovSnapshot(np.diag([0.5, 0.5, 0.0, 0.0]))


def integrate_covariance(ode: LinearOde, t_max: float, dt: float,
                         ) -> CovTrajectory:
    """Classical fixed-step RK4 integration of the covariance equation.

    The system is linear and time-invariant, so the RK4 stage algebra
    collapses to one affine update per step, built once from the drift; the
    result is bit-for-bit the classical RK4 iteration on C - C0.  Stability
    requires alpha^2 dt <= 0.1 (documented bound, enforced).
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if t_max < 0:
        raise ConfigError("t_max must be nonnegative")
    if t_max == 0:
        return CovTrajectory(np.array([0.0]), initial_snapshot().cov[None])
    if dt > t_max:
        raise ConfigError("dt must not exceed t_max")
    # dt <= 0.1/alpha^2 + 1e-15 as a product, since alpha^2 may underflow
    # to 0; the relative slack covers the rounding of either form
    alpha2 = ode.alpha * ode.alpha
    if not alpha2 * (dt - 1e-15) <= 0.1 * (1 + 1e-15):
        raise ConfigError(
            f"dt={dt} violates the stability bound 0.1/alpha^2="
            f"{0.1 / alpha2:.3g}")
    n_steps = step_count(t_max, dt, "solver.dt", "t_max")

    # RK4 runs on Delta = C - C0, the deviation from the vacuum:
    # Delta' = A Delta + Delta A^T + S with S = A C0 + C0 A^T + D, whose
    # cross-covariance entries cancel exactly.  This is affine in the
    # row-major vec(Delta): K vec(Delta) + b with K = A (x) 1 + 1 (x) A and
    # b = vec(S).  The RK4 stages then collapse to c_{n+1} = R c + r with
    # R = sum_{j<=4} (dt K)^j / j!  and  r = sum_{1<=j<=4} dt^j K^{j-1} b / j!.
    eye, c0 = np.eye(4), initial_snapshot().cov
    k_mat = np.kron(ode.drift, eye) + np.kron(eye, ode.drift)
    b_vec = (ode.drift @ c0 + c0 @ ode.drift.T + ode.diffusion).reshape(16)

    r_mat = np.eye(16)
    r_vec = np.zeros(16)
    term = np.eye(16)
    for j in range(1, 5):
        r_vec = r_vec + (term @ b_vec) * (dt ** j / math.factorial(j))
        term = term @ k_mat
        r_mat = r_mat + term * (dt ** j / math.factorial(j))

    # row k of flat is vec(Delta) after step k; covs is a view of it
    covs = np.zeros((n_steps + 1, 4, 4))
    flat = covs.reshape(n_steps + 1, 16)
    for step in range(1, n_steps + 1):
        flat[step] = r_mat @ flat[step - 1] + r_vec
        cov = covs[step]
        cov[...] = 0.5 * (cov + cov.T)
    covs += c0

    traj = CovTrajectory(np.arange(n_steps + 1) * dt, covs)
    _assert_cross_sector_zero(traj)
    return traj


def _assert_cross_sector_zero(traj: CovTrajectory) -> None:
    """The (x_at, P_ph) and (p_at, X_ph) sectors do not mix; report if they do."""
    cross = [("x_at", "p_at"), ("x_at", "X_ph"), ("p_at", "P_ph"),
             ("X_ph", "P_ph")]
    worst = max(float(np.abs(traj.series(r, c)).max()) for r, c in cross)
    if worst > 1e-10:
        raise AssertionError(
            f"cross-sector covariance grew to {worst:.3e} along the ODE route")


# ---------------------------------------------------------------------------
# Closed-form covariances
# ---------------------------------------------------------------------------


def closed_form_covariances(alpha: float, t: float) -> CovSnapshot:
    """Evaluate the six published (co)variances; cross entries stay NaN.

    The alpha -> 0 limits are taken analytically, and the small-exponent
    regime uses expm1-based factorizations to avoid cancellation.
    """
    if alpha < 0 or t < 0:
        raise ConfigError("alpha and t must be nonnegative")
    cov = np.full((4, 4), np.nan)

    def put(r, c, value):
        i, j = mode_index(r), mode_index(c)
        cov[i, j] = cov[j, i] = value

    u = alpha * alpha * t
    em = -math.expm1(-u)          # 1 - exp(-u), stable for small u
    put("p_at", "p_at", 0.25 * (1.0 + math.exp(-2.0 * u)))
    put("x_at", "x_at", 0.5 * (1.0 + alpha * alpha * t))
    put("x_at", "P_ph", -0.25 * alpha ** 3 * t * t)
    put("P_ph", "P_ph", 0.5 * t + alpha ** 4 * t ** 3 / 6.0)
    # the alpha = 0 limit is exact to double precision wherever alpha^2
    # is not a normal float, and the general form divides by it
    if alpha * alpha < sys.float_info.min:
        put("p_at", "X_ph", 0.0)
        put("X_ph", "X_ph", 0.5 * t)
    else:
        put("p_at", "X_ph", -em * em / (4.0 * alpha))
        put("X_ph", "X_ph", em * (2.0 + em) / (4.0 * alpha * alpha))
    return CovSnapshot(cov)


# ---------------------------------------------------------------------------
# The variance table
# ---------------------------------------------------------------------------


def variance_table(times: np.ndarray, covs: np.ndarray,
                   ) -> dict[str, np.ndarray]:
    """Every :data:`CSV_COLUMNS` array from covariances on a time grid.

    ``covs`` is the ``(n, 4, 4)`` stack whose :data:`PUBLISHED` entries are
    read; entries a route does not measure are NaN and stay NaN.  The field
    variances are normalized by t, with the vacuum limit 1/2 on a t = 0
    row; squeezing is in dB against the reference variance 1/2.  A
    nonpositive variance raises ``ValueError``.
    """
    times = np.asarray(times, dtype=float)
    table = {"t": times}
    positive_t = times > 0
    for col, (r, c) in PUBLISHED.items():
        values = covs[:, mode_index(r), mode_index(c)]
        if col.endswith("_norm"):
            values = np.where(positive_t,
                              values / np.where(positive_t, times, 1.0),
                              _REFERENCE_VAR)
        table[col] = values
    for col in ("var_p_at", "var_x_at", "var_x_ph_norm", "var_p_ph_norm"):
        if (table[col] <= 0).any():
            raise ValueError(f"nonpositive variance in {col}")
    for col, var in (("sq_db_atom", "var_p_at"),
                     ("sq_db_field_x", "var_x_ph_norm"),
                     ("sq_db_field_p", "var_p_ph_norm")):
        table[col] = 10.0 * np.log10(_REFERENCE_VAR / table[var])
    table["unc_prod_field"] = table["var_x_ph_norm"] * table["var_p_ph_norm"]
    table["unc_prod_atom"] = table["var_x_at"] * table["var_p_at"]
    return {col: table[col] for col in CSV_COLUMNS}


def closed_form_table(alpha: float, times: np.ndarray,
                      ) -> dict[str, np.ndarray]:
    """The :func:`variance_table` of the closed-form covariances on ``times``."""
    times = np.asarray(times, dtype=float)
    return variance_table(times, np.array(
        [closed_form_covariances(alpha, t).cov for t in times.tolist()]))


def relative_error(value: float, ref: float) -> float:
    """|value - ref| / |ref|; 0 where ref is 0 and value within 1e-14 of it."""
    diff = abs(value - ref)
    if ref == 0 and diff < 1e-14:
        return 0.0
    return diff / max(abs(ref), 1e-300)
