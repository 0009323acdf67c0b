"""Gaussian moment dynamics of the extended mode set.

The modes are ordered (x_at, p_at, X_ph, P_ph) where X_ph and P_ph are the
accumulated (unnormalized) output field quadratures with [X_ph, P_ph] = i*t;
the coupling never mixes the two :data:`SECTORS`.  The first moments obey
d<v>/dt = A <v> and start at 0, so they stay 0; the symmetrized second
moments obey the linear system

    dC/dt = A C + C A^T + D

whose drift A and diffusion D are generated from the symbolic engine and
instantiated numerically; the RK4 route integrates the 16 entries of
C - :data:`VACUUM` alone and keeps only the rows at the sample times:
binary powering raises the RK4 step map to the sampling stride, and a
doubling scan over the powered map fills the sampled rows.
:func:`closed_form_covariances` evaluates the closed-form covariances of
the double-pass model on a whole array of times at once, as one
``(..., 4, 4)`` stack, in one form at every alpha; RK4 alone switches, as
its drift holds alpha^2 itself.  :func:`variance_table` turns either
route's stack (or the oracle's atomic moments) into the one variance table
the CLI writes: the six published (co)variances, squeezing in dB
(reference variance 1/2) and the uncertainty products.
:func:`relative_error` compares two routes elementwise.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, step_count
from .ito import FAMILY_F, FAMILY_G, double_pass_derivation, lindblad
from .scalars import HALF, FormalScalar
from .weyl import OpPoly, mul

MODES = ("x_at", "p_at", "X_ph", "P_ph")

#: family -> (atom mode, field mode) of its sector; the sectors never mix
SECTORS = {FAMILY_F: ("p_at", "X_ph"), FAMILY_G: ("x_at", "P_ph")}

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

#: covariance of the vacuum/ground initial state, diag(1/2, 1/2, 0, 0);
#: read-only, as every caller shares it
VACUUM = np.diag([0.5, 0.5, 0.0, 0.0])
VACUUM.flags.writeable = False


def mode_index(label: str) -> int:
    return MODES.index(label)


@dataclass(frozen=True)
class LinearOde:
    """Drift/diffusion pair of the moment equations at a fixed coupling."""

    alpha: float
    drift: np.ndarray
    diffusion: np.ndarray


@dataclass(frozen=True)
class CovTrajectory:
    """RK4's covariances at its sample times and its cross-sector maximum."""

    times: np.ndarray
    covs: np.ndarray        # (n, 4, 4)
    cross_sector: float


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


def integrate_covariance(ode: LinearOde, t_max: float, dt: float,
                         sample_dt: float) -> CovTrajectory:
    """Classical fixed-step RK4 of the covariance equation, every sample_dt.

    The system is linear and time-invariant, so the RK4 stage algebra
    collapses to one affine step map, built once from the drift.  Binary
    powering raises it to the stride sample_dt / dt and a doubling scan
    fills the sampled rows: each the RK4 iterate on C - C0 in exact
    arithmetic.  dt must divide sample_dt (checked before any allocation),
    sample_dt must divide t_max, and alpha^2 dt <= 0.1 (stability).

    Where alpha^2 is subnormal or 0, as a drift entry -alpha^2 keeps few of
    alpha's digits or none, h = dt K and dt b are summed by degree in alpha
    (:func:`_moment_odes_by_degree`), so alpha^2 dt keeps every digit.
    A variance that comes out nonpositive at t > 0 raises ``ConfigError``
    naming t_max.
    """
    if dt <= 0 or sample_dt <= 0:
        raise ConfigError("dt and sample_dt must be positive")
    if t_max < 0:
        raise ConfigError("t_max must be nonnegative")
    if t_max == 0:
        return CovTrajectory(np.array([0.0]), VACUUM[None].copy(), 0.0)
    if sample_dt > t_max:
        raise ConfigError(f"grid_step = {sample_dt:.3g} must not exceed"
                          f" t_max = {t_max:.3g}")
    # dt <= 0.1/alpha^2 + 1e-15 as a product, since alpha^2 may underflow
    # to 0; the relative slack covers the rounding of either form
    alpha2 = ode.alpha * ode.alpha
    if not alpha2 * (dt - 1e-15) <= 0.1 * (1 + 1e-15):
        raise ConfigError(
            f"dt={dt} violates the stability bound 0.1/alpha^2="
            f"{0.1 / alpha2:.3g}")
    stride = step_count(sample_dt, dt, "solver.dt", "grid_step",
                        atol=1e-9 * sample_dt)
    n_rows = step_count(t_max, sample_dt, "grid_step", "t_max")

    # RK4 runs on Delta = C - C0, the deviation from the vacuum:
    # Delta' = A Delta + Delta A^T + S with S = A C0 + C0 A^T + D, whose
    # cross-covariance entries cancel exactly.  This is affine in the
    # row-major vec(Delta): K vec(Delta) + b (see _affine_form); the RK4
    # stages collapse to c_{n+1} = c + E c + r
    if alpha2 >= sys.float_info.min:
        k_mat, b_vec = _affine_form(ode.drift, ode.diffusion)
        e_mat, r_vec = _rk4_step_map(dt * k_mat, b_vec, dt)
    else:
        # h = dt K and dt b as dt X_0 + (alpha dt) X_1 + alpha (alpha dt) X_2
        at = ode.alpha * dt
        h, dt_b = 0.0, 0.0
        for scale, (drift, diffusion) in zip((dt, at, ode.alpha * at),
                                             _moment_odes_by_degree()):
            k_mat, b_vec = _affine_form(drift, diffusion)
            h, dt_b = h + scale * k_mat, dt_b + scale * b_vec
        e_mat, r_vec = _rk4_step_map(h, dt_b, 1.0)

    # (E_a, r_a) after (E_b, r_b) is (E_a + E_b + E_a E_b, r_b + E_a r_b + r_a);
    # binary powering from the identity map (0, 0) raises the step to the stride
    def compose(a, b):
        return a[0] + b[0] + a[0] @ b[0], b[1] + a[0] @ b[1] + a[1]

    power, step = (np.zeros((16, 16)), np.zeros(16)), (e_mat, r_vec)
    while stride:
        if stride & 1:
            power = compose(step, power)
        step, stride = compose(step, step), stride >> 1

    # row k of flat is vec(Delta) at sample k; Delta_0 = 0, so rows s+1..s+b
    # are Delta_j + E_s Delta_j + Delta_s of rows j = 1..b (b <= s), and
    # E_{2s} = 2 E_s + E_s E_s: ceil(log2 n) batched passes
    e_s, flat = power[0], np.zeros((n_rows + 1, 16))
    flat[1], s = power[1], 1
    while s < n_rows:
        b = min(s, n_rows - s)
        block = flat[1:1 + b]
        flat[s + 1:s + 1 + b] = block @ e_s.T + block + flat[s]
        e_s = 2.0 * e_s + e_s @ e_s
        s += b
    covs = flat.reshape(n_rows + 1, 4, 4)
    covs = 0.5 * (covs + covs.transpose(0, 2, 1)) + VACUUM

    # a rate that cancels (Var(X_ph)'s, once p_at has relaxed) keeps RK4's
    # rounding, which a long enough t_max integrates past 0
    bad = ~(np.diagonal(covs[1:], axis1=1, axis2=2) > 0).all(axis=0)
    if bad.any():
        raise ConfigError(
            f"t_max = {t_max:.3g}: RK4's variance of {MODES[bad.argmax()]}"
            f" at alpha = {ode.alpha:.3g} is not positive; its rounding,"
            " integrated over t_max, exceeds it: reduce t_max")
    return CovTrajectory(np.arange(n_rows + 1) * sample_dt, covs,
                         _cross_sector_max(covs))


def _affine_form(drift: np.ndarray, diffusion: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """``(K, b)`` of ``vec(Delta)' = K vec(Delta) + b`` for Delta = C - C0:
    the Kronecker sum ``K = A (x) 1 + 1 (x) A`` and ``b = vec(S)``,
    ``S = A C0 + C0 A^T + D``.  Both are linear in (A, D)."""
    eye = np.eye(4)
    return (np.kron(drift, eye) + np.kron(eye, drift),
            (drift @ VACUUM + VACUUM @ drift.T + diffusion).reshape(16))


@functools.lru_cache(maxsize=1)
def _moment_odes_by_degree() -> np.ndarray:
    """``(A_d, D_d)`` for d = 0, 1, 2, alpha-free: ``A = sum_d a^d A_d``
    and ``D = sum_d a^d D_d``, read from the exact entries of
    :func:`_symbolic_moment_structure` (the drift has degrees 1 and 2, the
    diffusion 0, 1 and 2); read-only, shape ``(3, 2, 4, 4)``."""
    out = np.zeros((3, 2, 4, 4))
    entries = np.array(_symbolic_moment_structure(), dtype=object)
    for (m, i, j), entry in np.ndenumerate(entries):
        for (degree, _, _), coeff in entry.terms():
            out[degree, m, i, j] = float(coeff)
    out.flags.writeable = False
    return out


def _rk4_step_map(h: np.ndarray, b_vec: np.ndarray,
                  dt: float) -> tuple[np.ndarray, np.ndarray]:
    """``(E, r)`` of one RK4 step ``c -> c + E c + r`` of ``c' = K c + b``,
    given ``h = dt K``: its four Taylor terms in Horner form, ``E = h P`` and
    ``r = dt P b`` with ``P = I + h/2 (I + h/3 (I + h/4))``.  No power of dt
    is formed to overflow; E = R - I stays apart from I, which would round
    off its low bits.  A ``b_vec`` that already holds dt b takes dt = 1."""
    eye = np.eye(len(h))
    p = eye + h / 2.0 @ (eye + h / 3.0 @ (eye + h / 4.0))
    return h @ p, dt * (p @ b_vec)


def _cross_sector_max(covs: np.ndarray) -> float:
    """Largest |entry| of an ``(n, 4, 4)`` stack in both off-diagonal
    blocks of :data:`SECTORS`: RK4's drift from 0; it raises above 1e-10.
    """
    f, g = ([mode_index(m) for m in pair] for pair in SECTORS.values())
    worst = max(float(np.abs(covs[:, rows][:, :, cols]).max())
                for rows, cols in ((f, g), (g, f)))
    if worst > 1e-10:
        raise AssertionError(
            f"cross-sector covariance grew to {worst:.3e} along the ODE route")
    return worst


# ---------------------------------------------------------------------------
# Closed-form covariances
# ---------------------------------------------------------------------------


def closed_form_covariances(alpha: float, t: float | np.ndarray,
                            ) -> np.ndarray:
    """The six published (co)variances at the time or times ``t``.

    Returns an array of shape ``np.shape(t) + (4, 4)``; the cross-sector
    entries, which the closed form does not define, stay NaN.  One form
    serves every alpha, 0 included: u = alpha^2 t is built as
    alpha (alpha t), 1 - exp(-u) comes from expm1, and no entry divides by
    a power of alpha.  Where alpha^2 t overflows, Var(X_ph) and
    cov(p_at, X_ph) read 0 and -0 (their finite limits are 3 / (4 alpha^2)
    and -1 / (4 alpha)); no command reaches such a t.
    """
    t = np.asarray(t, dtype=float)
    if alpha < 0 or (t < 0).any():
        raise ConfigError("alpha and t must be nonnegative")
    cov = np.full(t.shape + (4, 4), np.nan)

    def put(r, c, value):
        i, j = mode_index(r), mode_index(c)
        cov[..., i, j] = cov[..., j, i] = value

    # u = alpha (alpha t), and no entry divides by a power of alpha: alpha^2
    # keeps few of alpha's digits where it is subnormal, u formed from it
    # loses its own where it underflows, and alpha ** 4 may underflow where
    # t ** 3 overflows.  With phi = em / u (1 at u = 0),
    # em^2 / alpha = phi em alpha t and em (2 + em) / alpha^2 =
    # phi (2 + em) t; a subnormal u has em = u exactly, so phi = 1 there
    at = alpha * t
    u = alpha * at
    em = -np.expm1(-u)                # 1 - exp(-u), stable for small u
    with np.errstate(invalid="ignore"):
        phi = np.where(u > 0, em / u, 1.0)
    put("p_at", "p_at", 0.25 * (1.0 + np.exp(-2.0 * u)))
    put("x_at", "x_at", 0.5 * (1.0 + u))
    put("x_at", "P_ph", -0.25 * u * at)
    put("p_at", "X_ph", -0.25 * phi * em * at)
    put("X_ph", "X_ph", 0.25 * phi * (2.0 + em) * t)
    put("P_ph", "P_ph", 0.5 * t + u * u * t / 6.0)
    return cov


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


def relative_error(value: float | np.ndarray, ref: float | np.ndarray,
                   ) -> float | np.ndarray:
    """|value - ref| / |ref|, elementwise; 0 where ref is 0 and value is
    within 1e-14 of it.  NaN stays NaN; scalars give a scalar.
    """
    # as in Python floats: an overflow gives inf, inf - inf NaN, and neither
    # warns
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.abs(np.subtract(value, ref))
        err = np.where(np.equal(ref, 0) & (diff < 1e-14), 0.0,
                       diff / np.maximum(np.abs(ref), 1e-300))
    return err[()]
