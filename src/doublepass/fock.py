"""Brute-force verification in a truncated Fock space.

The field is discretized into collision-model time steps: each step couples
the atom to a fresh vacuum ancilla through the two pass unitaries

    U_pass1 = exp(-i sqrt(dt) a p (x) P_anc)
    U_pass2 = exp(-i sqrt(dt) a x (x) X_anc)
    U_composite = U_pass2 @ U_pass1      (pass 1 acts first)

which reproduce the one-step increments of the two single-pass couplings to
O(dt), including the Ito corrections; the O(dt) commutator of the ordered
product is exactly the composite Hamiltonian under test, so the splitting is
deliberately not symmetrized.

Each collision starts from a fresh vacuum ancilla and ends with the ancilla
traced out or measured, so only the stacked Kraus map of the composite
unitary enters the step loops (the repeated-interaction picture):

    K_e = <e|_anc U_composite |0>_anc,   K[e * d_at + i, j] = <i, e| U |j, 0>

an array of shape (d_anc * d_at, d_at) built once per (alpha, dt, d_at,
d_anc, phase).  Atomic moments evolve the reduced state exactly,
rho <- sum_e K_e rho K_e^dagger.
Output-field variances come from a homodyne Monte Carlo that projectively
measures one ancilla quadrature per step: with |e> the truncated quadrature
eigenbasis, one (d_anc * d_at, d_at) @ (d_at, n_traj) product gives every
outcome amplitude of every trajectory.  Each trajectory draws its outcomes
from its own uniform stream, spawned from (seed, trajectory index) and
drawn ``_UNIFORM_CHUNK`` steps at a time; the loop yields the record at
each sample step, where ``homodyne_series`` reduces it to its mean and
variance.  Both loops report only at one sample schedule,
``_sample_steps``, so neither one's memory grows with the step count.

At alpha = 0 (the vacuum control) the collision leaves the atom alone:
every block is c_e times the identity, with c_e = <e|0> in the gauge below.
Outcome e then has the fixed probability c_e^2, and since
sqrt(c * c) == |c| in binary floating point the general loop's state stays
exactly +-|0>.  So the record is a sum of independent draws from one law,
and the homodyne loop draws each step's outcomes from that law with no atom
state to step; every outcome and record keeps the bits of the general loop.

Both loops run in real arithmetic, in the atom gauge |n> -> i^n |n>
(G = diag(i^n), K_e -> G^dagger K_e G).  G^dagger a G = i a, so the gauge
maps x -> -p and p -> x on the atom.  In the Fock basis x is real symmetric
and p is i times a real antisymmetric matrix, so the two generators
p (x) P_anc and x (x) X_anc become x (x) P_anc and -p (x) X_anc: each is i
times a real antisymmetric matrix, each exponential exp(-i g) is real
orthogonal, and so is the composite unitary U'.  The stack follows:

* phase x: the X_anc eigenvectors are real, so block e of the gauged stack,
  K_e[i, j] * i^(j - i), is real.
* phase p: P_anc = D X_anc D^dagger with D = diag(i^a), and eigh returns
  each P_anc eigenvector as i^a times a real vector.  K_e[i, j] is then a
  sum of i^(a + i - j) * (real) over ancilla levels a, and U'[(i, a), (j, 0)]
  vanishes unless a + i - j is even (every generator term moves the atom
  and the ancilla by one level each), so K_e itself is real: factor 1.

The factors are +-1 and +-i, and multiplying by them is exact, so the gauge
adds no rounding; what is left of the imaginary part is the rounding of the
complex stack (about 2e-15 of its largest entry), and ``_real_gauge``
raises if it exceeds ``GAUGE_TOL``.  The gauge multiplies each amplitude by
a unit phase, so the outcome probabilities are unchanged up to that
rounding; every outcome draw and so every record y, which sums
sqrt(2 dt) * eigvals[outcome], keeps its bits (checked against the complex
loop in the tests).

The atom-moment loop uses the phase-x stack whatever the phase: the channel
rho <- sum_e K_e rho K_e^dagger does not depend on the basis the ancilla is
traced in, and the phase-x stack is the gauged one (the phase-p stack is
real in the Fock frame itself).  The gauged state G^dagger rho G starts at
the real |0><0| and stays real symmetric under rho <- sum_e K_e rho K_e^T;
x -> -p and p -> x give Var(x) = Tr(rho p^2) and Var(p) = Tr(rho x^2), with
x^2 and p^2 real in the Fock basis.  Both means are exactly 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, step_count

#: step bound keeping the per-collision excitation small
MAX_ALPHA2_DT = 1e-2

#: tolerated population outside the lower (d_at - 2) atom levels
LEAK_TOL = 1e-6

#: tolerated deviation of the reduced-state trace from 1 after one step
TRACE_TOL = 1e-8

#: tolerated imaginary part of the gauged Kraus stack, relative to its
#: largest entry; rounding leaves about 2e-15
GAUGE_TOL = 1e-12

#: fewest trajectories an oracle run accepts
MIN_TRAJ = 100

#: steps of every trajectory's uniform stream drawn at a time into one
#: reused (n_traj, _UNIFORM_CHUNK) buffer.  Against drawing whole streams,
#: ``compare``'s peak RSS fell by about 0.85 MB at 128; by 1.0 MB at 64,
#: which cost about 10 ms more in its two homodyne runs, and by 0.4 MB at 256
_UNIFORM_CHUNK = 128

#: the measured ancilla quadrature, as written in the config (oracle.phase)
PHASE_X = "x"
PHASE_P = "p"

#: i^k for k = 0..3, each exact in floating point
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


class TruncationLeakError(ConfigError):
    """Raised when population escapes the resolved part of the atom space.

    A configuration error: a larger ``d_at`` (or a smaller step) removes it.
    """


@dataclass(frozen=True)
class OracleConfig:
    """Parameters of one oracle run: ``alpha`` and the ``oracle.`` keys."""

    alpha: float
    dt: float
    t_max: float
    d_at: int
    d_anc: int
    n_traj: int
    seed: int
    phase: str

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.dt, self.t_max))):
            raise ConfigError(
                "alpha, oracle.dt and oracle.t_max must be finite")
        if self.alpha < 0:
            raise ConfigError("alpha must be nonnegative")
        if self.dt <= 0 or self.t_max < self.dt:
            raise ConfigError("need 0 < oracle.dt <= oracle.t_max")
        if self.d_at < 4 or self.d_anc < 2:
            raise ConfigError("need oracle.d_at >= 4 and oracle.d_anc >= 2")
        if self.n_traj < MIN_TRAJ:
            raise ConfigError(f"oracle.n_traj must be at least {MIN_TRAJ}")
        if self.seed < 0:
            raise ConfigError("oracle.seed must be nonnegative")
        if self.phase not in (PHASE_X, PHASE_P):
            raise ConfigError(
                f"oracle.phase must be {PHASE_X!r} or {PHASE_P!r}")
        # a product, not a power: alpha ** 2 raises OverflowError on 1e200
        alpha2_dt = self.alpha * self.alpha * self.dt
        if not alpha2_dt <= MAX_ALPHA2_DT + 1e-15:
            raise ConfigError(f"alpha^2*oracle.dt = {alpha2_dt:.2e} exceeds"
                              f" {MAX_ALPHA2_DT:.0e}")
        self.n_steps  # counted once, here, so that a bad oracle.dt fails now

    @cached_property
    def n_steps(self) -> int:
        return step_count(self.t_max, self.dt, "oracle.dt", "oracle.t_max")


@dataclass(frozen=True)
class AtomMomentSeries:
    """Deterministic atomic variances at the sample steps; both means are 0."""

    step: np.ndarray
    var_x: np.ndarray
    var_p: np.ndarray
    max_leak: float             # largest top-two-level population, any step
    max_trace_deficit: float    # largest |1 - trace| before renormalizing


@dataclass(frozen=True)
class TrajectoryStats:
    """Ensemble statistics of the integrated homodyne record: one array
    entry per sample step; ``n`` and ``max_leak`` per run."""

    step: np.ndarray
    time: np.ndarray
    n: int
    mean: np.ndarray
    variance: np.ndarray
    stderr_mean: np.ndarray  # sample standard deviation / sqrt(n)
    stderr_var: np.ndarray  # Gaussian-approx standard error of the variance
    max_leak: float  # largest top-two-level population of the run


# ---------------------------------------------------------------------------
# Truncated operators and the Kraus stack
# ---------------------------------------------------------------------------


def annihilation(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(dim - 1):
        a[n, n + 1] = math.sqrt(n + 1)
    return a


def position(dim: int) -> np.ndarray:
    a = annihilation(dim)
    return (a + a.conj().T) / math.sqrt(2.0)


def momentum(dim: int) -> np.ndarray:
    a = annihilation(dim)
    return (a - a.conj().T) / (1j * math.sqrt(2.0))


def _expm_hermitian_generator(g: np.ndarray) -> np.ndarray:
    """exp(-i g) for Hermitian g, via the eigendecomposition (exactly unitary)."""
    vals, vecs = np.linalg.eigh(g)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def step_unitaries(alpha: float, dt: float, d_at: int, d_anc: int,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One collision step: (U_pass1, U_pass2, U_composite = U2 @ U1)."""
    if d_at < 2 or d_anc < 2:
        raise ConfigError("dimensions must be at least 2")
    if not (dt > 0 and alpha >= 0):
        raise ConfigError("need dt > 0 and alpha >= 0")
    if not alpha * alpha * dt <= MAX_ALPHA2_DT + 1e-15:
        raise ConfigError("alpha^2*dt exceeds the documented step bound")
    root = math.sqrt(dt) * alpha
    g1 = root * np.kron(momentum(d_at), momentum(d_anc))
    g2 = root * np.kron(position(d_at), position(d_anc))
    u1 = _expm_hermitian_generator(g1)
    u2 = _expm_hermitian_generator(g2)
    return u1, u2, u2 @ u1


def kraus_stack(alpha: float, dt: float, d_at: int, d_anc: int,
                basis: np.ndarray) -> np.ndarray:
    """Stacked Kraus operators of one collision with a vacuum ancilla.

    Returns K of shape (d_anc * d_at, d_at) whose block e is
    K_e = <e|_anc U_composite |0>_anc, i.e. K[e * d_at + i, j] =
    <i, e| U |j, 0> (atom index first, as in the joint basis).  The outcome
    states |e> are the columns of ``basis``, so passing a quadrature
    eigenbasis folds the measurement rotation into K.
    """
    _, _, u = step_unitaries(alpha, dt, d_at, d_anc)
    # rows split into (atom i, ancilla a); columns keep the ancilla vacuum
    k = u[:, ::d_anc].reshape(d_at, d_anc, d_at)
    return np.einsum("ae,iaj->eij", basis.conj(), k).reshape(
        d_anc * d_at, d_at)


def _real_gauge(kraus: np.ndarray, measure_p: bool) -> np.ndarray:
    """A quadrature Kraus stack in the real gauge |n> -> i^n |n>, as float64.

    Phase x multiplies K_e[i, j] by the exact factor i^(j - i); phase p
    needs factor 1 (see the module docstring).  The imaginary part left is
    rounding; more than ``GAUGE_TOL`` of the largest entry raises
    ``ArithmeticError``.  Non-finite entries come out as NaN and are left
    for the step loop's own guards to report.
    """
    rows, d = kraus.shape
    if not measure_p:
        n = np.arange(d)
        phases = _I_POWERS[(n[None, :] - n[:, None]) % 4]
        kraus = (kraus.reshape(-1, d, d) * phases).reshape(rows, d)
    real = np.ascontiguousarray(kraus.real)
    finite = np.isfinite(kraus)
    if not finite.all():
        # a NaN in the imaginary part alone must not vanish with it
        real[~finite] = np.nan
        return real
    resid = float(np.abs(kraus.imag).max())
    scale = float(np.abs(kraus).max())
    if resid > GAUGE_TOL * scale:
        raise ArithmeticError(
            f"gauged Kraus stack is not real: imaginary part {resid:.2e}"
            f" of largest entry {scale:.2e}")
    return real


@lru_cache(maxsize=2)
def _gauged_stack(alpha: float, dt: float, d_at: int, d_anc: int,
                  phase: str) -> tuple[np.ndarray, np.ndarray]:
    """(eigvals, real gauged Kraus stack) of ``phase``'s ancilla quadrature.

    Block e of the stack maps the atom state to the amplitude of outcome
    eigvals[e].  Cached, so the atom loop and the phase-x homodyne loop of
    one run share one build; both arrays are read-only.
    """
    measure_p = phase == PHASE_P
    quad_op = momentum(d_anc) if measure_p else position(d_anc)
    eigvals, eigvecs = np.linalg.eigh(quad_op)
    kraus = _real_gauge(kraus_stack(alpha, dt, d_at, d_anc, eigvecs),
                        measure_p)
    eigvals.flags.writeable = kraus.flags.writeable = False
    return eigvals, kraus


def _sample_steps(n_steps: int, n_samples: int) -> list[int]:
    """The oracle's sample steps, k * n_steps // n for k = 1..n with
    n = min(n_samples, n_steps): even to within one step, ending at n_steps."""
    if n_samples < 1:
        raise ConfigError("need at least one sample")
    n = min(n_samples, n_steps)
    return [k * n_steps // n for k in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Deterministic atom moments
# ---------------------------------------------------------------------------


def simulate_atom_moments(config: OracleConfig,
                          n_samples: int) -> AtomMomentSeries:
    """Repeated-interaction evolution of the reduced atomic state, read at
    the ``n_samples`` steps of :func:`_sample_steps`.

    Per step: apply the collision channel rho <- sum_e K_e rho K_e^T in the
    real gauge (fresh vacuum ancilla, composite unitary, ancilla traced out;
    see the module docstring), check and renormalize the trace.  Raises
    :class:`TruncationLeakError` when, at any step, the trace moves by more
    than ``TRACE_TOL`` or more than ``LEAK_TOL`` population reaches the top
    two atom levels.
    """
    steps = _sample_steps(config.n_steps, n_samples)
    d, da = config.d_at, config.d_anc
    # any ancilla basis traces out the same channel; the phase-x stack is the
    # one in the gauge, which maps x -> -p and p -> x: Var(x) reads p^2 and
    # Var(p) reads x^2
    _, kraus = _gauged_stack(config.alpha, config.dt, d, da, PHASE_X)
    kraus = kraus.reshape(da, d, d)
    kraus_t = kraus.transpose(0, 2, 1)
    x2, p2 = ((op @ op).real for op in (position(d), momentum(d)))

    rho = np.zeros((d, d))
    rho[0, 0] = 1.0

    moments = []                # (Var(x), Var(p)) at each sample step
    max_leak = max_deficit = 0.0
    k_rho, k_rho_k = np.empty((da, d, d)), np.empty((da, d, d))
    for step in range(1, config.n_steps + 1):
        np.matmul(kraus, rho, out=k_rho)
        np.matmul(k_rho, kraus_t, out=k_rho_k)
        rho = k_rho_k.sum(axis=0)
        trace = rho.trace()
        deficit = abs(1.0 - trace)
        # written as "not <=" so that NaN trips the guards
        if not deficit <= TRACE_TOL:
            raise TruncationLeakError(
                f"trace deficit {deficit:.2e} at step {step}")
        max_deficit = max(max_deficit, deficit)
        rho = rho / trace
        leak = float(np.diag(rho)[-2:].sum())
        if not leak <= LEAK_TOL:
            raise TruncationLeakError(
                f"top-level atom population {leak:.2e} at step {step};"
                " increase d_at")
        max_leak = max(max_leak, leak)
        # the last sample is the last step, so the index stays in range
        if step == steps[len(moments)]:
            moments.append((np.einsum("ij,ji->", rho, p2),
                            np.einsum("ij,ji->", rho, x2)))
    var_x, var_p = np.array(moments).T
    return AtomMomentSeries(np.array(steps), var_x, var_p, max_leak,
                            max_deficit)


# ---------------------------------------------------------------------------
# Homodyne Monte Carlo
# ---------------------------------------------------------------------------


def _uniform_steps(seed: int, n_traj: int,
                   n_steps: int) -> Iterator[np.ndarray]:
    """One independent uniform stream per (seed, trajectory index), drawn
    ``_UNIFORM_CHUNK`` steps at a time.

    Yields, for each of the ``n_steps`` steps, an ``(n_traj,)`` view of one
    buffer, entry i the draw of trajectory i; each chunk of draws
    overwrites the one before.  A generator's stream does not depend on how
    its draws are split, so every draw keeps the bits of one
    ``random(n_steps)`` call per trajectory.
    """
    streams = [np.random.default_rng(child)
               for child in np.random.SeedSequence(seed).spawn(n_traj)]
    buffer = np.empty((n_traj, min(_UNIFORM_CHUNK, n_steps)))
    for start in range(0, n_steps, _UNIFORM_CHUNK):
        chunk = buffer[:, :min(_UNIFORM_CHUNK, n_steps - start)]
        for rng, row in zip(streams, chunk):
            rng.random(out=row)
        yield from chunk.T


def _homodyne_records(config: OracleConfig, sample_steps: list[int],
                      ) -> Iterator[tuple[np.ndarray, float]]:
    """Run the homodyne loop, yielding at each of the increasing
    ``sample_steps``, the last of them ``n_steps``, the record y of every
    trajectory and the largest leak seen so far.

    y is the loop's own buffer, which the next step overwrites: read it
    before resuming the loop.  Memory does not grow with ``n_steps``.
    At alpha = 0 the outcomes are drawn from their fixed law and the leak
    is exactly 0 (see the module docstring).
    """
    d, da = config.d_at, config.d_anc
    n_steps, n = config.n_steps, config.n_traj
    eigvals, kraus = _gauged_stack(config.alpha, config.dt, d, da,
                                   config.phase)
    steps = enumerate(_uniform_steps(config.seed, n, n_steps), 1)
    y = np.zeros(n)
    gain = math.sqrt(config.dt) * math.sqrt(2.0)
    sample = 0

    if config.alpha == 0:
        # the law reads one entry of each block: a NaN elsewhere stops it here
        if not np.isfinite(kraus).all():
            raise TruncationLeakError("non-finite Kraus stack at alpha = 0")
        cum = np.cumsum(kraus[::d, 0] * kraus[::d, 0])
        for step, uniforms in steps:
            # cum is finite and sorted, so this counts the entries of cum
            # below u * total: the general loop's outcome
            y += gain * eigvals[np.searchsorted(cum, uniforms * cum[-1])]
            if step == sample_steps[sample]:
                yield y, 0.0
                sample += 1
        return

    psi = np.zeros((d, n))
    psi[0, :] = 1.0
    check_every = 25
    max_leak = 0.0
    traj = np.arange(n)
    # the step's arrays, allocated once, so no step faults in fresh pages
    comps, squares = np.empty((da, d, n)), np.empty((da, d, n))
    comps_flat = comps.reshape(da * d, n)
    probs, cum = np.empty((da, n)), np.empty((da, n))
    for step, uniforms in steps:
        np.matmul(kraus, psi, out=comps_flat)
        np.multiply(comps, comps, out=squares)
        squares.sum(axis=1, out=probs)
        # the running sum over outcomes in cumsum's order, into one buffer
        cum[0] = probs[0]
        for e in range(1, da):
            np.add(cum[e - 1], probs[e], out=cum[e])
        # u in [0, 1) times the total never rounds above it, and NaN and inf
        # compare False: the last comparison never holds, so idx <= da - 1
        draws = uniforms * cum[-1]
        idx = (draws[None, :] > cum).sum(axis=0)
        psi = comps[idx, :, traj].T / np.sqrt(probs[idx, traj])
        y += gain * eigvals[idx]
        if step % check_every == 0 or step == n_steps:
            leak = float((psi[-2:] ** 2).sum(axis=0).max())
            # "not <=" so that NaN trips the guard
            if not leak <= LEAK_TOL:
                raise TruncationLeakError(
                    f"top-level atom population {leak:.2e} in a trajectory"
                    f" at step {step}; increase d_at")
            # a NaN total probability draws outcome 0 and keeps psi finite
            if not (np.isfinite(psi).all() and np.isfinite(cum[-1]).all()):
                raise TruncationLeakError(
                    "non-finite atom state or outcome probability in a"
                    f" trajectory at step {step}")
            max_leak = max(max_leak, leak)
        if step == sample_steps[sample]:
            yield y, max_leak
            sample += 1


def homodyne_series(config: OracleConfig,
                    n_samples: int) -> TrajectoryStats:
    """Ensemble statistics of the integrated record at ``n_samples`` evenly
    spaced steps, the final one included (:func:`_sample_steps`).

    The record y accumulates sqrt(dt) * sqrt(2) * (measured quadrature) per
    step, so it realizes sqrt(2) * x_ph_out (phase x) or sqrt(2) * p_ph_out
    (phase p) and Var(y_t) estimates twice the accumulated-quadrature
    variance (``ddof=1`` over the trajectories).  Fully reproducible from the
    seed.  Each sample's record is reduced as the loop reaches it, so memory
    grows with n_samples and not with n_traj times it.
    """
    steps = _sample_steps(config.n_steps, n_samples)
    mean, var = np.empty(len(steps)), np.empty(len(steps))
    for k, (y, max_leak) in enumerate(_homodyne_records(config, steps)):
        mean[k], var[k] = y.mean(), y.var(ddof=1)
    n, step = config.n_traj, np.array(steps)
    return TrajectoryStats(
        step=step, time=step * config.dt, n=n, mean=mean, variance=var,
        stderr_mean=np.sqrt(var) / math.sqrt(n),
        stderr_var=var * math.sqrt(2.0 / (n - 1)), max_leak=max_leak)


def homodyne_monte_carlo(config: OracleConfig) -> TrajectoryStats:
    """:func:`homodyne_series` at one sample, the final step."""
    return homodyne_series(config, 1)
