"""Truncated-Fock collision oracle: operators, unitaries, moments, homodyne."""

import math
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg

from doublepass import fock
from doublepass.cli import RunConfig
from doublepass.errors import ConfigError
from doublepass.fock import (GAUGE_TOL, LEAK_TOL, MIN_TRAJ, OracleConfig,
                             PHASE_P, PHASE_X, TRACE_TOL,
                             TruncationLeakError, annihilation,
                             homodyne_monte_carlo, homodyne_series,
                             kraus_stack, momentum, position,
                             simulate_atom_moments, step_unitaries)
from doublepass.gaussian import closed_form_covariances, mode_index

# Each phase is shown in test ids by the quadrature angle it measures
# (x at 0, p at pi/2), so the ids do not depend on how a phase is encoded.
PHASES = [pytest.param(PHASE_X, id=repr(0.0)),
          pytest.param(PHASE_P, id=repr(math.pi / 2))]


def test_truncated_operators():
    d = 12
    a = annihilation(d)
    n = a.conj().T @ a
    assert np.allclose(np.diag(n).real[:d - 1], np.arange(d - 1))
    x, p = position(d), momentum(d)
    # [x, p] = i on the lower (d - 2) block
    ccr = x @ p - p @ x - 1j * np.eye(d)
    assert np.linalg.norm(ccr[:d - 2, :d - 2]) < 1e-12
    psi = np.eye(d)[0]
    assert (psi.conj() @ x @ x @ psi).real == pytest.approx(0.5)


def test_step_unitaries_unitary_on_lower_block():
    for alpha in (0.0, 0.3, 0.9):
        u1, u2, uc = step_unitaries(alpha, 1e-3, 24, 3)
        d = 24 * 3
        for u in (u1, u2, uc):
            defect = np.linalg.norm(
                (u.conj().T @ u - np.eye(d))[:d - 2, :d - 2])
            assert defect < 1e-10


def test_step_unitaries_composition_order():
    u1, u2, uc = step_unitaries(0.5, 1e-3, 16, 3)
    assert np.allclose(uc, u2 @ u1)
    assert not np.allclose(uc, u1 @ u2)


def test_step_unitaries_reject_large_step():
    with pytest.raises(ConfigError):
        step_unitaries(2.0, 1e-2, 16, 3)


def test_composite_log_recovers_coupling_and_hamiltonian():
    # <0_anc| log U |0_anc> / dt -> -iH, <1_anc| log U |0_anc> / sqrt(dt) -> L
    alpha, dt, d_at, d_anc = 0.7, 1e-6, 18, 3
    _, _, u = step_unitaries(alpha, dt, d_at, d_anc)
    k = scipy.linalg.logm(u).reshape(d_at, d_anc, d_at, d_anc)
    x, p = position(d_at), momentum(d_at)
    h_block = 1j * k[:, 0, :, 0] / dt
    h_expected = 0.25 * alpha ** 2 * (p @ x + x @ p)
    l_block = k[:, 1, :, 0] / math.sqrt(dt)
    l_expected = alpha * (p - 1j * x) / math.sqrt(2)
    sl = np.s_[:d_at - 2, :d_at - 2]
    assert np.linalg.norm((h_block - h_expected)[sl]) < \
        1e-4 * np.linalg.norm(h_expected[sl])
    assert np.linalg.norm((l_block - l_expected)[sl]) < \
        1e-4 * np.linalg.norm(l_expected[sl])


#: a valid oracle run; the validation tests change one field of it
VALID = dict(alpha=0.5, dt=1e-3, t_max=1.0, d_at=40, d_anc=3, n_traj=2000,
             seed=12345, phase=PHASE_X)


def test_config_validation():
    with pytest.raises(ConfigError):
        OracleConfig(**{**VALID, "alpha": -1.0})
    with pytest.raises(ConfigError):
        OracleConfig(**{**VALID, "dt": 0.1, "t_max": 0.05})
    with pytest.raises(ConfigError):   # alpha^2 dt too big
        OracleConfig(**{**VALID, "alpha": 4.0, "dt": 1e-2})
    with pytest.raises(ConfigError):
        OracleConfig(**{**VALID, "phase": 0.3})
    cfg = OracleConfig(**VALID)
    assert cfg.n_steps == 1000


@pytest.mark.parametrize("bad", [
    dict(alpha=math.nan), dict(alpha=math.inf), dict(dt=math.nan),
    dict(t_max=math.nan), dict(phase=math.nan),
    dict(alpha=1e200),          # alpha ** 2 would raise OverflowError
    dict(seed=-1),
    dict(d_at=3), dict(d_anc=1), dict(n_traj=MIN_TRAJ - 1),
    dict(dt=3e-3),              # does not divide t_max
])
def test_config_rejects_nonfinite_and_out_of_range(bad):
    # the message names the config key: oracle.<field>, or the top-level alpha
    (name,) = bad
    key = name if name == "alpha" else f"oracle.{name}"
    with pytest.raises(ConfigError, match=re.escape(key)):
        OracleConfig(**{**VALID, **bad})


# -- stacked Kraus map against the unitary route -------------------------------


def _quadrature_basis(phase, d_anc):
    quad = momentum(d_anc) if phase == PHASE_P else position(d_anc)
    return np.linalg.eigh(quad)


@pytest.mark.parametrize("alpha", [0.3, 0.9])
@pytest.mark.parametrize("phase", [None, *PHASES])
def test_kraus_stack_trace_preserving_on_lower_block(alpha, phase):
    d, da = 12, 3
    basis = np.eye(da) if phase is None else _quadrature_basis(phase, da)[1]
    k = kraus_stack(alpha, 1e-3, d, da, basis).reshape(da, d, d)
    completeness = np.einsum("eji,ejk->ik", k.conj(), k)
    defect = (completeness - np.eye(d))[:d - 2, :d - 2]
    assert np.abs(defect).max() < 1e-12


def test_atom_step_matches_unitary_route():
    # reference: Tr_anc[U (rho (x) |0><0|) U^dagger], renormalized per step
    cfg = OracleConfig(alpha=0.9, dt=5e-3, t_max=0.05, d_at=12, d_anc=3,
                       n_traj=2000, seed=12345, phase=PHASE_X)
    d, da = cfg.d_at, cfg.d_anc
    _, _, u = step_unitaries(cfg.alpha, cfg.dt, d, da)
    anc_vac = np.zeros((da, da))
    anc_vac[0, 0] = 1.0
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    x, p = position(d), momentum(d)
    ref = []
    for step in range(cfg.n_steps + 1):
        if step:
            joint = u @ np.kron(rho, anc_vac) @ u.conj().T
            rho = np.einsum("iaja->ij", joint.reshape(d, da, d, da))
            rho = rho / rho.trace().real
        mx, mp = np.trace(rho @ x).real, np.trace(rho @ p).real
        ref.append((np.trace(rho @ x @ x).real - mx * mx,
                    np.trace(rho @ p @ p).real - mp * mp))
    series = simulate_atom_moments(cfg)
    got = np.stack([series.var_x, series.var_p], axis=1)
    assert cfg.n_steps == 10
    assert np.abs(got - np.array(ref)).max() < 1e-12
    assert series.var_x[1] != series.var_x[0]     # the step did act


@pytest.mark.parametrize("phase", PHASES)
def test_homodyne_step_matches_unitary_route(phase):
    # outcome amplitudes: <e| U (psi (x) |0>) in the quadrature eigenbasis
    alpha, dt, d, da, n = 0.9, 5e-3, 12, 3, 4
    eigvals, eigvecs = _quadrature_basis(phase, da)
    _, _, u = step_unitaries(alpha, dt, d, da)
    rng = np.random.default_rng(7)
    psi = rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))
    psi /= np.linalg.norm(psi, axis=0)
    joint = np.zeros((d * da, n), dtype=complex)
    joint[::da, :] = psi
    joint = (u @ joint).reshape(d, da, n)
    ref = np.einsum("ae,ian->ein", eigvecs.conj(), joint)
    got = (kraus_stack(alpha, dt, d, da, eigvecs) @ psi).reshape(da, d, n)
    assert np.abs(got - ref).max() < 1e-12


@pytest.mark.parametrize("phase", PHASES)
def test_homodyne_records_match_unitary_route(phase):
    # the whole sampled record, re-run through the joint-vector route with
    # one uniform stream per (seed, trajectory index)
    cfg = OracleConfig(alpha=0.9, dt=5e-3, t_max=0.2, d_at=12, d_anc=3,
                       n_traj=100, seed=21, phase=phase)
    d, da, n = cfg.d_at, cfg.d_anc, cfg.n_traj
    eigvals, eigvecs = _quadrature_basis(phase, da)
    _, _, u = step_unitaries(cfg.alpha, cfg.dt, d, da)
    streams = [np.random.default_rng(child).random(cfg.n_steps)
               for child in np.random.SeedSequence(cfg.seed).spawn(n)]
    psi = np.zeros((d, n), dtype=complex)
    psi[0, :] = 1.0
    y = np.zeros(n)
    for step in range(cfg.n_steps):
        joint = np.zeros((d * da, n), dtype=complex)
        joint[::da, :] = psi
        joint = (u @ joint).reshape(d, da, n)
        comps = np.einsum("ae,ian->ein", eigvecs.conj(), joint)
        for j in range(n):
            probs = (np.abs(comps[:, :, j]) ** 2).sum(axis=1)
            e = min(int((streams[j][step] * probs.sum()
                         > np.cumsum(probs)).sum()), da - 1)
            psi[:, j] = comps[e, :, j] / math.sqrt(probs[e])
            y[j] += math.sqrt(2.0 * cfg.dt) * eigvals[e]
    st = homodyne_monte_carlo(cfg)
    assert st.mean == pytest.approx(y.mean(), abs=1e-12)
    assert st.variance == pytest.approx(y.var(ddof=1), abs=1e-12)


# -- deterministic atomic moments ------------------------------------------------


def test_atom_moments_alpha_zero():
    cfg = OracleConfig(alpha=0.0, dt=5e-3, t_max=0.5, d_at=10, d_anc=2,
                       n_traj=2000, seed=12345, phase=PHASE_X)
    series = simulate_atom_moments(cfg)
    assert np.allclose(series.var_x, 0.5, atol=1e-12)
    assert np.allclose(series.var_p, 0.5, atol=1e-12)


def test_atom_moments_match_closed_forms():
    cfg = OracleConfig(alpha=0.3, dt=2e-3, t_max=0.5, d_at=25, d_anc=3,
                       n_traj=2000, seed=12345, phase=PHASE_X)
    series = simulate_atom_moments(cfg)
    closed = closed_form_covariances(0.3, 0.5)
    p, x = mode_index("p_at"), mode_index("x_at")
    assert series.var_p[-1] == pytest.approx(closed[p, p], rel=0.02)
    assert series.var_x[-1] == pytest.approx(closed[x, x], rel=0.02)
    assert series.max_leak < LEAK_TOL
    # the state stays physical
    assert (series.var_x * series.var_p >= 0.25 - 1e-10).all()


def test_atom_moments_do_not_depend_on_measured_phase():
    # the atom loop traces the ancilla out in one fixed basis
    kw = dict(alpha=0.9, dt=5e-3, t_max=0.3, d_at=14, d_anc=3, n_traj=2000,
              seed=12345)
    at_x = simulate_atom_moments(OracleConfig(phase=PHASE_X, **kw))
    at_p = simulate_atom_moments(OracleConfig(phase=PHASE_P, **kw))
    assert at_x.var_x.tobytes() == at_p.var_x.tobytes()
    assert at_x.var_p.tobytes() == at_p.var_p.tobytes()
    assert at_x.var_x[-1] != at_x.var_x[0]


def test_atom_moments_truncation_converged():
    # growing the atom space does not move the answer
    kw = dict(alpha=0.3, dt=2e-3, t_max=0.5, d_anc=3, n_traj=2000,
              seed=12345, phase=PHASE_X)
    v30 = simulate_atom_moments(OracleConfig(d_at=30, **kw)).var_p[-1]
    v40 = simulate_atom_moments(OracleConfig(d_at=40, **kw)).var_p[-1]
    assert abs(v30 - v40) / v40 < 1e-3


def test_atom_moments_leak_detection():
    # a tiny atom space cannot hold the x-quadrature growth
    cfg = OracleConfig(alpha=0.9, dt=5e-3, t_max=2.0, d_at=4, d_anc=3,
                       n_traj=2000, seed=12345, phase=PHASE_X)
    with pytest.raises(TruncationLeakError):
        simulate_atom_moments(cfg)


def test_guards_trip_on_nan(monkeypatch):
    # a NaN state must stop both loops, not flow into the statistics
    def nan_kraus(alpha, dt, d_at, d_anc, basis):
        return np.full((d_anc * d_at, d_at), np.nan, dtype=complex)

    monkeypatch.setattr(fock, "kraus_stack", nan_kraus)
    cfg = OracleConfig(alpha=0.3, dt=2e-3, t_max=0.1, d_at=10, d_anc=3,
                       n_traj=100, seed=12345, phase=PHASE_X)
    with pytest.raises(TruncationLeakError, match="trace deficit"):
        simulate_atom_moments(cfg)
    with pytest.raises(TruncationLeakError, match="top-level"), \
            np.errstate(invalid="ignore"):
        homodyne_monte_carlo(cfg)


def test_guards_trip_on_nan_with_unreachable_top_levels(monkeypatch):
    # a NaN diagonal links no level to another, so only level 0 is stepped
    # and the top-level leak reads 0: the state itself must trip the guard
    def nan_diagonal(alpha, dt, d_at, d_anc, basis):
        k = np.zeros((d_anc, d_at, d_at), dtype=complex)
        k[:, np.arange(d_at), np.arange(d_at)] = np.nan
        return k.reshape(d_anc * d_at, d_at)

    monkeypatch.setattr(fock, "kraus_stack", nan_diagonal)
    cfg = OracleConfig(alpha=0.3, dt=2e-3, t_max=0.1, d_at=10, d_anc=3,
                       n_traj=100, seed=12345, phase=PHASE_X)
    nan_stack = fock.kraus_stack(0.3, 2e-3, 10, 3, np.eye(3))
    assert fock._reachable_levels(nan_stack).tolist() == [0]
    with pytest.raises(TruncationLeakError), np.errstate(invalid="ignore"):
        homodyne_monte_carlo(cfg)


def test_oracle_health_within_limits_at_compare_config():
    ocfg = RunConfig().section(OracleConfig)
    atoms = simulate_atom_moments(ocfg)
    st = homodyne_monte_carlo(ocfg)
    assert 0.0 <= atoms.max_trace_deficit < TRACE_TOL
    assert 0.0 <= atoms.max_leak < LEAK_TOL
    assert 0.0 <= st.max_leak < LEAK_TOL


# -- homodyne loop on the reachable atom levels ------------------------------------


def _real_stack(alpha, dt, d_at, d_anc, phase):
    """The real-gauge homodyne stack the loop steps, on every atom level."""
    basis = _quadrature_basis(phase, d_anc)[1]
    return fock._real_gauge(fock.kraus_stack(alpha, dt, d_at, d_anc, basis),
                            phase == PHASE_P)


def _full_space_records(config, sample_steps):
    """Reference: the real-gauge homodyne loop stepping every atom level;
    returns the records at ``sample_steps``, one row each, and the run's
    largest leak."""
    d, da = config.d_at, config.d_anc
    n_steps, n = config.n_steps, config.n_traj
    eigvals = _quadrature_basis(config.phase, da)[0]
    kraus = _real_stack(config.alpha, config.dt, d, da, config.phase)
    uniforms = fock._trajectory_uniforms(config.seed, n, n_steps)
    psi = np.zeros((d, n))
    psi[0, :] = 1.0
    y = np.zeros(n)
    gain = math.sqrt(config.dt) * math.sqrt(2.0)
    records, max_leak, traj = [], 0.0, np.arange(n)
    for step in range(1, n_steps + 1):
        comps = (kraus @ psi).reshape(da, d, n)
        probs = (comps * comps).sum(axis=1)
        cum = np.cumsum(probs, axis=0)
        draws = uniforms[:, step - 1] * cum[-1]
        idx = np.clip((draws[None, :] > cum).sum(axis=0), 0, da - 1)
        psi = comps[idx, :, traj].T / np.sqrt(probs[idx, traj])
        y += gain * eigvals[idx]
        if step % 25 == 0 or step == n_steps:
            leak = float((psi[-2:, :] ** 2).sum(axis=0).max())
            max_leak = max(max_leak, leak)
        if step in sample_steps:
            records.append(y.copy())
    return np.array(records), max_leak


@pytest.mark.parametrize("d_anc", [2, 3])
@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("alpha", [0.0, 0.9])
def test_reachable_level_records_bit_equal_full_space(alpha, phase, d_anc):
    cfg = OracleConfig(alpha=alpha, dt=5e-3, t_max=0.3, d_at=12,
                       d_anc=d_anc, n_traj=100, seed=31, phase=phase)
    kraus = _real_stack(alpha, cfg.dt, cfg.d_at, d_anc, phase)
    levels = fock._reachable_levels(kraus)
    assert levels.tolist() == ([0] if alpha == 0.0 else
                               list(range(cfg.d_at)))
    steps = [10, 25, 47, cfg.n_steps]
    got, leak = fock._homodyne_records(cfg, steps)
    ref, leak_ref = _full_space_records(cfg, steps)
    assert got.shape == ref.shape == (len(steps), cfg.n_traj)
    assert got.tobytes() == ref.tobytes()
    assert leak == leak_ref


def test_reachable_levels_partial_set(monkeypatch):
    # Kraus blocks acting on levels 0..2 only: the loop steps three levels,
    # the top-level leak reads exactly 0, and the records match the full
    # space up to the summation order of the matrix product
    small = kraus_stack(0.9, 5e-3, 3, 3, _quadrature_basis(PHASE_X, 3)[1])

    def embedded(alpha, dt, d_at, d_anc, basis):
        k = np.zeros((d_anc, d_at, d_at), dtype=complex)
        k[:, :3, :3] = small.reshape(3, 3, 3)
        return k.reshape(d_anc * d_at, d_at)

    monkeypatch.setattr(fock, "kraus_stack", embedded)
    cfg = OracleConfig(alpha=0.9, dt=5e-3, t_max=0.2, d_at=10, d_anc=3,
                       n_traj=100, seed=4, phase=PHASE_X)
    stack = embedded(0.9, 5e-3, 10, 3, np.eye(3))
    assert fock._reachable_levels(stack).tolist() == [0, 1, 2]
    steps = [20, cfg.n_steps]
    got, leak = fock._homodyne_records(cfg, steps)
    ref, leak_ref = _full_space_records(cfg, steps)
    assert got.shape == ref.shape == (len(steps), cfg.n_traj)
    assert leak == leak_ref == 0.0
    assert np.abs(got - ref).max() < 1e-12


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("run", ["compare", "criterion_10"])
def test_every_level_reachable_when_coupled(run, phase):
    cfg = (RunConfig().section(OracleConfig) if run == "compare" else
           OracleConfig(alpha=0.5, dt=1e-3, t_max=1.0, d_at=40, d_anc=3,
                        n_traj=2000, seed=12345, phase=phase))
    kraus = _real_stack(cfg.alpha, cfg.dt, cfg.d_at, cfg.d_anc, phase)
    assert fock._reachable_levels(kraus).tolist() == \
        list(range(cfg.d_at))


# -- real gauge of the homodyne loop ------------------------------------------------


@pytest.mark.parametrize("alpha", [0.0, 1e-6, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("d_anc", [2, 3, 4, 5, 6])
def test_real_gauge_leaves_rounding_only(d_anc, phase, alpha):
    # i^(j - i) at phase x and 1 at phase p make every block real: the
    # imaginary part left is rounding of the complex stack
    d = 30
    basis = _quadrature_basis(phase, d_anc)[1]
    k = kraus_stack(alpha, 1e-3, d, d_anc, basis).reshape(d_anc, d, d)
    n = np.arange(d)
    gauged = (k * np.array([1, 1j, -1, -1j])[(n[None, :] - n[:, None]) % 4]
              if phase == PHASE_X else k)
    scale = np.abs(gauged).max()
    assert np.abs(gauged.imag).max() <= 16 * np.finfo(float).eps * scale
    real = fock._real_gauge(k.reshape(d_anc * d, d), phase == PHASE_P)
    assert real.dtype == np.float64 and real.flags.c_contiguous
    assert real.tobytes() == gauged.real.reshape(d_anc * d, d).tobytes()
    if phase == PHASE_X and alpha >= 0.3:
        # without the factor the phase-x stack is far from real
        assert np.abs(k.imag).max() > 1e-3 * scale


def _complex_records(config, sample_steps):
    """Reference: the complex homodyne loop on the ungauged Kraus stack;
    returns what :func:`_full_space_records` returns."""
    d, da = config.d_at, config.d_anc
    n_steps = config.n_steps
    n = config.n_traj
    eigvals, eigvecs = _quadrature_basis(config.phase, da)
    kraus = kraus_stack(config.alpha, config.dt, d, da, eigvecs)
    levels = fock._reachable_levels(kraus)
    m = levels.size
    kraus = kraus.reshape(da, d, d)[:, levels][:, :, levels].reshape(da * m, m)
    top = levels >= d - 2
    uniforms = fock._trajectory_uniforms(config.seed, n, n_steps)
    psi = np.zeros((m, n), dtype=complex)
    psi[0, :] = 1.0
    y = np.zeros(n)
    gain = math.sqrt(config.dt) * math.sqrt(2.0)
    records, max_leak, traj = [], 0.0, np.arange(n)
    for step in range(1, n_steps + 1):
        comps = (kraus @ psi).reshape(da, m, n)
        probs = (comps.real ** 2 + comps.imag ** 2).sum(axis=1)
        cum = np.cumsum(probs, axis=0)
        draws = uniforms[:, step - 1] * cum[-1]
        idx = np.clip((draws[None, :] > cum).sum(axis=0), 0, da - 1)
        psi = comps[idx, :, traj].T / np.sqrt(probs[idx, traj])
        y += gain * eigvals[idx]
        if step % 25 == 0 or step == n_steps:
            leak = float((np.abs(psi[top]) ** 2).sum(axis=0).max())
            max_leak = max(max_leak, leak)
        if step in sample_steps:
            records.append(y.copy())
    return np.array(records), max_leak


@pytest.mark.parametrize("case", ["compare", "vacuum_control", "phase_p",
                                  "d_anc_2"])
def test_real_gauge_records_bit_equal_complex_loop(case):
    # every outcome is drawn as in the complex loop, so y keeps its bits;
    # the leaks are rounding-level numbers and agree in absolute terms only
    run = {"compare": RunConfig(), "vacuum_control": RunConfig(),
           "phase_p": RunConfig(oracle_phase="p"),
           "d_anc_2": RunConfig(oracle_d_anc=2)}[case]
    cfg = (run.section(OracleConfig, alpha=0.0, seed=run.oracle_seed + 1)
           if case == "vacuum_control" else run.section(OracleConfig))
    steps = [25, 240, cfg.n_steps]
    got, leak = fock._homodyne_records(cfg, steps)
    ref, leak_ref = _complex_records(cfg, steps)
    assert got.shape == ref.shape == (len(steps), cfg.n_traj)
    assert got.tobytes() == ref.tobytes()
    assert 0.0 <= leak < LEAK_TOL and 0.0 <= leak_ref < LEAK_TOL
    assert abs(leak - leak_ref) <= 1e-12


def test_gauge_guard_threshold():
    k = kraus_stack(0.9, 5e-3, 8, 3, _quadrature_basis(PHASE_P, 3)[1])
    scale = np.abs(k).max()
    below, above = k.copy(), k.copy()
    below[5, 2] += 0.5j * GAUGE_TOL * scale
    above[5, 2] += 2j * GAUGE_TOL * scale
    assert fock._real_gauge(below, True).tobytes() == k.real.tobytes()
    with pytest.raises(ArithmeticError, match="not real"):
        fock._real_gauge(above, True)


def test_gauge_keeps_nan_of_imaginary_part(monkeypatch):
    stack = fock.kraus_stack

    def nan_imag(alpha, dt, d_at, d_anc, basis):
        k = stack(alpha, dt, d_at, d_anc, basis)
        k[3, 2] = complex(k[3, 2].real, np.nan)
        return k

    monkeypatch.setattr(fock, "kraus_stack", nan_imag)
    # at phase p the stack is not multiplied, so only the gauge keeps the NaN
    cfg = OracleConfig(alpha=0.3, dt=2e-3, t_max=0.1, d_at=10, d_anc=3,
                       n_traj=100, seed=12345, phase=PHASE_P)
    real = fock._real_gauge(fock.kraus_stack(0.3, 2e-3, 10, 3, np.eye(3)),
                            True)
    assert np.isnan(real).sum() == 1
    with pytest.raises(TruncationLeakError), np.errstate(invalid="ignore"):
        homodyne_monte_carlo(cfg)
    # the atom loop keeps it too: a stack's real part alone would step a
    # finite, wrong channel and report a finite deficit
    with pytest.raises(TruncationLeakError, match="trace deficit nan"), \
            np.errstate(invalid="ignore"):
        simulate_atom_moments(cfg)


def test_nan_outside_block_zero_is_not_drawn_as_outcome_zero(monkeypatch):
    # a NaN in block 1 makes the total probability NaN, so every draw
    # would pick outcome 0 and the state would stay finite: without its own
    # check the run returns a record of zero variance
    stack = fock.kraus_stack

    def nan_block_one(alpha, dt, d_at, d_anc, basis):
        k = stack(alpha, dt, d_at, d_anc, basis)
        k[d_at + 3, 2] = np.nan
        return k

    monkeypatch.setattr(fock, "kraus_stack", nan_block_one)
    cfg = OracleConfig(alpha=0.3, dt=2e-3, t_max=0.1, d_at=10, d_anc=3,
                       n_traj=100, seed=12345, phase=PHASE_X)
    with pytest.raises(TruncationLeakError, match="outcome probability"), \
            np.errstate(invalid="ignore"):
        homodyne_monte_carlo(cfg)


def test_gauge_guard_survives_optimize_flag():
    # one outcome block turned by a phase that is not a power of i: the
    # gauged stack is complex, and the guard must raise under python -O too,
    # in both loops (the turn leaves the atom channel itself unchanged)
    code = textwrap.dedent("""
        import cmath, math
        from doublepass import fock
        stack = fock.kraus_stack
        def turned(alpha, dt, d_at, d_anc, basis):
            k = stack(alpha, dt, d_at, d_anc, basis)
            k[d_at:2 * d_at] *= cmath.exp(1j * math.pi / 7)
            return k
        fock.kraus_stack = turned
        cfg = fock.OracleConfig(alpha=0.3, dt=2e-3, t_max=0.1, d_at=10,
                                d_anc=3, n_traj=100, seed=12345, phase="x")
        for run in (fock.homodyne_monte_carlo, fock.simulate_atom_moments):
            try:
                run(cfg)
            except ArithmeticError as exc:
                print("raised:", exc)
        """)
    res = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("raised: gauged Kraus stack is not real")
               for line in lines)


# -- homodyne Monte Carlo -----------------------------------------------------------


def test_homodyne_requires_enough_trajectories():
    # the config is rejected before any loop runs
    kw = dict(alpha=0.3, dt=5e-3, t_max=0.1, d_at=10, d_anc=3, seed=12345,
              phase=PHASE_X)
    for n_traj in (10, MIN_TRAJ - 1):
        with pytest.raises(ConfigError,
                           match=f"oracle.n_traj must be at least {MIN_TRAJ}"):
            OracleConfig(n_traj=n_traj, **kw)
    enough = OracleConfig(n_traj=MIN_TRAJ, **kw)
    assert len(homodyne_series(enough, 4).step) == 4


def test_homodyne_deterministic_from_seed():
    kw = dict(alpha=0.5, dt=2e-3, t_max=0.2, d_at=16, d_anc=3, n_traj=120,
              seed=42, phase=PHASE_X)
    a = homodyne_monte_carlo(OracleConfig(**kw))
    b = homodyne_monte_carlo(OracleConfig(**kw))
    assert a == b


def test_homodyne_seed_changes_samples():
    kw = dict(alpha=0.5, dt=2e-3, t_max=0.2, d_at=16, d_anc=3, n_traj=120,
              phase=PHASE_X)
    a = homodyne_monte_carlo(OracleConfig(seed=1, **kw))
    b = homodyne_monte_carlo(OracleConfig(seed=2, **kw))
    assert a.variance != b.variance


def test_homodyne_vacuum_statistics():
    cfg = OracleConfig(alpha=0.0, dt=2e-3, t_max=0.5, d_at=8, d_anc=3,
                       n_traj=600, seed=5, phase=PHASE_X)
    st = homodyne_monte_carlo(cfg)
    assert st.time == pytest.approx(0.5)
    assert abs(st.mean) < 5 * st.stderr_mean
    assert abs(st.variance - 0.5) < 5 * st.stderr_var
    assert st.stderr_mean == pytest.approx(
        math.sqrt(st.variance / st.n), rel=1e-12)


def test_homodyne_phase_x_tracks_output_variance():
    cfg = OracleConfig(alpha=0.5, dt=2e-3, t_max=0.5, d_at=25, d_anc=3,
                       n_traj=800, seed=11, phase=PHASE_X)
    st = homodyne_monte_carlo(cfg)
    x = mode_index("X_ph")
    ref = closed_form_covariances(0.5, 0.5)[x, x]
    assert abs(st.variance / 2 - ref) < 5 * st.stderr_var / 2


def test_homodyne_phase_p_tracks_output_variance():
    cfg = OracleConfig(alpha=0.5, dt=2e-3, t_max=0.5, d_at=25, d_anc=3,
                       n_traj=800, seed=12, phase=PHASE_P)
    st = homodyne_monte_carlo(cfg)
    p = mode_index("P_ph")
    ref = closed_form_covariances(0.5, 0.5)[p, p]
    assert abs(st.variance / 2 - ref) < 5 * st.stderr_var / 2


def test_homodyne_disjoint_seed_batches_consistent():
    kw = dict(alpha=0.5, dt=2e-3, t_max=0.3, d_at=20, d_anc=3, n_traj=400,
              phase=PHASE_X)
    a = homodyne_monte_carlo(OracleConfig(seed=100, **kw))
    b = homodyne_monte_carlo(OracleConfig(seed=200, **kw))
    combined = math.hypot(a.stderr_var, b.stderr_var)
    assert abs(a.variance - b.variance) < 5 * combined


def test_homodyne_series_sampling():
    cfg = OracleConfig(alpha=0.3, dt=2e-3, t_max=0.2, d_at=16, d_anc=3,
                       n_traj=120, seed=3, phase=PHASE_X)
    series = homodyne_series(cfg, 4)
    assert series.step.tolist() == [25, 50, 75, 100]
    assert series.time[-1] == pytest.approx(0.2)
    assert (np.diff(series.time) > 0).all()
    # the final-time entry agrees with the single-shot API at the same seed,
    # bit for bit: the same reduction, over one record
    final = homodyne_monte_carlo(cfg)
    assert final.step == series.step[-1]
    for field in ("time", "mean", "variance", "stderr_mean", "stderr_var"):
        assert getattr(final, field) == getattr(series, field)[-1]
    assert (final.n, final.max_leak) == (series.n, series.max_leak)


def test_homodyne_series_count_not_dividing_steps():
    cfg = OracleConfig(alpha=0.3, dt=2e-3, t_max=0.2, d_at=16, d_anc=3,
                       n_traj=120, seed=3, phase=PHASE_X)
    series = homodyne_series(cfg, 3)
    assert series.step.tolist() == [33, 66, 100]
    assert series.time.tolist() == [k * cfg.dt for k in (33, 66, 100)]
    # more samples than steps: one per step
    assert len(homodyne_series(cfg, 150).step) == cfg.n_steps
