"""Truncated-Fock collision oracle: operators, unitaries, moments, homodyne."""

import dataclasses
import math
import re
import subprocess
import sys
import textwrap
import tracemalloc

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


@pytest.fixture
def fresh_stacks():
    """An empty Kraus-stack cache at the start and at the end of the test:
    no stack an earlier test built stands in for this test's builds, and
    none this test builds outlives it."""
    fock._gauged_stack.cache_clear()
    yield
    fock._gauged_stack.cache_clear()


@pytest.fixture
def patch_stack(monkeypatch, fresh_stacks):
    """Replace ``fock.kraus_stack`` by a function of its arguments.  The
    stack cache is emptied at the replacement too, so a stack built before
    it cannot hide it."""
    def patch(fn):
        monkeypatch.setattr(fock, "kraus_stack", fn)
        fock._gauged_stack.cache_clear()
    return patch


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
    series = simulate_atom_moments(cfg, cfg.n_steps)
    got = np.stack([series.var_x, series.var_p], axis=1)
    assert cfg.n_steps == 10
    assert series.step.tolist() == list(range(1, 11))
    assert np.abs(got - np.array(ref[1:])).max() < 1e-12
    assert series.var_x[0] != ref[0][0]     # the step did act


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
    st = homodyne_series(cfg, 1)
    assert st.mean[-1] == pytest.approx(y.mean(), abs=1e-12)
    assert st.variance[-1] == pytest.approx(y.var(ddof=1), abs=1e-12)


# -- deterministic atomic moments ------------------------------------------------


def test_atom_moments_alpha_zero():
    cfg = OracleConfig(alpha=0.0, dt=5e-3, t_max=0.5, d_at=10, d_anc=2,
                       n_traj=2000, seed=12345, phase=PHASE_X)
    series = simulate_atom_moments(cfg, cfg.n_steps)
    assert np.allclose(series.var_x, 0.5, atol=1e-12)
    assert np.allclose(series.var_p, 0.5, atol=1e-12)


def test_atom_moments_match_closed_forms():
    cfg = OracleConfig(alpha=0.3, dt=2e-3, t_max=0.5, d_at=25, d_anc=3,
                       n_traj=2000, seed=12345, phase=PHASE_X)
    series = simulate_atom_moments(cfg, cfg.n_steps)
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
    at_x = simulate_atom_moments(OracleConfig(phase=PHASE_X, **kw), 60)
    at_p = simulate_atom_moments(OracleConfig(phase=PHASE_P, **kw), 60)
    assert at_x.var_x.tobytes() == at_p.var_x.tobytes()
    assert at_x.var_p.tobytes() == at_p.var_p.tobytes()
    assert at_x.var_x[-1] != at_x.var_x[0]


def test_atom_moments_truncation_converged():
    # growing the atom space does not move the answer
    kw = dict(alpha=0.3, dt=2e-3, t_max=0.5, d_anc=3, n_traj=2000,
              seed=12345, phase=PHASE_X)
    v30 = simulate_atom_moments(OracleConfig(d_at=30, **kw), 1).var_p[-1]
    v40 = simulate_atom_moments(OracleConfig(d_at=40, **kw), 1).var_p[-1]
    assert abs(v30 - v40) / v40 < 1e-3


def test_atom_moments_leak_detection():
    # a tiny atom space cannot hold the x-quadrature growth
    cfg = OracleConfig(alpha=0.9, dt=5e-3, t_max=2.0, d_at=4, d_anc=3,
                       n_traj=2000, seed=12345, phase=PHASE_X)
    with pytest.raises(TruncationLeakError):
        simulate_atom_moments(cfg, 1)


def test_guards_trip_on_nan(patch_stack):
    # a NaN state must stop both loops, not flow into the statistics
    def nan_kraus(alpha, dt, d_at, d_anc, basis):
        return np.full((d_anc * d_at, d_at), np.nan, dtype=complex)

    cfg = OracleConfig(alpha=0.3, dt=2e-3, t_max=0.1, d_at=10, d_anc=3,
                       n_traj=100, seed=12345, phase=PHASE_X)
    # the same run's stacks, built and cached before the NaN stack
    simulate_atom_moments(cfg, 1)
    homodyne_series(cfg, 1)
    patch_stack(nan_kraus)
    with pytest.raises(TruncationLeakError, match="trace deficit"):
        simulate_atom_moments(cfg, 1)
    with pytest.raises(TruncationLeakError,
                       match="top-level .* at step 25;"), \
            np.errstate(invalid="ignore"):
        homodyne_series(cfg, 1)


def test_guards_trip_on_nan_with_unreachable_top_levels(patch_stack):
    # a NaN diagonal links no level to another, so no nonzero amplitude can
    # reach the top levels; the NaN spreads there through 0 * NaN, and the
    # top-level guard trips at its first check
    def nan_diagonal(alpha, dt, d_at, d_anc, basis):
        k = np.zeros((d_anc, d_at, d_at), dtype=complex)
        k[:, np.arange(d_at), np.arange(d_at)] = np.nan
        return k.reshape(d_anc * d_at, d_at)

    patch_stack(nan_diagonal)
    cfg = OracleConfig(alpha=0.3, dt=2e-3, t_max=0.1, d_at=10, d_anc=3,
                       n_traj=100, seed=12345, phase=PHASE_X)
    with pytest.raises(TruncationLeakError,
                       match="top-level .* at step 25;"), \
            np.errstate(invalid="ignore"):
        homodyne_series(cfg, 1)


@pytest.mark.parametrize("where", ["every_entry", "one_entry"])
def test_vacuum_control_trips_on_nan_stack(patch_stack, where):
    # the vacuum law reads one entry of each block; a NaN anywhere in the
    # stack must stop the run before its first record
    def nan_kraus(alpha, dt, d_at, d_anc, basis):
        k = np.eye(d_at, dtype=complex)[None].repeat(d_anc, axis=0)
        if where == "every_entry":
            k[:] = np.nan
        else:
            k[1, 3, 3] = np.nan
        return k.reshape(d_anc * d_at, d_at)

    patch_stack(nan_kraus)
    cfg = OracleConfig(alpha=0.0, dt=2e-3, t_max=0.1, d_at=10, d_anc=3,
                       n_traj=100, seed=12345, phase=PHASE_X)
    records = []
    with pytest.raises(TruncationLeakError,
                       match="non-finite Kraus stack at alpha = 0"):
        for y, _ in fock._homodyne_records(cfg, [1, 10, cfg.n_steps]):
            records.append(y.copy())
    assert records == []


def test_oracle_health_within_limits_at_compare_config():
    ocfg = RunConfig().section(OracleConfig)
    atoms = simulate_atom_moments(ocfg, 50)
    st = homodyne_series(ocfg, 50)
    assert 0.0 <= atoms.max_trace_deficit < TRACE_TOL
    assert 0.0 <= atoms.max_leak < LEAK_TOL
    assert 0.0 <= st.max_leak < LEAK_TOL


# -- one sample schedule for both loops --------------------------------------------


#: 50 steps; the atom loop, the homodyne loop and their schedules run on it
SMALL_RUN = dict(alpha=0.3, dt=2e-3, t_max=0.1, d_at=10, d_anc=3, n_traj=100,
                 seed=12345)


@pytest.mark.parametrize("n_samples", [1, 3, 50, 55])
@pytest.mark.parametrize("phase", PHASES)
def test_atom_and_homodyne_share_sample_steps(phase, n_samples):
    # 1, 3, n_steps and n_steps + 5 samples: both loops report at the same
    # steps, the last of them the final step
    cfg = OracleConfig(phase=phase, **SMALL_RUN)
    atoms = simulate_atom_moments(cfg, n_samples)
    stats = homodyne_series(cfg, n_samples)
    assert atoms.step.tolist() == stats.step.tolist() == \
        fock._sample_steps(cfg.n_steps, n_samples)
    assert len(atoms.var_x) == len(atoms.var_p) == len(stats.variance) == \
        min(n_samples, cfg.n_steps)
    assert atoms.step[-1] == cfg.n_steps


@pytest.mark.parametrize("run", [simulate_atom_moments, homodyne_series])
def test_fewer_than_one_sample_rejected(run):
    cfg = OracleConfig(phase=PHASE_X, **SMALL_RUN)
    with pytest.raises(ConfigError, match="need at least one sample"):
        run(cfg, 0)


def _every_step_moments(config):
    """Reference: the atom loop recording Var(x) and Var(p) at every step
    0..n_steps, as arrays indexed by step, with the largest leak and trace
    deficit of the run."""
    d, da = config.d_at, config.d_anc
    basis = _quadrature_basis(PHASE_X, da)[1]
    kraus = fock._real_gauge(
        kraus_stack(config.alpha, config.dt, d, da, basis), False)
    kraus = kraus.reshape(da, d, d)
    kraus_t = kraus.transpose(0, 2, 1)
    x_op, p_op = position(d), momentum(d)
    x2, p2 = (x_op @ x_op).real, (p_op @ p_op).real
    rho = np.zeros((d, d))
    rho[0, 0] = 1.0
    var_x, var_p = np.zeros(config.n_steps + 1), np.zeros(config.n_steps + 1)
    max_leak = max_deficit = 0.0
    k_rho, k_rho_k = np.empty((da, d, d)), np.empty((da, d, d))
    for step in range(config.n_steps + 1):
        if step:
            np.matmul(kraus, rho, out=k_rho)
            np.matmul(k_rho, kraus_t, out=k_rho_k)
            rho = k_rho_k.sum(axis=0)
            trace = rho.trace()
            max_deficit = max(max_deficit, abs(1.0 - trace))
            rho = rho / trace
            max_leak = max(max_leak, float(np.diag(rho)[-2:].sum()))
        var_x[step] = np.einsum("ij,ji->", rho, p2)
        var_p[step] = np.einsum("ij,ji->", rho, x2)
    return var_x, var_p, max_leak, max_deficit


@pytest.mark.parametrize("n_samples", [1, 3, 50, 500])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_sampled_moments_bit_equal_every_step_loop(alpha, n_samples):
    # compare's oracle (500 steps): the moments read at the sample steps are
    # the every-step loop's at those steps, and at n_samples = n_steps all
    # of them; the health numbers still cover every step
    cfg = RunConfig(alpha=alpha).section(OracleConfig)
    atoms = simulate_atom_moments(cfg, n_samples)
    var_x, var_p, max_leak, max_deficit = _every_step_moments(cfg)
    if n_samples == cfg.n_steps:
        assert atoms.step.tolist() == list(range(1, cfg.n_steps + 1))
    assert atoms.var_x.tobytes() == var_x[atoms.step].tobytes()
    assert atoms.var_p.tobytes() == var_p[atoms.step].tobytes()
    assert (atoms.max_leak, atoms.max_trace_deficit) == (max_leak,
                                                         max_deficit)


def test_atom_moment_memory_does_not_grow_with_steps():
    # 30x the steps at the same sample count: a variance pair kept at every
    # step would add 2 x 8 B a step, 310 kB at 20 000 steps
    def traced_peak(n_steps):
        dt = 1e-4
        cfg = OracleConfig(**{**SMALL_RUN, "dt": dt, "t_max": n_steps * dt},
                           phase=PHASE_X)
        tracemalloc.start()
        try:
            simulate_atom_moments(cfg, 4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(640)    # first-call allocations are not the loop's
    short, long = traced_peak(640), traced_peak(20_000)
    assert long - short < 2 * 19_360 * 8 / 10


def test_stack_built_once_per_key_and_read_only(monkeypatch, fresh_stacks):
    # the atom loop and the phase-x homodyne loop of one run share one
    # build; phase p and alpha = 0 are other keys, each built once
    builds = []
    unitaries = fock.step_unitaries

    def counted(*args):
        builds.append(args)
        return unitaries(*args)

    monkeypatch.setattr(fock, "step_unitaries", counted)
    cfg = OracleConfig(phase=PHASE_X, **SMALL_RUN)
    simulate_atom_moments(cfg, 1)
    homodyne_series(cfg, 1)
    assert builds == [(0.3, 2e-3, 10, 3)]
    homodyne_series(dataclasses.replace(cfg, phase=PHASE_P), 1)
    homodyne_series(dataclasses.replace(cfg, alpha=0.0), 1)
    assert builds[1:] == [(0.3, 2e-3, 10, 3), (0.0, 2e-3, 10, 3)]
    # the cached arrays are the ones a fresh build gives, and read-only
    eigvals, kraus = fock._gauged_stack(0.3, 2e-3, 10, 3, PHASE_X)
    ref_vals, basis = _quadrature_basis(PHASE_X, 3)
    ref = fock._real_gauge(kraus_stack(0.3, 2e-3, 10, 3, basis), False)
    assert eigvals.tobytes() == ref_vals.tobytes()
    assert kraus.tobytes() == ref.tobytes()
    for array in (eigvals, kraus):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


# -- homodyne loop against a full-space reference ----------------------------------


def _whole_streams(seed, n_traj, n_steps):
    """Reference: each trajectory's uniform stream drawn in one call, one
    row per trajectory."""
    return np.array([np.random.default_rng(child).random(n_steps)
                     for child in np.random.SeedSequence(seed).spawn(n_traj)])


def _records(config, sample_steps):
    """The loop's records at ``sample_steps``, one row each, and the
    largest leak it reported at the last of them."""
    rows, max_leak = [], math.nan
    for y, max_leak in fock._homodyne_records(config, sample_steps):
        rows.append(y.copy())
    return np.array(rows), max_leak


def _full_space_records(config, sample_steps):
    """Reference: the real-gauge homodyne loop stepping every atom level;
    returns the records at ``sample_steps``, one row each, and the run's
    largest leak."""
    d, da = config.d_at, config.d_anc
    n_steps, n = config.n_steps, config.n_traj
    eigvals, basis = _quadrature_basis(config.phase, da)
    kraus = fock._real_gauge(
        fock.kraus_stack(config.alpha, config.dt, d, da, basis),
        config.phase == PHASE_P)
    uniforms = _whole_streams(config.seed, n, n_steps)
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
    steps = [10, 25, 47, cfg.n_steps]
    got, leak = _records(cfg, steps)
    ref, leak_ref = _full_space_records(cfg, steps)
    assert got.shape == ref.shape == (len(steps), cfg.n_traj)
    assert got.tobytes() == ref.tobytes()
    assert leak == leak_ref


#: the chunk the loop draws its uniform streams in
CHUNK = fock._UNIFORM_CHUNK


@pytest.mark.parametrize("d_anc", [2, 3, 4])
@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("alpha", [0.0, 0.9])
@pytest.mark.parametrize("n_steps", [1, CHUNK - 1, CHUNK, CHUNK + 1,
                                     3 * CHUNK + 5])
def test_chunked_streams_keep_every_record(n_steps, alpha, phase, d_anc):
    # streams drawn a chunk at a time against each drawn in one call, with
    # samples on the steps either side of every chunk edge the run reaches
    dt = 2.0 ** -10
    cfg = OracleConfig(alpha=alpha, dt=dt, t_max=n_steps * dt, d_at=12,
                       d_anc=d_anc, n_traj=100, seed=17, phase=phase)
    assert cfg.n_steps == n_steps
    edges = {1, n_steps}
    for k in range(CHUNK, n_steps + 1, CHUNK):
        edges |= {k - 1, k, k + 1}
    steps = sorted(e for e in edges if 1 <= e <= n_steps)
    got, leak = _records(cfg, steps)
    ref, leak_ref = _full_space_records(cfg, steps)
    assert got.shape == ref.shape == (len(steps), cfg.n_traj)
    assert got.tobytes() == ref.tobytes()
    assert leak == leak_ref


@pytest.mark.parametrize("d_anc", [2, 3, 4])
@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("n_steps", [1, CHUNK - 1, CHUNK, CHUNK + 1,
                                     3 * CHUNK + 5])
def test_vacuum_records_bit_equal_full_space(n_steps, phase, d_anc):
    # the alpha = 0 outcome law against the general loop, sampled at every
    # step, so on both sides of every edge of the uniform chunks
    dt = 2.0 ** -10
    cfg = OracleConfig(alpha=0.0, dt=dt, t_max=n_steps * dt, d_at=12,
                       d_anc=d_anc, n_traj=100, seed=23, phase=phase)
    steps = list(range(1, n_steps + 1))
    got, leak = _records(cfg, steps)
    ref, leak_ref = _full_space_records(cfg, steps)
    assert got.shape == ref.shape == (n_steps, cfg.n_traj)
    assert got.tobytes() == ref.tobytes()
    assert leak == leak_ref == 0.0


@pytest.mark.parametrize("n_traj", [150, 400])
@pytest.mark.parametrize("phase", PHASES)
def test_streamed_statistics_equal_stacked_reduction(phase, n_traj):
    # compare's oracle, 50 samples: each record reduced as the loop reaches
    # it gives the bits of one reduction over the stacked records
    cfg = RunConfig(oracle_phase=phase, oracle_n_traj=n_traj).section(
        OracleConfig)
    series = homodyne_series(cfg, 50)
    step = np.array(fock._sample_steps(cfg.n_steps, 50))
    records, leak = _full_space_records(cfg, step.tolist())
    var, n = records.var(axis=-1, ddof=1), cfg.n_traj
    ref = dict(step=step, time=step * cfg.dt, mean=records.mean(axis=-1),
               variance=var, stderr_mean=np.sqrt(var) / math.sqrt(n),
               stderr_var=var * math.sqrt(2.0 / (n - 1)))
    for field, value in ref.items():
        assert getattr(series, field).tobytes() == value.tobytes(), field
    assert (series.n, series.max_leak) == (n, leak)


def test_homodyne_memory_does_not_grow_with_steps():
    # 10x the steps at the same sample count: drawing whole streams would
    # add n_traj x 45 CHUNK x 8 B (4.6 MB) to the traced peak
    def run(n_steps):
        dt = 1e-4
        homodyne_series(OracleConfig(alpha=0.3, dt=dt, t_max=n_steps * dt,
                                     d_at=8, d_anc=2, n_traj=100, seed=3,
                                     phase=PHASE_X), 4)

    def traced_peak(n_steps):
        tracemalloc.start()
        try:
            run(n_steps)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run(5 * CHUNK)      # first-call allocations are not the loop's
    short, long = traced_peak(5 * CHUNK), traced_peak(50 * CHUNK)
    assert long - short < 100 * 45 * CHUNK * 8 / 20


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
    uniforms = _whole_streams(config.seed, n, n_steps)
    psi = np.zeros((d, n), dtype=complex)
    psi[0, :] = 1.0
    y = np.zeros(n)
    gain = math.sqrt(config.dt) * math.sqrt(2.0)
    records, max_leak, traj = [], 0.0, np.arange(n)
    for step in range(1, n_steps + 1):
        comps = (kraus @ psi).reshape(da, d, n)
        probs = (comps.real ** 2 + comps.imag ** 2).sum(axis=1)
        cum = np.cumsum(probs, axis=0)
        draws = uniforms[:, step - 1] * cum[-1]
        idx = np.clip((draws[None, :] > cum).sum(axis=0), 0, da - 1)
        psi = comps[idx, :, traj].T / np.sqrt(probs[idx, traj])
        y += gain * eigvals[idx]
        if step % 25 == 0 or step == n_steps:
            leak = float((np.abs(psi[-2:]) ** 2).sum(axis=0).max())
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
    got, leak = _records(cfg, steps)
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


def test_gauge_keeps_nan_of_imaginary_part(patch_stack):
    stack = fock.kraus_stack

    def nan_imag(alpha, dt, d_at, d_anc, basis):
        k = stack(alpha, dt, d_at, d_anc, basis)
        k[3, 2] = complex(k[3, 2].real, np.nan)
        return k

    patch_stack(nan_imag)
    # at phase p the stack is not multiplied, so only the gauge keeps the NaN
    cfg = OracleConfig(alpha=0.3, dt=2e-3, t_max=0.1, d_at=10, d_anc=3,
                       n_traj=100, seed=12345, phase=PHASE_P)
    real = fock._real_gauge(fock.kraus_stack(0.3, 2e-3, 10, 3, np.eye(3)),
                            True)
    assert np.isnan(real).sum() == 1
    with pytest.raises(TruncationLeakError,
                       match="top-level .* at step 25;"), \
            np.errstate(invalid="ignore"):
        homodyne_series(cfg, 1)
    # the atom loop keeps it too: a stack's real part alone would step a
    # finite, wrong channel and report a finite deficit
    with pytest.raises(TruncationLeakError, match="trace deficit nan"), \
            np.errstate(invalid="ignore"):
        simulate_atom_moments(cfg, 1)


def test_nan_outside_block_zero_is_not_drawn_as_outcome_zero(patch_stack):
    # a NaN in block 1 makes the total probability NaN, so every draw
    # would pick outcome 0 and the state would stay finite: without its own
    # check the run returns a record of zero variance
    stack = fock.kraus_stack

    def nan_block_one(alpha, dt, d_at, d_anc, basis):
        k = stack(alpha, dt, d_at, d_anc, basis)
        k[d_at + 3, 2] = np.nan
        return k

    patch_stack(nan_block_one)
    cfg = OracleConfig(alpha=0.3, dt=2e-3, t_max=0.1, d_at=10, d_anc=3,
                       n_traj=100, seed=12345, phase=PHASE_X)
    with pytest.raises(TruncationLeakError,
                       match="outcome probability .* at step 25$"), \
            np.errstate(invalid="ignore"):
        homodyne_series(cfg, 1)


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
        for run in (fock.homodyne_series, fock.simulate_atom_moments):
            try:
                run(cfg, 1)
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
    a = homodyne_series(OracleConfig(**kw), 4)
    b = homodyne_series(OracleConfig(**kw), 4)
    for field in dataclasses.fields(a):
        assert np.asarray(getattr(a, field.name)).tobytes() == \
            np.asarray(getattr(b, field.name)).tobytes(), field.name


def test_homodyne_seed_changes_samples():
    kw = dict(alpha=0.5, dt=2e-3, t_max=0.2, d_at=16, d_anc=3, n_traj=120,
              phase=PHASE_X)
    a = homodyne_series(OracleConfig(seed=1, **kw), 1)
    b = homodyne_series(OracleConfig(seed=2, **kw), 1)
    assert a.variance[-1] != b.variance[-1]


def test_homodyne_vacuum_statistics():
    cfg = OracleConfig(alpha=0.0, dt=2e-3, t_max=0.5, d_at=8, d_anc=3,
                       n_traj=600, seed=5, phase=PHASE_X)
    st = homodyne_series(cfg, 1)
    assert st.time.tolist() == [pytest.approx(0.5)]
    (mean,), (var,) = st.mean, st.variance
    assert abs(mean) < 5 * st.stderr_mean[-1]
    assert abs(var - 0.5) < 5 * st.stderr_var[-1]
    assert st.stderr_mean[-1] == pytest.approx(math.sqrt(var / st.n),
                                               rel=1e-12)


def test_homodyne_phase_x_tracks_output_variance():
    cfg = OracleConfig(alpha=0.5, dt=2e-3, t_max=0.5, d_at=25, d_anc=3,
                       n_traj=800, seed=11, phase=PHASE_X)
    st = homodyne_series(cfg, 1)
    x = mode_index("X_ph")
    ref = closed_form_covariances(0.5, 0.5)[x, x]
    assert abs(st.variance[-1] / 2 - ref) < 5 * st.stderr_var[-1] / 2


def test_homodyne_phase_p_tracks_output_variance():
    cfg = OracleConfig(alpha=0.5, dt=2e-3, t_max=0.5, d_at=25, d_anc=3,
                       n_traj=800, seed=12, phase=PHASE_P)
    st = homodyne_series(cfg, 1)
    p = mode_index("P_ph")
    ref = closed_form_covariances(0.5, 0.5)[p, p]
    assert abs(st.variance[-1] / 2 - ref) < 5 * st.stderr_var[-1] / 2


def test_homodyne_disjoint_seed_batches_consistent():
    kw = dict(alpha=0.5, dt=2e-3, t_max=0.3, d_at=20, d_anc=3, n_traj=400,
              phase=PHASE_X)
    a = homodyne_series(OracleConfig(seed=100, **kw), 1)
    b = homodyne_series(OracleConfig(seed=200, **kw), 1)
    combined = math.hypot(a.stderr_var[-1], b.stderr_var[-1])
    assert abs(a.variance[-1] - b.variance[-1]) < 5 * combined


def test_homodyne_series_sampling():
    cfg = OracleConfig(alpha=0.3, dt=2e-3, t_max=0.2, d_at=16, d_anc=3,
                       n_traj=120, seed=3, phase=PHASE_X)
    series = homodyne_series(cfg, 4)
    assert series.step.tolist() == [25, 50, 75, 100]
    assert series.time[-1] == pytest.approx(0.2)
    assert (np.diff(series.time) > 0).all()
    # the final-time entry agrees with the vacuum control's entry point, a
    # one-sample series, at the same seed bit for bit: the same reduction,
    # over one record
    final = homodyne_monte_carlo(cfg)
    for field in ("step", "time", "mean", "variance", "stderr_mean",
                  "stderr_var"):
        assert getattr(final, field).tobytes() == \
            getattr(series, field)[-1:].tobytes(), field
    assert (final.n, final.max_leak) == (series.n, series.max_leak)


def test_homodyne_series_count_not_dividing_steps():
    cfg = OracleConfig(alpha=0.3, dt=2e-3, t_max=0.2, d_at=16, d_anc=3,
                       n_traj=120, seed=3, phase=PHASE_X)
    series = homodyne_series(cfg, 3)
    assert series.step.tolist() == [33, 66, 100]
    assert series.time.tolist() == [k * cfg.dt for k in (33, 66, 100)]
    # more samples than steps: one per step
    assert len(homodyne_series(cfg, 150).step) == cfg.n_steps
