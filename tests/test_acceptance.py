"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from doublepass.charfn import (GridSpec, closed_form_char, fd_solve,
                               moc_solve, pde_residual)
from doublepass.fock import (OracleConfig, PHASE_P, PHASE_X,
                             homodyne_series, simulate_atom_moments)
from doublepass.gaussian import (PUBLISHED, build_moment_odes,
                                 closed_form_covariances,
                                 integrate_covariance, mode_index,
                                 relative_error, variance_table)
from doublepass.ito import (FAMILY_F, FAMILY_G, PAPER_FORMS, char_fn_generator,
                            double_pass_system, output_commutator_rate,
                            output_quadrature_relations, series_product,
                            single_pass_systems)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_series_product():
    start = time.perf_counter()
    sysd = series_product(*single_pass_systems())
    elapsed = time.perf_counter() - start
    expected = PAPER_FORMS["series_product"]
    ok = (sysd.L == expected["L"] and sysd.H == expected["H"]
          and elapsed < 1.0)
    report(1, ok, f"series product exact structural match "
                  f"(runtime {elapsed:.3f}s < 1s)")


def test_criterion_02_io_relations():
    start = time.perf_counter()
    io = output_quadrature_relations(double_pass_system())
    expected = PAPER_FORMS["io_relations"]
    relations_ok = all(rel.terms == expected[rel.name] for rel in io.all())
    comm_ok = output_commutator_rate(io) == expected["commutator_rate"]
    elapsed = time.perf_counter() - start
    ok = relations_ok and comm_ok and elapsed < 1.0
    report(2, ok, f"four I/O relations and [x_ph_out, p_ph_out] = i*t exact "
                  f"(runtime {elapsed:.3f}s < 1s)")


def test_criterion_03_transport_coefficients():
    start = time.perf_counter()
    sysd = double_pass_system()
    expected = PAPER_FORMS["char_fn_generator"]
    pdes = [char_fn_generator(sysd, family) for family in (FAMILY_F, FAMILY_G)]
    ok = all((pde.c0, pde.c1) == expected[pde.family] for pde in pdes)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(3, ok, f"transport coefficients exact for F and G "
                  f"(runtime {elapsed:.3f}s < 1s)")


def test_criterion_04_ode_vs_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.3, 1.0, 2.0):
        # every 250th RK4 step, t = 0, 0.025, ..., 5
        traj = integrate_covariance(build_moment_odes(alpha), 5.0, 1e-4,
                                    0.025)
        for i in range(len(traj.times)):
            closed = closed_form_covariances(alpha, traj.times[i])
            for r, c in PUBLISHED.values():
                i_r, i_c = mode_index(r), mode_index(c)
                worst = max(worst, relative_error(traj.covs[i, i_r, i_c],
                                                  closed[i_r, i_c]))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    report(4, ok, f"ODE vs closed form: max rel err {worst:.3e} < 1e-8 "
                  f"over alpha in (0.3, 1, 2), t in [0, 5] "
                  f"(runtime {elapsed:.1f}s < 10s)")


def test_criterion_05_three_db_bound():
    bound = 10.0 * math.log10(2.0)
    worst_gap = None
    exceeded = False
    for alpha in (0.5, 1.0):
        t_max = 20.0 / alpha ** 2
        times = np.linspace(0.0, t_max, 4001)
        atom_db = variance_table(
            times, closed_form_covariances(alpha, times))["sq_db_atom"]
        dt = min(1e-2, 0.05 / alpha ** 2)
        traj = integrate_covariance(build_moment_odes(alpha), t_max, dt, dt)
        ode_db = variance_table(traj.times, traj.covs)["sq_db_atom"]
        exceeded |= (atom_db > bound + 1e-12).any()
        exceeded |= (ode_db > bound + 1e-9).any()
        gap = abs(atom_db.max() - bound)
        worst_gap = gap if worst_gap is None else max(worst_gap, gap)
    ok = (worst_gap < 0.02) and not exceeded
    report(5, ok, f"peak atomic squeezing within {worst_gap:.2e} dB of "
                  f"10*log10(2) = {bound:.4f} dB and never exceeded")


def test_criterion_06_arbitrary_field_squeezing():
    alpha, t = 1.0, 100.0
    times = np.array([t])
    closed = variance_table(times, closed_form_covariances(alpha, times))
    sq_db = closed["sq_db_field_x"][0]
    vx_closed = closed["var_x_ph_norm"][0]
    traj = integrate_covariance(build_moment_odes(alpha), t, 2e-3, t)
    vx_ode = variance_table(traj.times[-1:], traj.covs[-1:])[
        "var_x_ph_norm"][0]
    rel = abs(vx_ode - vx_closed) / vx_closed
    ok = sq_db >= 18.0 and rel < 1e-6
    report(6, ok, f"x-quadrature squeezing {sq_db:.2f} dB >= 18 dB at "
                  f"alpha^2*t = 100; ODE route matches to {rel:.2e} < 1e-6")


def test_criterion_07_not_minimum_uncertainty():
    ok = True
    min_margin = math.inf
    for alpha in (0.3, 1.0, 2.0):
        times = np.linspace(0.05, 5.0, 100)
        margins = variance_table(times, closed_form_covariances(
            alpha, times))["unc_prod_field"] - 0.25
        min_margin = min(min_margin, float(margins.min()))
        ok &= bool((margins > 0).all())
    # equality only in the t -> 0 limit
    times = np.array([1e-9])
    prod0 = variance_table(times, closed_form_covariances(
        1.0, times))["unc_prod_field"][0]
    ok &= abs(prod0 - 0.25) < 1e-8
    report(7, ok, f"normalized uncertainty product > 1/4 for all sampled "
                  f"t > 0 (min margin {min_margin:.2e}); -> 1/4 as t -> 0")


def test_criterion_08_pde_routes():
    start = time.perf_counter()
    # method of characteristics vs closed form, both families
    moc_worst = 0.0
    for family in (FAMILY_F, FAMILY_G):
        for alpha in (0.5, 1.0, 2.0):
            for t in (0.1, 1.0, 3.0):
                for k in np.linspace(-3, 3, 7):
                    for l in np.linspace(-3, 3, 7):
                        diff = abs(
                            moc_solve(family, alpha, t, float(k), float(l))
                            - closed_form_char(family, alpha, t, float(k),
                                               float(l)))
                        moc_worst = max(moc_worst, diff)
    # finite differences: error at dl = 0.02 and observed order
    errors = {}
    for dl in (0.08, 0.04, 0.02):
        grid = GridSpec(l_max=12.0, dl=dl, k_max=3.0, dk=1.0)
        dt = dl * dl / 4.0
        n = math.ceil(0.5 / dt)
        (surf,) = fd_solve((FAMILY_F,), 1.0, grid, 0.5, 0.5 / n)
        # the surface holds the k >= 0 rows, the last half of k_values
        kv = grid.k_values()
        ref = closed_form_char(FAMILY_F, 1.0, 0.5, *np.meshgrid(
            kv[len(kv) // 2:], grid.l_values(), indexing="ij"))
        errors[dl] = float(np.abs(surf.values - ref).max())
    orders = [math.log2(errors[0.08] / errors[0.04]),
              math.log2(errors[0.04] / errors[0.02])]
    # residual of the closed form
    res_worst = 0.0
    for family in (FAMILY_F, FAMILY_G):
        for t in (0.5, 1.0, 2.0):
            for k in (-2.0, 0.0, 1.5):
                for l in (-1.0, 0.5, 2.0):
                    res_worst = max(res_worst, abs(pde_residual(
                        family, 1.0,
                        lambda tt, kk, ll, fam=family: closed_form_char(
                            fam, 1.0, tt, kk, ll),
                        t, k, l)))
    elapsed = time.perf_counter() - start
    ok = (moc_worst < 1e-10 and errors[0.02] < 5e-4
          and all(1.8 <= o <= 2.2 for o in orders)
          and res_worst < 1e-6 and elapsed < 60.0)
    report(8, ok,
           f"moc err {moc_worst:.2e} < 1e-10; fd err@0.02 "
           f"{errors[0.02]:.2e} < 5e-4, orders {orders[0]:.2f}/{orders[1]:.2f}"
           f" in [1.8, 2.2]; residual {res_worst:.2e} < 1e-6 "
           f"(runtime {elapsed:.1f}s < 60s)")


def test_criterion_09_oracle_atom_moments():
    start = time.perf_counter()
    closed = closed_form_covariances(0.3, 1.0)
    p, x = mode_index("p_at"), mode_index("x_at")
    vp_ref, vx_ref = closed[p, p], closed[x, x]
    kw = dict(alpha=0.3, t_max=1.0, d_at=40, d_anc=3, n_traj=2000,
              seed=12345, phase=PHASE_X)
    # one sample each, at the final step
    coarse = simulate_atom_moments(OracleConfig(dt=1e-3, **kw), 1)
    fine = simulate_atom_moments(OracleConfig(dt=5e-4, **kw), 1)
    rel_p = abs(coarse.var_p[-1] - vp_ref) / vp_ref
    rel_x = abs(coarse.var_x[-1] - vx_ref) / vx_ref
    dev_coarse = abs(coarse.var_p[-1] - vp_ref)
    dev_fine = abs(fine.var_p[-1] - vp_ref)
    ratio = dev_fine / dev_coarse
    elapsed = time.perf_counter() - start
    ok = (rel_p < 0.02 and rel_x < 0.02 and 0.35 <= ratio <= 0.65
          and elapsed < 300.0)
    report(9, ok,
           f"var_p rel err {rel_p:.2e} < 2%, var_x rel err {rel_x:.2e} < 2%; "
           f"dt-halving deviation ratio {ratio:.3f} in [0.35, 0.65] "
           f"(runtime {elapsed:.0f}s < 300s)")


def test_criterion_10_oracle_field_variances():
    start = time.perf_counter()
    closed = closed_form_covariances(0.5, 1.0)
    kw = dict(alpha=0.5, dt=1e-3, t_max=1.0, d_at=40, d_anc=3, n_traj=2000)

    def final(config):
        """(Var(y), its standard error) at the final step, one sample."""
        stats = homodyne_series(config, 1)
        return stats.variance[-1], stats.stderr_var[-1]

    var_x, se_x = final(OracleConfig(seed=1001, phase=PHASE_X, **kw))
    var_p, se_p = final(OracleConfig(seed=1002, phase=PHASE_P, **kw))
    x, p = mode_index("X_ph"), mode_index("P_ph")
    diff_x = abs(var_x / 2 - closed[x, x])
    diff_p = abs(var_p / 2 - closed[p, p])
    var_0, se_0 = final(OracleConfig(
        alpha=0.0, dt=1e-3, t_max=1.0, d_at=40, d_anc=3, n_traj=2000,
        seed=1003, phase=PHASE_X))
    diff_0 = abs(var_0 - 1.0)
    elapsed = time.perf_counter() - start
    ok = (diff_x < 5 * se_x / 2 and diff_p < 5 * se_p / 2
          and diff_0 < 5 * se_0 and elapsed < 600.0)
    report(10, ok,
           f"Var(y)/2 within 5 SE of sigma2_xph ({diff_x:.4f} vs "
           f"{5 * se_x / 2:.4f}) and sigma2_pph ({diff_p:.4f} vs "
           f"{5 * se_p / 2:.4f}); alpha=0 control {diff_0:.4f} vs "
           f"{5 * se_0:.4f} (runtime {elapsed:.0f}s < 600s)")


def test_criterion_11_compare_determinism(tmp_path):
    def run(out: Path):
        return subprocess.run(
            [sys.executable, "-m", "doublepass.cli", "compare",
             "--out", str(out)],
            capture_output=True, text=True)

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    exit_ok = first.returncode == 0 and second.returncode == 0
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    identical = names_a == names_b and all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names_a)
    stdout_same = first.stdout == second.stdout
    ok = exit_ok and identical and stdout_same
    report(11, ok, f"repeated compare runs exit 0 and produce byte-identical "
                   f"outputs ({len(names_a)} files)")
