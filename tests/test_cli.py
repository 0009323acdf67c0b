"""Command-line interface: config handling, outputs, exit codes."""

import math
import re
import subprocess
import sys
import warnings
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from doublepass import charfn, cli, fock, gaussian, ito
from doublepass.cli import (EXIT_CONFIG, EXIT_OK, RunConfig, load_config,
                            build_parser, main, parse_config_file)
from doublepass.errors import ConfigError


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "doublepass.cli", *argv],
        capture_output=True, text=True, cwd=cwd)


# -- configuration ------------------------------------------------------------


def test_parse_config_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\n"
        "alpha = 1.5\n"
        "oracle.n_traj = 250\n"
        "oracle.phase = p\n"
        "tolerance.ode_rel = 1e-7\n")
    updates = parse_config_file(cfg_file)
    assert updates == {"alpha": 1.5, "oracle_n_traj": 250,
                       "oracle_phase": "p", "tol_ode_rel": 1e-7}


def test_unknown_key_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("nonsense.key = 3\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg_file)


def test_flag_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("alpha = 1.5\n")
    new_out = tmp_path / "new" / "deeper"
    args = build_parser().parse_args(
        ["variances", "--config", str(cfg_file), "--alpha", "2.0",
         "--t-max", "0.5", "--dt", "1e-3", "--seed", "99",
         "--out", str(new_out)])
    cfg = load_config(args)
    assert cfg.alpha == 2.0
    assert cfg.t_max == 0.5
    assert cfg.solver_dt == 1e-3
    assert cfg.oracle_seed == 99
    assert cfg.out == str(new_out)
    # each override flag stores under the RunConfig field it sets
    dests = {action.dest for action in build_parser()._actions}
    assert dests - {f.name for f in fields(RunConfig)} == {
        "help", "command", "config", "tolerance_scale"}


def test_tolerance_scale():
    args = build_parser().parse_args(["compare", "--tolerance-scale", "10"])
    cfg = load_config(args)
    assert cfg.tol_ode_rel == pytest.approx(1e-7)
    assert cfg.tol_pde_abs == pytest.approx(5e-3)


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        RunConfig(grid_step=-0.1).validate()
    with pytest.raises(ConfigError):
        RunConfig(oracle_phase="y").validate()
    with pytest.raises(ConfigError):
        RunConfig(pde_dt=math.inf).validate()
    with pytest.raises(ConfigError):
        RunConfig(tol_oracle_sigma=math.nan).validate()
    with pytest.raises(ConfigError):
        RunConfig(oracle_seed=-1).validate()


#: every config-file key -> (RunConfig field, type its value parses to)
CONFIG_KEYS = {
    "alpha": ("alpha", float), "t_max": ("t_max", float),
    "grid_step": ("grid_step", float), "out": ("out", str),
    "solver.dt": ("solver_dt", float), "pde.t": ("pde_t", float),
    "pde.dt": ("pde_dt", float), "pde.l_max": ("pde_l_max", float),
    "pde.dl": ("pde_dl", float), "pde.k_max": ("pde_k_max", float),
    "pde.dk": ("pde_dk", float), "oracle.dt": ("oracle_dt", float),
    "oracle.t_max": ("oracle_t_max", float),
    "oracle.d_at": ("oracle_d_at", int), "oracle.d_anc": ("oracle_d_anc", int),
    "oracle.n_traj": ("oracle_n_traj", int),
    "oracle.seed": ("oracle_seed", int), "oracle.phase": ("oracle_phase", str),
    "tolerance.ode_rel": ("tol_ode_rel", float),
    "tolerance.pde_abs": ("tol_pde_abs", float),
    "tolerance.moc_abs": ("tol_moc_abs", float),
    "tolerance.residual": ("tol_residual", float),
    "tolerance.oracle_rel": ("tol_oracle_rel", float),
    "tolerance.oracle_sigma": ("tol_oracle_sigma", float),
}


def test_config_keys_and_types(tmp_path):
    cfg_file = tmp_path / "all.cfg"
    cfg_file.write_text("".join(f"{key} = 3\n" for key in CONFIG_KEYS))
    updates = parse_config_file(cfg_file)
    assert {attr: type(value) for attr, value in updates.items()} == dict(
        CONFIG_KEYS.values())
    # field names and section spellings other than the keys above are unknown
    for key in ("solver_dt", "tol.ode_rel", "tolerance_ode_rel", "t.max",
                "grid.step", "oracle.d.at"):
        cfg_file.write_text(f"{key} = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(cfg_file)


# -- commands -------------------------------------------------------------------


def test_derive_output_contains_system(tmp_path):
    res = run_cli("derive", "--out", str(tmp_path))
    assert res.returncode == EXIT_OK
    assert "L = (1/2*sqrt2)*a*p - (1/2*i*sqrt2)*a*x" in res.stdout
    assert "H = -(1/4*i)*a^2 + (1/2)*a^2*x*p" in res.stdout
    assert "x_ph_out = x_ph_in + (a)*p_at_out" in res.stdout
    assert "{1,2,3}" in res.stdout
    assert (tmp_path / "derivation.txt").read_text() == res.stdout


def test_variances_csv_known_value(tmp_path):
    res = run_cli("variances", "--alpha", "1", "--t-max", "1",
                  "--out", str(tmp_path))
    assert res.returncode == EXIT_OK
    lines = (tmp_path / "variances.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:12] == [
        "t", "var_p_at", "cov_pat_xph", "var_x_ph_norm", "var_x_at",
        "cov_xat_pph", "var_p_ph_norm", "sq_db_atom", "sq_db_field_x",
        "sq_db_field_p", "unc_prod_field", "unc_prod_atom"]
    final = lines[-1].split(",")
    assert final[header.index("var_p_ph_norm")] == "0.666666666667"
    # constant column count
    assert {len(line.split(",")) for line in lines} == {len(header)}


def test_pde_command(tmp_path):
    cfg = tmp_path / "pde.cfg"
    cfg.write_text("pde.t = 0.2\npde.dt = 5e-4\npde.l_max = 10.0\n"
                   "pde.dl = 0.05\npde.k_max = 1.0\npde.dk = 0.5\n")
    res = run_cli("pde", "--config", str(cfg), "--out", str(tmp_path))
    assert res.returncode == EXIT_OK
    for family in ("F", "G"):
        dump = (tmp_path / f"surface_{family}.csv").read_text().splitlines()
        assert dump[0].startswith(f"# family={family} alpha=1 t=0.2")
        assert dump[1] == "k,l,value"
    assert "fd max abs error" in (tmp_path / "pde_summary.txt").read_text()


def test_oracle_command(tmp_path):
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text("grid_step = 0.05\noracle.t_max = 0.1\noracle.dt = 2e-3\n"
                   "oracle.d_at = 12\noracle.n_traj = 120\n")
    res = run_cli("oracle", "--config", str(cfg), "--out", str(tmp_path))
    assert res.returncode == EXIT_OK
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert lines[0].split(",")[:12] == list(gaussian.CSV_COLUMNS)
    assert lines[0].split(",")[-1] == "n_traj"
    assert lines[-1].split(",")[-1] == "120"
    assert {len(line.split(",")) for line in lines} == {15}
    # the oracle measures one normalized field variance, not the other, so
    # the field squeezing and the field product stay unmeasured
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["sq_db_field_x"] == row["unc_prod_field"] == "nan"
        assert row["var_x_ph_norm"] != "nan"
    # a grid_step below oracle.dt samples every one of the 50 oracle steps
    cfg.write_text(cfg.read_text().replace("0.05", "1e-320"))
    assert main(["oracle", "--config", str(cfg),
                 "--out", str(tmp_path / "fine")]) == EXIT_OK
    fine = (tmp_path / "fine" / "oracle.csv").read_text().splitlines()
    assert len(fine) == 1 + 50
    # the oracle reads no RK4 rows, so a grid_step that divides neither
    # t_max nor oracle.t_max is no error of its run
    cfg.write_text(cfg.read_text().replace("1e-320", "0.03"))
    assert main(["oracle", "--config", str(cfg),
                 "--out", str(tmp_path / "coarse")]) == EXIT_OK
    coarse = (tmp_path / "coarse" / "oracle.csv").read_text().splitlines()
    assert len(coarse) == 1 + 3


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    res = run_cli("variances", "--config", str(bad), "--out", str(tmp_path))
    assert res.returncode == EXIT_CONFIG
    assert "unknown key" in res.stderr


def test_duplicate_config_key_is_config_error(tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("alpha = 0.5\n# a comment\nt_max = 1\nalpha = 2\n")
    with pytest.raises(ConfigError, match=r"twice.cfg:4: key 'alpha' already"
                                          r" given on line 1"):
        parse_config_file(cfg)
    res = run_cli("variances", "--config", str(cfg), "--out",
                  str(tmp_path / "out"))
    assert res.returncode == EXIT_CONFIG, res.stderr
    assert "key 'alpha' already given on line 1" in res.stderr
    assert not (tmp_path / "out").exists()


def test_validate_names_the_config_key():
    with pytest.raises(ConfigError, match=r"parameter pde\.dt must be finite"):
        RunConfig(pde_dt=math.inf).validate()
    with pytest.raises(ConfigError,
                       match=r"parameter tolerance\.oracle_sigma must be finite"):
        RunConfig(tol_oracle_sigma=math.nan).validate()
    with pytest.raises(ConfigError, match=r"parameter solver\.dt must be positive"):
        RunConfig(solver_dt=0.0).validate()
    with pytest.raises(ConfigError, match=r"parameter alpha must be positive"):
        RunConfig(alpha=-1.0).validate()


#: the end of a memory row's message
_MEMORY = r" would take .* GiB, more than the .* GiB of physical memory"

#: the end of the oracle work row's message
_WORK = r" the oracle would take .* multiply-adds, more than the 1e\+13"

_ORACLE_WORK_KEYS = (r"oracle\.dt, oracle\.t_max, oracle\.n_traj,"
                     r" oracle\.d_at, oracle\.d_anc:")

#: the FD work row's message
_FD_WORK = (r"pde\.l_max, pde\.dl, pde\.k_max, pde\.dk, pde\.t, pde\.dt: FD"
            r" would take .* point-steps, more than the 4e\+11")

#: the keys the table row's message names
_TABLE_KEYS = r"solver\.dt, grid_step, oracle\.dt:"


@pytest.mark.parametrize("argv, config, message", [
    # 1e12 sampled rows of 1 536 B, 1.5 PB
    (("variances",), "grid_step = 1e-12\nsolver.dt = 1e-12\n",
     _TABLE_KEYS + " the variance and oracle tables" + _MEMORY),
    # 5e8 steps x (400 x 3 x 30^2 + 3e5), 6.9e14 multiply-adds
    (("oracle",), "oracle.dt = 1e-9\n", _ORACLE_WORK_KEYS + _WORK),
    # a modest step over a long extent: 1e9 steps, 1.4e15
    (("derive",), "oracle.t_max = 1e6\n", _ORACLE_WORK_KEYS + _WORK),
    # 801 x 16 000 001 surface values, 103 GB
    (("pde",), "pde.dl = 1e-6\n",
     r"pde\.l_max, pde\.dl, pde\.k_max, pde\.dk: the FD surface" + _MEMORY),
    # a 60 000-level joint space: 400 x 500 x 3 x 20 000^2 multiply-adds,
    # 2.4e14, before its (60 000, 60 000) complex operator, 57.6 GB
    (("oracle",), "oracle.d_at = 20000\n", _ORACLE_WORK_KEYS + _WORK),
])
def test_arrays_larger_than_memory_rejected_at_load(tmp_path, argv, config,
                                                    message):
    # only the estimate runs: load_config raises before any route allocates;
    # the work row comes first, so the oracle cases fail the same way
    # whatever the machine's memory
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(config)
    args = build_parser().parse_args(
        [*argv, "--config", str(cfg_file), "--out", str(tmp_path)])
    with pytest.raises(ConfigError, match=message):
        load_config(args)


def test_oracle_work_bound_is_exact_multiply_adds(monkeypatch):
    # 10 steps x (100 trajectories x d_anc 2 x d_at 4^2 + the fixed cost of
    # a step), checked in integers against the bound itself, at it and one
    # under it
    cfg = RunConfig(oracle_n_traj=100, oracle_t_max=0.01, oracle_d_at=4,
                    oracle_d_anc=2)
    work = 10 * (3_200 + cli.ORACLE_STEP_WORK)
    monkeypatch.setattr(cli, "ORACLE_MAX_WORK", work)
    cfg.validate()
    monkeypatch.setattr(cli, "ORACLE_MAX_WORK", work - 1)
    with pytest.raises(ConfigError, match="^" + _ORACLE_WORK_KEYS):
        cfg.validate()
    # the default run and a long one, 3000 trajectories over 3000 steps
    # (2.5e10), load; neither is run here
    monkeypatch.undo()
    RunConfig().validate()
    RunConfig(oracle_n_traj=3000, oracle_t_max=3.0).validate()
    # at the real bound, whatever the machine's memory: 100 trajectories,
    # d_anc 2 and d_at 10 take 20 000 + 300 000 multiply-adds a step, so
    # 31 250 000 steps take exactly 1e13; one more step or one more
    # trajectory is one unit over
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2 ** 50)
    small = dict(oracle_n_traj=100, oracle_d_at=10, oracle_d_anc=2,
                 oracle_dt=1e-7)
    at_bound = RunConfig(oracle_t_max=3.125, **small)
    assert at_bound.section(fock.OracleConfig).n_steps == 31_250_000
    at_bound.validate()
    for over in (replace(at_bound, oracle_t_max=3.1250001),
                 replace(at_bound, oracle_n_traj=101)):
        with pytest.raises(ConfigError, match="^" + _ORACLE_WORK_KEYS):
            over.validate()
    # the default run may take 10**13 / (400 x 3 x 900 + 300 000)
    # = 7 246 376.8 steps: that many pass and one more fails
    RunConfig(oracle_t_max=7_246_376 * 1e-3).validate()
    with pytest.raises(ConfigError, match="^" + _ORACLE_WORK_KEYS):
        RunConfig(oracle_t_max=7_246_377 * 1e-3).validate()


class _Stepped(Exception):
    """Raised by a stand-in ``fd_solve``: the FD work row let the run on."""


def _no_fd(*args, **kwargs):
    raise _Stepped


def test_fd_work_bound_is_exact_point_steps(monkeypatch):
    # 2 families x 2 rows (k = 0, 0.02) x 625 columns x 1.6e8 steps is
    # exactly the bound; one more step or one more column is one unit over.
    # FD is a stand-in, so nothing is stepped at that size, and the 3 x 625
    # surface is small whatever the machine
    monkeypatch.setattr(charfn, "fd_solve", _no_fd)
    at_bound = RunConfig(pde_k_max=0.02, pde_l_max=6.24, pde_t=0.5,
                         pde_dt=3.125e-9)
    assert at_bound.section(charfn.GridSpec).shape == (3, 625)
    assert 2 * 2 * 625 * 160_000_000 == cli.FD_MAX_POINT_STEPS
    # an even nk steps nk // 2 rows: nk 4 counts as nk 3; the default run
    # counts 8.0e8
    for cfg in (at_bound, replace(at_bound, pde_k_max=0.03), RunConfig()):
        cfg.validate()
        with pytest.raises(_Stepped):
            cli.pde_outputs(cfg)
    for over in (replace(at_bound, pde_t=0.500000003125),
                 replace(at_bound, pde_l_max=6.25)):
        over.validate()                 # load leaves FD's work to its grid
        with pytest.raises(ConfigError, match="^" + _FD_WORK):
            cli.pde_outputs(over)


def test_fd_work_counts_the_grid_the_command_steps(tmp_path, monkeypatch,
                                                   capsys):
    # compare steps its own grid at pde.dl: 3 k >= 0 rows x 1 001 columns
    # x 5e10 steps x 2 families, 3.0e14 point-steps, though the configured
    # 1 x 3 grid counts 3e11, under the bound. FD is a stand-in, so a run
    # the row let through would exit 3 at once, not step for days
    monkeypatch.setattr(charfn, "fd_solve", _no_fd)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pde.k_max = 0.02\npde.dk = 0.04\npde.l_max = 0.02\n"
                   "pde.dl = 0.02\npde.dt = 1e-11\n")
    assert main(["compare", "--config", str(cfg),
                 "--out", str(tmp_path / "compare")]) == EXIT_CONFIG
    assert re.search("^configuration error: " + _FD_WORK,
                     capsys.readouterr().err)
    # pde.dt = 1e-9 on the default grid, 2 x 401 x 801 x 5e8 point-steps
    # (3.2e14): pde exits 2, and the commands that step no FD run
    cfg.write_text("pde.dt = 1e-9\n")
    assert main(["pde", "--config", str(cfg),
                 "--out", str(tmp_path / "pde")]) == EXIT_CONFIG
    assert re.search("^configuration error: " + _FD_WORK,
                     capsys.readouterr().err)
    for command in ("derive", "variances"):
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / command)]) == EXIT_OK
    assert not (tmp_path / "compare").exists()
    assert not (tmp_path / "pde").exists()
    # whether pde.dt divides pde.t is still checked at load, by every command
    cfg.write_text("pde.dt = 0.3\n")
    assert main(["variances", "--config", str(cfg),
                 "--out", str(tmp_path / "v")]) == EXIT_CONFIG
    assert "pde.dt must divide pde.t" in capsys.readouterr().err


def test_array_estimate_is_exact_bytes(monkeypatch):
    # a 3 x 3 FD surface (72 B) and an 8 x 8 joint-space operator (1 024 B)
    # leave the table row the largest array in the first three cases
    small = dict(pde_l_max=0.02, pde_dl=0.02, pde_k_max=0.02, pde_dk=0.02,
                 oracle_d_at=4, oracle_d_anc=2)
    row = cli.TABLE_ROW_BYTES
    cases = [
        # the default variance tables, 101 rows, and one oracle row at
        # oracle.t_max 0.01
        (RunConfig(oracle_t_max=0.01, **small), 101 + 1),
        # below solver.dt a grid_step counts one variance row per step,
        # 10 001, and one oracle row per oracle step, 10; t_max / 1e-320
        # overflows to inf without an error
        (RunConfig(oracle_t_max=0.01, grid_step=1e-320, **small),
         10_001 + 10),
        # grid_step = solver.dt = 1e-4: 10 001 variance rows and the 500
        # oracle steps, one row each, not 5 000
        (RunConfig(grid_step=1e-4, **small), 10_001 + 500)]
    for cfg, rows in cases:
        monkeypatch.setattr(cli, "_physical_memory", lambda: rows * row)
        cfg.validate()
        monkeypatch.setattr(cli, "_physical_memory", lambda: rows * row - 1)
        with pytest.raises(ConfigError, match="^" + _TABLE_KEYS):
            cfg.validate()
    # the defaults: an 801 x 801 FD surface, 5 132 808 B, is the largest,
    # over the tables (102 rows, 156 672 B); at grid_step 0.1 the 90 x 90
    # complex joint-space operator, 129 600 B, is the largest, over the
    # tables (12 rows, 18 432 B)
    cfg = RunConfig(oracle_t_max=0.01)
    monkeypatch.setattr(cli, "_physical_memory", lambda: 801 * 801 * 8)
    cfg.validate()
    monkeypatch.setattr(cli, "_physical_memory", lambda: 801 * 801 * 8 - 1)
    with pytest.raises(ConfigError, match=r"^pde\.l_max, pde\.dl, pde\.k_max,"
                                          r" pde\.dk: "):
        cfg.validate()
    cfg = RunConfig(oracle_t_max=0.01, grid_step=0.1,
                    **{**small, "oracle_d_at": 30, "oracle_d_anc": 3})
    monkeypatch.setattr(cli, "_physical_memory", lambda: 90 * 90 * 16)
    cfg.validate()
    monkeypatch.setattr(cli, "_physical_memory", lambda: 90 * 90 * 16 - 1)
    with pytest.raises(ConfigError, match=r"^oracle\.d_at, oracle\.d_anc: "):
        cfg.validate()


def test_variance_path_that_cannot_fit_exits_2(tmp_path, monkeypatch, capsys):
    # grid_step = solver.dt = 1e-7: 10^7 + 1 rows, about 15 GB of variance
    # tables (10^6 rows peaked at 1.43 GB), more than an 8 GiB machine has;
    # 10^6 rows pass.  Only the estimate runs: nothing is allocated
    monkeypatch.setattr(cli, "_physical_memory", lambda: 8 * 2 ** 30)
    RunConfig(grid_step=1e-6, solver_dt=1e-6).validate()
    # checked before main, which would run the tables if load let them by
    with pytest.raises(ConfigError, match="^" + _TABLE_KEYS):
        RunConfig(grid_step=1e-7, solver_dt=1e-7).validate()
    cfg = tmp_path / "fine.cfg"
    cfg.write_text("grid_step = 1e-7\nsolver.dt = 1e-7\n")
    for command in ("variances", "compare"):
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / command)]) == EXIT_CONFIG
        assert ("solver.dt, grid_step, oracle.dt: the variance and oracle"
                " tables would take") in capsys.readouterr().err
        assert not (tmp_path / command).exists()


#: 100 trajectories, d_at 4, d_anc 2: the smallest oracle, whose steps cost
#: mostly their fixed time
TINY_ORACLE = "oracle.n_traj = 100\noracle.d_at = 4\noracle.d_anc = 2\n"


def test_long_or_wide_oracle_exits_2(tmp_path, monkeypatch, capsys):
    # only the estimates run: nothing is allocated or stepped.  At
    # oracle.dt = 2e-9, 2.5e8 steps of about 36 us (2.5 h) exceed the work
    # bound whatever the machine
    runs = {"long": TINY_ORACLE + "oracle.dt = 2e-9\n",
            # 5e6 rows of oracle.csv at grid_step = oracle.dt = 1e-7, and
            # 10 001 variance rows: 7.2 GiB, more than a 4 GiB machine has
            "rows": TINY_ORACLE + "oracle.dt = 1e-7\ngrid_step = 1e-7\n"}
    monkeypatch.setattr(cli, "_physical_memory", lambda: 4 * 2 ** 30)
    for (name, text), message in zip(runs.items(), (
            "oracle.dt, oracle.t_max, oracle.n_traj, oracle.d_at,"
            " oracle.d_anc: the oracle would take 7.58e+13 multiply-adds",
            "solver.dt, grid_step, oracle.dt: the variance and oracle tables"
            " would take 7.17 GiB")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        for command in ("oracle", "compare"):
            out = tmp_path / f"{name}-{command}"
            assert main([command, "--config", str(cfg),
                         "--out", str(out)]) == EXIT_CONFIG
            assert message in capsys.readouterr().err
            assert not out.exists()
    # the rows fit 8 GiB; 3e7 of them (oracle.t_max = 3, 9.1e12
    # multiply-adds, under the work bound) do not fit 16 GiB
    rows = dict(oracle_n_traj=100, oracle_d_at=4, oracle_d_anc=2,
                oracle_dt=1e-7, grid_step=1e-7)
    monkeypatch.setattr(cli, "_physical_memory", lambda: 8 * 2 ** 30)
    RunConfig(**rows).validate()
    monkeypatch.setattr(cli, "_physical_memory", lambda: 16 * 2 ** 30)
    with pytest.raises(ConfigError, match="^" + _TABLE_KEYS):
        RunConfig(oracle_t_max=3.0, **rows).validate()


@pytest.mark.parametrize("argv", [
    ("oracle", "--alpha", "nan"),
    ("oracle", "--t-max", "nan"),
    ("oracle", "--alpha", "1e200"),
    ("oracle", "--seed", "-1"),
    ("compare", "--alpha", "nan"),
    # solver.dt does not divide grid_step; nothing may be allocated first
    ("variances", "--config", "{tiny_grid}"),
    ("compare", "--config", "{tiny_grid}"),
    # an FD surface and an oracle operator larger than memory, at load
    ("pde", "--config", "{fine_dl}"),
    ("oracle", "--config", "{big_d_at}"),
    # pde.t below the residual check's time step, at load: before RK4 and
    # FD run, so the message names the key and not the stencil
    ("pde", "--config", "{short_t}"),
    ("compare", "--config", "{short_t}"),
])
def test_bad_number_exit_code(tmp_path, argv):
    paths, keys = {}, {}
    # config file -> its text and the key the error must name
    for name, text, key in (
            ("tiny_grid", "grid_step = 1e-12\n", "grid_step"),
            ("fine_dl", "pde.dl = 1e-6\n", "pde.dl"),
            ("big_d_at", "oracle.d_at = 20000\n", "oracle.d_at"),
            ("short_t", "pde.t = 5e-5\npde.dt = 5e-5\n", "pde.t")):
        paths[name] = tmp_path / f"{name}.cfg"
        paths[name].write_text(text)
        keys[str(paths[name])] = key
    argv = [arg.format(**paths) for arg in argv]
    res = run_cli(*argv, "--out", str(tmp_path))
    assert res.returncode == EXIT_CONFIG
    assert "configuration error" in res.stderr
    assert "Traceback" not in res.stderr
    for arg in argv:
        if arg in keys:
            assert keys[arg] in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in paths.values())


def test_fine_solver_dt_runs(tmp_path):
    # RK4 keeps only the 101 sampled rows, so 1e11 steps fit in memory
    assert main(["variances", "--dt", "1e-11",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert len((tmp_path / "variances.csv").read_text().splitlines()) == 102


@pytest.mark.parametrize("alpha, solver_dt", [
    (1.0, 1e-4), (0.3, 1e-4), (1e-3, 1e-4), (1e-9, 1e-4),
    (1.0, 1e-6), (1.0, 1e-9), (1.0, 1e-13)])
def test_rk4_rounding_does_not_grow_as_solver_dt_shrinks(alpha, solver_dt):
    # check 4's error on the grid_step rows: the step map's powers keep
    # E = R - I apart from I, so E's O(dt) entries keep their low bits
    cfg = RunConfig(alpha=alpha, solver_dt=solver_dt)
    cfg.validate()
    closed, ode, _ = cli._variance_tables(cfg)
    worst = max(gaussian.relative_error(value, ref)
                for col in gaussian.PUBLISHED
                for value, ref in zip(ode[col].tolist(), closed[col].tolist()))
    assert worst <= 1e-14


@pytest.mark.parametrize("case", [
    "missing_config", "config_is_dir", "config_not_utf8", "out_under_file",
    "out_is_file"])
def test_bad_file_input_exit_code(tmp_path, case):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    bad_bytes = tmp_path / "latin1.cfg"
    bad_bytes.write_bytes(b"# caf\xe9\nalpha = 1\n")
    out = ("--out", str(tmp_path / "out"))
    argv = {
        "missing_config": ("--config", str(tmp_path / "absent.cfg"), *out),
        "config_is_dir": ("--config", str(tmp_path), *out),
        "config_not_utf8": ("--config", str(bad_bytes), *out),
        "out_under_file": ("--out", str(blocker / "sub")),
        "out_is_file": ("--out", str(blocker)),
    }[case]
    # compare would run every route before writing; the check comes first
    res = run_cli("compare", *argv)
    assert res.returncode == EXIT_CONFIG, res.stderr
    assert "configuration error" in res.stderr
    assert "Traceback" not in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker",
                                                          "latin1.cfg"]


@pytest.mark.parametrize("command", ["derive", "variances"])
def test_overlong_out_path_exit_code(tmp_path, command):
    # a 300-byte name makes the lookup itself fail (ENAMETOOLONG)
    out = tmp_path / ("a" * 300)
    res = run_cli(command, "--out", str(out))
    assert res.returncode == EXIT_CONFIG, res.stderr
    assert f"configuration error: output path {out}" in res.stderr
    assert "Traceback" not in res.stderr
    assert list(tmp_path.iterdir()) == []


def test_write_failure_is_config_error(tmp_path):
    target = tmp_path / ("a" * 300) / "derivation.txt"
    with pytest.raises(ConfigError, match="cannot write"):
        cli._write_text(target, "text\n")
    assert list(tmp_path.iterdir()) == []


def test_bad_flag_exit_code(tmp_path):
    res = run_cli("frobnicate", "--out", str(tmp_path))
    assert res.returncode == EXIT_CONFIG


def test_compare_tolerance_failure_exit_code(tmp_path):
    # shrinking every tolerance far below machine precision must fail with 1
    res = run_cli("compare", "--tolerance-scale", "1e-16",
                  "--out", str(tmp_path))
    assert res.returncode == 1
    assert "FAIL" in res.stdout
    assert "TOLERANCE FAILURE" in res.stdout


def test_variances_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("variances", "--out", str(a)).returncode == EXIT_OK
    assert run_cli("variances", "--out", str(b)).returncode == EXIT_OK
    assert (a / "variances.csv").read_bytes() == \
        (b / "variances.csv").read_bytes()


def _fmt_reference(value):
    """The per-value writer the tables had: .12g, -0.0 written as 0."""
    if value == 0.0:
        value = 0.0
    return f"{value:.12g}"


def _table_csv_reference(table, extra):
    columns = {**{c: table[c] for c in gaussian.CSV_COLUMNS}, **extra}
    lines = [",".join(map(_fmt_reference, row)) for row in
             zip(*(np.asarray(col).tolist() for col in columns.values()))]
    return "\n".join([",".join(columns), *lines]) + "\n"


def test_table_csv_matches_per_value_reference():
    # one row format for the whole table against the per-value writer, on
    # values across 1e-300..1e300 of either sign, every 7th -0.0, the
    # special values in the first rows of every column, a column of -0.0
    # only and int columns like n_traj
    rng = np.random.default_rng(33)
    n = 2000
    spread = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    spread[::7] = -0.0
    special = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
               -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e16, 123456789012.5, 0.1, 1.0]
    table = {}
    for i, col in enumerate(gaussian.CSV_COLUMNS):
        values = np.roll(spread, 97 * i)
        values[:len(special)] = np.roll(special, i)
        table[col] = values
    table["t"] = np.full(n, -0.0)
    extra = {"spread": list(spread), "n_traj": [400] * n,
             "index": list(range(n)), "zeros": [0] * n}
    text = cli._table_csv(table, extra)
    assert text == _table_csv_reference(table, extra)
    assert not re.search(r"(^|,)-0(,|$)", text, re.M)


@pytest.mark.parametrize("alpha", ["0.3", "1", "1e-110"])
def test_variances_at_normal_alpha_squared(tmp_path, monkeypatch, alpha):
    # where alpha^2 is a normal float RK4 steps with the evaluated drift,
    # never the by-degree coefficients, and variances.csv is the per-value
    # writer's text of the two routes' tables
    def by_degree():
        raise AssertionError("RK4 summed its step map by degree")
    monkeypatch.setattr(gaussian, "_moment_odes_by_degree", by_degree)
    assert main(["variances", "--alpha", alpha,
                 "--out", str(tmp_path)]) == EXIT_OK
    cfg = load_config(build_parser().parse_args(["variances", "--alpha",
                                                 alpha]))
    closed, ode, _ = cli._variance_tables(cfg)
    assert (tmp_path / "variances.csv").read_text() == _table_csv_reference(
        closed, {f"ode_{c}": ode[c] for c in gaussian.PUBLISHED})


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_negative_zero_alpha_loads_as_zero(tmp_path, capsys, command):
    # alpha = -0.0 is the coupling 0, from a flag or from the file: every
    # artifact and stdout are those of alpha 0 (the surface headers wrote
    # alpha=-0), and so is a config compare derives with replace
    cfg = _write_config(tmp_path / "run.cfg")
    neg = _write_config(tmp_path / "neg.cfg", alpha="-0.0")
    runs = []
    for name, argv in (("zero", ["--alpha", "0", "--config", cfg]),
                       ("flag", ["--alpha", "-0.0", "--config", cfg]),
                       ("file", ["--config", neg])):
        out = tmp_path / name
        assert main([command, *argv, "--out", str(out)]) == EXIT_OK
        runs.append(({p.name: p.read_bytes() for p in out.iterdir()},
                     capsys.readouterr().out))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert math.copysign(1.0, replace(RunConfig(alpha=-0.0),
                                      pde_dk=1.0).alpha) == 1.0


def test_parser_offers_every_command():
    action = next(a for a in build_parser()._actions if a.dest == "command")
    assert action.choices == list(cli._COMMANDS)


def test_compare_runs_each_oracle_result_once(tmp_path, monkeypatch):
    calls = {"atoms": [], "records": [], "builds": 0}
    atoms_fn, records_fn = fock.simulate_atom_moments, fock._homodyne_records
    unitaries_fn = fock.step_unitaries

    def count_atoms(config, n_samples):
        calls["atoms"].append(n_samples)
        return atoms_fn(config, n_samples)

    def count_records(config, sample_steps):
        calls["records"].append((config.alpha, len(sample_steps)))
        return records_fn(config, sample_steps)

    def count_builds(*args):
        calls["builds"] += 1
        return unitaries_fn(*args)

    monkeypatch.setattr(fock, "simulate_atom_moments", count_atoms)
    monkeypatch.setattr(fock, "_homodyne_records", count_records)
    monkeypatch.setattr(fock, "step_unitaries", count_builds)
    # start cold, as a fresh process does
    fock._gauged_stack.cache_clear()
    try:
        assert main(["compare", "--out", str(tmp_path)]) == EXIT_OK
    finally:
        fock._gauged_stack.cache_clear()
    # the atom moments and the configured coupling's record at the same 50
    # steps, and the alpha = 0 control at its final step, nothing else
    assert calls["atoms"] == [50]
    assert sorted(calls["records"]) == [(0.0, 1), (RunConfig().alpha, 50)]
    # the atom loop and the phase-x homodyne loop share one Kraus stack
    assert calls["builds"] == 2
    report = (tmp_path / "compare_report.txt").read_text()
    n_report = re.search(r"PASS oracle_homodyne: .*\bn=(\d+)\)", report)
    last_row = (tmp_path / "oracle.csv").read_text().splitlines()[-1]
    assert n_report is not None
    assert int(n_report.group(1)) == int(last_row.split(",")[-1])


def test_pde_summary_appends_fd_health(tmp_path):
    cfg = tmp_path / "pde.cfg"
    cfg.write_text("pde.t = 0.2\npde.dt = 5e-4\npde.l_max = 10.0\n"
                   "pde.dl = 0.05\npde.k_max = 1.0\npde.dk = 0.5\n")
    assert main(["pde", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "pde_summary.txt").read_text().splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        "pde summary", "fd max abs error F", "fd max abs error G",
        "moc max abs error", "closed-form residual max",
        "fd cfl F", "fd boundary max F", "fd cfl G", "fd boundary max G"]
    grid = charfn.GridSpec(l_max=10.0, dl=0.05, k_max=1.0, dk=0.5)
    (surf,) = charfn.fd_solve(("G",), 1.0, grid, 0.2, 5e-4)
    assert lines[-2] == f"fd cfl G: {surf.cfl:.6e}"
    assert lines[-1] == f"fd boundary max G: {surf.boundary_max:.6e}"
    assert surf.cfl == 1.0 * 5e-4 / 0.05


@pytest.mark.parametrize("alpha", (0.0, 1e-3, 1.0, 100.0))
@pytest.mark.parametrize("family", ("F", "G"))
def test_probe_checks_on_arrays_match_point_calls(family, alpha):
    # pde_outputs takes the closed form and the residual on the probe
    # arrays at once: each entry must be the point call's value, bit for bit
    kk, ll = np.meshgrid(cli.PROBE, cli.PROBE, indexing="ij")
    kk, ll = kk.ravel(), ll.ravel()
    points = list(zip(kk.tolist(), ll.tolist()))

    def closed(tt, k, l):
        return charfn.closed_form_char(family, alpha, tt, k, l)

    for t in (0.05, 0.5):
        at_once = closed(t, kk, ll)
        residual = charfn.pde_residual(family, alpha, closed, t, kk, ll)
        assert at_once.tobytes() == np.array(
            [closed(t, k, l) for k, l in points]).tobytes()
        assert residual.tobytes() == np.array(
            [charfn.pde_residual(family, alpha, closed, t, k, l)
             for k, l in points]).tobytes()


def test_pde_evaluates_the_closed_form_once_per_family_on_one_mesh(
        tmp_path, monkeypatch):
    # the FD error takes the closed form on the mesh of the k >= 0 rows a
    # surface holds: one mesh of that shape besides the one fd_solve
    # evaluates its coefficients on, one evaluation on it per family, and
    # no (k, l) mesh or closed form of the full grid
    nk, nl = charfn.GridSpec(l_max=8.0, dl=0.1, k_max=0.5, dk=0.5).shape
    half = (nk - nk // 2, nl)
    meshes, evaluated = [], []
    meshgrid, closed_fn = np.meshgrid, charfn.closed_form_char

    def count_mesh(*axes, **kwargs):
        out = meshgrid(*axes, **kwargs)
        meshes.append(out[0].shape)
        return out

    def count_closed(family, alpha, t, k, l):
        out = closed_fn(family, alpha, t, k, l)
        evaluated.append((family, out.shape))
        return out

    monkeypatch.setattr(np, "meshgrid", count_mesh)
    monkeypatch.setattr(charfn, "closed_form_char", count_closed)
    cfg = _write_config(tmp_path / "run.cfg")
    assert main(["pde", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    assert half == (2, 161)
    assert meshes.count(half) == 2 and (nk, nl) not in meshes
    assert [family for family, shape in evaluated if shape == half] == \
        ["F", "G"]
    assert all(shape != (nk, nl) for _, shape in evaluated)


def test_compare_integrates_moment_ode_once(tmp_path, monkeypatch):
    # the closed-form table is the one closed-form call on many times;
    # checks 8 and 9 make a call at one time
    calls = {"build": 0, "integrate": 0, "closed_form_table": 0}
    build_fn, integrate_fn, closed_fn = (gaussian.build_moment_odes,
                                         gaussian.integrate_covariance,
                                         gaussian.closed_form_covariances)

    def count_build(alpha):
        calls["build"] += 1
        return build_fn(alpha)

    def count_integrate(ode, t_max, dt, sample_dt):
        calls["integrate"] += 1
        return integrate_fn(ode, t_max, dt, sample_dt)

    def count_table(alpha, t):
        if np.size(t) > 1:
            calls["closed_form_table"] += 1
        return closed_fn(alpha, t)

    monkeypatch.setattr(gaussian, "build_moment_odes", count_build)
    monkeypatch.setattr(gaussian, "integrate_covariance", count_integrate)
    monkeypatch.setattr(gaussian, "closed_form_covariances", count_table)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("grid_step = 0.05\noracle.t_max = 0.1\noracle.dt = 2e-3\n"
                   "oracle.d_at = 12\noracle.n_traj = 100\n")
    main(["compare", "--config", str(cfg), "--out", str(tmp_path / "cmp")])
    assert calls == {"build": 1, "integrate": 1, "closed_form_table": 1}
    assert main(["variances", "--config", str(cfg),
                 "--out", str(tmp_path / "var")]) == EXIT_OK
    assert (tmp_path / "cmp" / "variances.csv").read_text() == (
        tmp_path / "var" / "variances.csv").read_text()


@pytest.mark.parametrize("command, config, message", [
    ("pde", "pde.l_max = 0.01\npde.k_max = 0.1\n", "widen the l grid"),
    # CFL 0.756 is unstable; it must not surface as a boundary leak
    ("pde", "pde.l_max = 12\npde.k_max = 0.1\npde.dt = 0.00125\n"
     "pde.t = 0.3\n", "CFL"),
    ("oracle", "oracle.d_at = 4\n", "increase d_at"),
    ("compare", "tolerance.ode_rel = -1\n",
     "parameter tolerance.ode_rel must be positive"),
    ("compare", "tolerance.oracle_sigma = 0\n",
     "parameter tolerance.oracle_sigma must be positive"),
    # steps so small that the step count overflows
    ("variances", "grid_step = 1e-300\n", "grid_step = 1e-300"),
    ("variances", "solver.dt = 1e-320\n", "solver.dt = 1e-320"),
    ("oracle", "oracle.dt = 1e-320\n", "oracle.dt = 1e-320"),
    ("oracle", "oracle.dt = 1e-300\n", "oracle.dt = 1e-300"),
    ("pde", "pde.dt = 1e-320\n", "pde.dt = 1e-320"),
    ("pde", "pde.dl = 1e-300\n", "pde.dl = 1e-300"),
    ("compare", "grid_step = 1e-300\n", "grid_step = 1e-300"),
    # l^2 = 1e320 overflows the transport coefficients on the grid
    ("pde", "pde.l_max = 1e160\npde.k_max = 1e160\npde.dl = 1e158\n"
     "pde.dk = 1e158\n", "reduce pde.l_max and pde.k_max"),
    # a CFL number of 8e301 is written in significant digits, not 302 of them
    ("pde", "pde.t = 1e300\npde.dt = 1e299\n", "|drift|*dt/dl = 8e+301 > 0.5"),
], ids=["boundary_leak", "cfl_above_half", "truncation_leak", "negative_tol",
        "zero_tol", "variances_tiny_grid_step", "variances_tiny_solver_dt",
        "oracle_subnormal_dt", "oracle_tiny_dt", "pde_subnormal_dt",
        "pde_tiny_dl", "compare_tiny_grid_step", "pde_overflowing_grid",
        "cfl_huge_dt"])
def test_fixable_by_config_exit_code(tmp_path, command, config, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    res = run_cli(command, "--config", str(cfg), "--out", str(tmp_path))
    assert res.returncode == EXIT_CONFIG, res.stderr
    assert "configuration error" in res.stderr and message in res.stderr
    # one short line: no number is printed in hundreds of digits
    assert len(res.stderr) < 160, res.stderr
    assert "Traceback" not in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_internal_error_exits_3_and_writes_nothing(tmp_path, monkeypatch,
                                                  capsys):
    # the alpha = 0 homodyne control is the last thing compare computes
    def fail(config):
        raise RuntimeError("control failed")

    monkeypatch.setattr(fock, "homodyne_monte_carlo", fail)
    out = tmp_path / "out"
    assert main(["compare", "--out", str(out)]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert "Traceback" in captured.err
    assert "RuntimeError: control failed" in captured.err
    assert captured.out == ""
    assert not out.exists()


#: the check lines ``pde`` prints after its summary
PDE_CHECKS = ("PASS moc_vs_closed_form: ", "PASS fd_vs_closed_form: ",
              "PASS closed_form_residual: ", "result: OK")


@pytest.mark.parametrize("command, files, echoed", [
    ("derive", ["derivation.txt"], "derivation.txt"),
    ("variances", ["variances.csv"], None),
    ("oracle", ["oracle.csv"], None),
    ("pde", ["pde_summary.txt", "surface_F.csv", "surface_G.csv"],
     "pde_summary.txt"),
    ("compare", ["compare_report.txt", "derivation.txt", "oracle.csv",
                 "pde_summary.txt", "surface_F.csv", "surface_G.csv",
                 "variances.csv"], "compare_report.txt"),
], ids=["derive", "variances", "oracle", "pde", "compare"])
def test_each_command_writes_its_files_and_stdout(tmp_path, capsys, command,
                                                   files, echoed):
    # stdout is the text of the file ``echoed`` (empty without one); pde
    # adds its check lines
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pde.k_max = 0.1\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == files
    printed = capsys.readouterr().out
    echo = "" if echoed is None else (out / echoed).read_text()
    assert printed.startswith(echo)
    checks = printed[len(echo):].splitlines()
    expected = PDE_CHECKS if command == "pde" else ()
    assert len(checks) == len(expected)
    assert all(map(str.startswith, checks, expected))


@pytest.mark.parametrize("config, key", [
    ("oracle.d_at = 2\n", "oracle.d_at"),
    ("oracle.n_traj = 10\n", "oracle.n_traj"),
    ("oracle.dt = 0.3\n", "oracle.dt"),
    ("pde.dk = 0.03\n", "pde.dk"),
], ids=["oracle_d_at", "oracle_n_traj", "oracle_dt", "pde_dk"])
@pytest.mark.parametrize("command",
                         ["derive", "variances", "pde", "oracle", "compare"])
def test_every_command_checks_route_keys_at_load(tmp_path, capsys, command,
                                                 config, key):
    # commands that never run the route reject its bad keys too
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg),
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and key in err
    assert not out.exists()


def test_route_configs_are_sections_of_run_config():
    run = {f.name for f in fields(RunConfig)}
    oracle = fields(fock.OracleConfig)
    grid = fields(charfn.GridSpec)
    assert {f.name for f in oracle} - {"alpha"} == {
        name.removeprefix("oracle_") for name in run
        if name.startswith("oracle_")}
    assert {f"pde_{f.name}" for f in grid} == {
        "pde_l_max", "pde_dl", "pde_k_max", "pde_dk"}
    # RunConfig declares every default; the route configs declare none
    assert all(f.default is MISSING and f.default_factory is MISSING
               for f in oracle + grid)
    default = RunConfig()
    assert default.section(charfn.GridSpec) == charfn.GridSpec(
        default.pde_l_max, default.pde_dl, default.pde_k_max, default.pde_dk)
    assert default.section(fock.OracleConfig, alpha=0.0, seed=7) == \
        fock.OracleConfig(0.0, default.oracle_dt, default.oracle_t_max,
                          default.oracle_d_at, default.oracle_d_anc,
                          default.oracle_n_traj, 7, default.oracle_phase)


def test_import_loads_no_scipy_and_derives_nothing():
    code = ("import sys, doublepass.cli\n"
            "from doublepass import ito\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
            "print(ito.double_pass_derivation.cache_info().currsize)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n0\n"


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="NumPy 1 imports both with numpy itself")
def test_pde_loads_no_polynomial_or_random_module(tmp_path):
    # the quadrature rules are constants and FD draws nothing: a pde run
    # imports neither numpy.polynomial (and its LAPACK call) nor numpy.random
    cfg = tmp_path / "small.cfg"
    cfg.write_text("pde.k_max = 0.1\n")
    code = ("import sys\n"
            "from doublepass.cli import main\n"
            f"code = main(['pde', '--config', {str(cfg)!r},"
            f" '--out', {str(tmp_path / 'out')!r}])\n"
            "print(code, sorted({m for m in sys.modules if m.startswith("
            "('numpy.polynomial', 'numpy.random'))}))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.endswith("result: OK\n0 []\n")


def test_compare_builds_the_derivation_once(tmp_path, monkeypatch):
    calls = {"series_product": 0, "output_quadrature_relations": 0,
             "char_fn_generator": 0}
    package = [mod for name, mod in sys.modules.items()
               if name.split(".")[0] == "doublepass"]
    for name in calls:
        original = getattr(ito, name)

        def counted(*args, _name=name, _fn=original):
            calls[_name] += 1
            return _fn(*args)

        for mod in package:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    # start cold, as a fresh process does
    ito.double_pass_derivation.cache_clear()
    gaussian._symbolic_moment_structure.cache_clear()
    cfg = tmp_path / "small.cfg"
    cfg.write_text("grid_step = 0.05\noracle.t_max = 0.1\noracle.dt = 2e-3\n"
                   "oracle.d_at = 12\noracle.n_traj = 100\n")
    try:
        assert main(["compare", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
    finally:
        ito.double_pass_derivation.cache_clear()
    assert calls == {"series_product": 1, "output_quadrature_relations": 1,
                     "char_fn_generator": 2}


@pytest.mark.parametrize("command", ["derive", "compare"])
def test_one_expansion_per_flow(tmp_path, monkeypatch, command):
    """Four I/O relations and two transport equations: six expansions.

    The transcript formats the recorded expansions and the moment equations
    read the recorded drifts, so neither expands again.
    """
    calls = []
    original = ito.subset_terms

    def counted(factors):
        calls.append(len(factors))
        return original(factors)

    monkeypatch.setattr(ito, "subset_terms", counted)
    ito.double_pass_derivation.cache_clear()
    gaussian._symbolic_moment_structure.cache_clear()
    cfg = tmp_path / "small.cfg"
    cfg.write_text("grid_step = 0.05\noracle.t_max = 0.1\noracle.dt = 2e-3\n"
                   "oracle.d_at = 12\noracle.n_traj = 100\n")
    try:
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
    finally:
        ito.double_pass_derivation.cache_clear()
        gaussian._symbolic_moment_structure.cache_clear()
    assert calls == [3] * 6


#: small sizes at which every route runs in-process in well under a second
SMALL = {"oracle.n_traj": "100", "oracle.t_max": "0.05", "oracle.d_at": "10",
         "t_max": "0.1", "grid_step": "0.01", "solver.dt": "1e-3",
         "pde.k_max": "0.5", "pde.dk": "0.5", "pde.l_max": "8",
         "pde.dl": "0.1", "pde.t": "0.1", "pde.dt": "1e-3"}


def _write_config(path, **overrides):
    path.write_text("".join(f"{key} = {value}\n" for key, value in
                            {**SMALL, **overrides}.items()))
    return str(path)


@pytest.mark.parametrize("argv", [
    ("variances", "--alpha", "1e-170"),
    ("pde", "--alpha", "1e-300"),
    ("compare", "--alpha", "1e-300"),
])
def test_alpha_squared_underflow_is_not_an_internal_error(tmp_path, argv):
    # alpha^2 is 0 or subnormal: the routes take their alpha = 0 limits
    cfg = _write_config(tmp_path / "run.cfg")
    assert main([*argv, "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("alpha", ["1e-3", "1e-9"])
def test_compare_passes_at_small_alpha(tmp_path, alpha):
    # RK4 on C - C0 has no cross-covariance source to cancel, and MOC in
    # reversed time no k/alpha: every check holds as alpha goes to 0 (the
    # test above runs compare at 1e-300)
    cfg = _write_config(tmp_path / "run.cfg")
    assert main(["compare", "--alpha", alpha, "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("module, name, check", [
    (charfn, "fd_solve", "fd_vs_closed_form"),
    (charfn, "moc_solve", "moc_vs_closed_form"),
    (charfn, "pde_residual", "closed_form_residual"),
    (gaussian, "relative_error", "ode_vs_closed_form"),
])
def test_nan_error_fails_its_check(tmp_path, monkeypatch, capsys, module,
                                   name, check):
    original, calls = getattr(module, name), []

    def inject_nan(*args):
        calls.append(name)
        result = original(*args)
        if name == "fd_solve":  # one joint call: NaN into the G surface
            assert len(calls) == 1 and len(result) == 2
            result[1].values[0, 0] = math.nan
            return result
        if name == "relative_error":
            # check 4's one call on the six published columns: NaN into one
            # element, below the others' maximum, so a NaN-ignoring max passes
            if np.ndim(result) == 0:
                return result
            assert result.shape[0] == len(gaussian.PUBLISHED)
            assert result[0, 0] < result.max()
            result[0, 0] = math.nan
            return result
        if len(calls) != 2:
            return result
        return math.nan

    monkeypatch.setattr(module, name, inject_nan)
    cfg = _write_config(tmp_path / "run.cfg")
    # pde gates the FD, MOC and residual routes on its own
    for command in ("compare", "pde") if module is charfn else ("compare",):
        calls.clear()
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) == 1
        report = capsys.readouterr().out
        if command == "compare":
            assert report == (tmp_path / command
                              / "compare_report.txt").read_text()
        failing = [ln.split(":")[0] for ln in report.splitlines()
                   if ln.startswith("FAIL")]
        assert failing == [f"FAIL {check}"]
        # check 4 leads with RK4's cross-sector maximum, as check 8 leads
        # with its two errors
        lead = ("cross-sector 0.000e+00, " if check == "ode_vs_closed_form"
                else "")
        assert f"FAIL {check}: {lead}max" in report and "nan (limit" in report


def test_one_gate_decides_every_check():
    assert cli._check("c", "err", 0.5, 2.0) == (
        True, "PASS c: err 5.000e-01 (limit 2.000e+00, margin 0.25)")
    # the rule is value < limit: a value at its limit and NaN fail
    assert not cli._check("c", "err", 2.0, 2.0)[0]
    assert cli._check("c", "err", math.nan, 2.0) == (
        False, "FAIL c: err nan (limit 2.000e+00, margin nan)")
    # a budget that underflows to 0 (tolerance.oracle_sigma = 5e-324) fails,
    # with no division by zero
    assert cli._check("c", "diff", 0.0, 0.0) == (
        False, "FAIL c: diff 0.000e+00 (limit 0.000e+00, margin nan)")
    # an exact check passes when nothing differs and shows its detail alone
    assert cli._check("c", "L=a*p", 0) == (True, "PASS c: L=a*p")
    assert cli._check("c", "L=a*p", 1) == (False, "FAIL c: L=a*p")
    assert cli._report([(True, "PASS a: x"), (False, "FAIL b: y")]) == (
        "PASS a: x\nFAIL b: y\nresult: TOLERANCE FAILURE\n", 1)
    assert cli._report([(True, "PASS a: x")]) == ("PASS a: x\nresult: OK\n",
                                                  EXIT_OK)


def test_report_lines_show_limit_and_margin(tmp_path):
    cfg = _write_config(tmp_path / "run.cfg")
    assert main(["compare", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    lines = (tmp_path / "out" / "compare_report.txt").read_text().splitlines()
    names = [ln.split(":")[0] for ln in lines[3:10]]
    assert names == ["PASS " + name for name in (
        "ode_vs_closed_form", "moc_vs_closed_form", "fd_vs_closed_form",
        "closed_form_residual", "oracle_atom_moments", "oracle_homodyne",
        "oracle_vacuum_control")]
    for line in lines[3:10]:
        value, limit, margin = re.search(
            r" (\S+) \(limit (\S+), margin (\S+)\)$", line).groups()
        assert float(value) < float(limit)
        assert math.isclose(float(margin), float(value) / float(limit),
                            rel_tol=1e-2)
    assert lines[-1] == "result: OK"


#: pde at alpha 100 on a grid that does not resolve the centre k/alpha of
#: the F characteristics: FD is 0.067 off the closed form, the residual 5e-6;
#: t = 0.05 shows both failures in 2e4 FD steps per family
ALPHA_100 = {"alpha": "100", "pde.t": "0.05", "pde.l_max": "8",
             "pde.dl": "0.5", "pde.k_max": "2", "pde.dk": "1",
             "pde.dt": "2.5e-6"}


def test_pde_exits_1_on_a_failed_check(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path / "a100.cfg", **ALPHA_100)
    surfaces, fd_solve = [], charfn.fd_solve

    def recorded(*args):
        surfaces.append(fd_solve(*args))
        return surfaces[-1]

    monkeypatch.setattr(charfn, "fd_solve", recorded)
    out = tmp_path / "out"
    assert main(["pde", "--config", cfg, "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "pde_summary.txt", "surface_F.csv", "surface_G.csv"]
    stdout = capsys.readouterr().out
    assert stdout.startswith((out / "pde_summary.txt").read_text())
    assert [ln.split(":")[0] for ln in stdout.splitlines()
            if ln.startswith(("PASS", "FAIL"))] == [
        "PASS moc_vs_closed_form", "FAIL fd_vs_closed_form",
        "FAIL closed_form_residual"]
    assert stdout.endswith("result: TOLERANCE FAILURE\n")
    # --tolerance-scale reaches pde's limits too; the FD surfaces, 2e4 steps
    # per family, are replayed rather than recomputed
    assert len(surfaces) == 1               # one joint call: F and G
    monkeypatch.setattr(charfn, "fd_solve", lambda *args: surfaces.pop(0))
    assert main(["pde", "--config", cfg, "--tolerance-scale", "1e4",
                 "--out", str(out)]) == EXIT_OK
    assert surfaces == []


#: every config key but the output path, each set to one awkward value
SWEEP = [(key, value) for key in cli._CONFIG_KEYS if key != "out"
         for value in ("0", "-1", "1e-300", "1e300", "nan", "abc")]


@pytest.mark.parametrize("key, value", SWEEP,
                         ids=[f"{k}={v}" for k, v in SWEEP])
def test_config_sweep_never_exits_internal(tmp_path, key, value):
    """Property-style sweep: no single bad value reaches exit 3."""
    cfg = _write_config(tmp_path / "run.cfg", **{key: value})
    # compare overrides the pde grid, so the pde keys also run through pde
    for command in ("compare", "pde") if key.startswith("pde.") else (
            "compare",):
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) in (0, 1, 2)


#: (t_max, grid_step, solver.dt) of the variance path: fine steps, and
#: extents where dt ** j of a Taylor-summed step map overflows
PAIRS = [("1e-3", "1e-3", "1e-4"), ("1", "0.5", "1e-4"),
         ("1e100", "1e100", "1e99"), ("1e300", "1e300", "1e299"),
         ("1e100", "1e99", "1e98"), ("1e-300", "1e-300", "1e-300")]

#: runs whose closed-form covariance at t_max exceeds the double range
#: (P_ph about 1.7e499 at alpha 1e-142, t 1e300), though alpha^2 dt = 0.1
#: passes the stability bound: load rejects them, naming t_max
OUT_OF_RANGE = [("1e300", "1e300", "1e283", "1e-142")]

#: a run whose RK4 Var(X_ph) comes out negative: its rate cancels once p_at
#: has relaxed, and 1e17 relaxation times integrate RK4's rounding of it
#: past 0; integrate_covariance rejects it, naming t_max
RK4_NONPOSITIVE = [("1e37", "1e37", "1e19", "1e-10")]

#: (t_max, grid_step, solver.dt, alpha): every pair at alpha 0, 1e-100 and
#: 1, then two runs where a tiny alpha lets through a t whose cube
#: overflows while alpha ** 4 underflows, then the runs out of range and
#: the run whose RK4 variance comes out negative
VARIANCE_RUNS = [(*pair, alpha) for pair in PAIRS
                 for alpha in ("0", "1e-100", "1")] + [
    ("1e200", "1e200", "1e199", "1e-100"),
    ("1e237", "1e237", "1e219", "1e-110")] + OUT_OF_RANGE + RK4_NONPOSITIVE


def test_variances_at_subnormal_alpha_squared(tmp_path, capsys):
    # alpha^2 = 1e-320 is subnormal; at t = 1e300, u = alpha^2 t = 1e-20, so
    # both cubic covariances are -alpha^3 t^2 / 4 = -2.5e+119 to double
    # precision (the alpha = 0 limit wrote 0 for cov_pat_xph, and u formed
    # from alpha^2 wrote -2.49997216796e+119 for cov_xat_pph).  RK4 sums
    # its step map by degree in alpha, so its ode_ columns agree (from the
    # subnormal drift they read -2.49997216796e+119) and compare passes
    cfg = _write_config(tmp_path / "run.cfg", grid_step="1e300")
    for command in ("variances", "compare"):
        out = tmp_path / command
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--alpha", "1e-160", "--t-max", "1e300",
                         "--dt", "1e299", "--config", cfg,
                         "--out", str(out)])
        assert code == EXIT_OK, command
        printed = capsys.readouterr()
        assert printed.err == ""
        text = (out / "variances.csv").read_text()
        assert "nan" not in text and "inf" not in text
        header, _, last = text.splitlines()
        row = dict(zip(header.split(","), last.split(",")))
        assert row["t"] == "1e+300"
        for col in ("cov_pat_xph", "cov_xat_pph"):
            assert row[col] == row[f"ode_{col}"] == "-2.5e+119", command
    assert "PASS ode_vs_closed_form" in printed.out
    assert printed.out.endswith("result: OK\n")


@pytest.mark.parametrize("command", ["variances", "compare"])
@pytest.mark.parametrize("t_max, grid_step, solver_dt, alpha", VARIANCE_RUNS,
                         ids=["-".join(run) for run in VARIANCE_RUNS])
def test_variance_path_pair_sweep_never_exits_internal(
        tmp_path, capsys, command, alpha, t_max, grid_step, solver_dt):
    """Pairs of step and extent: a tiny alpha lets a huge solver.dt through
    the stability bound, and no run may reach exit 3; a variances run that
    exits 0 writes finite numbers only, and a run out of the double range
    (at load) or with a nonpositive RK4 variance exits 2, naming t_max,
    with no warning."""
    cfg = _write_config(tmp_path / "run.cfg", grid_step=grid_step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--alpha", alpha, "--t-max", t_max,
                     "--dt", solver_dt, "--config", cfg,
                     "--out", str(tmp_path / "out")])
    assert code in (0, 1, 2)
    if (t_max, grid_step, solver_dt, alpha) in OUT_OF_RANGE + RK4_NONPOSITIVE:
        assert code == EXIT_CONFIG
        assert "t_max" in capsys.readouterr().err
    if command == "variances" and code == EXIT_OK:
        text = (tmp_path / "out" / "variances.csv").read_text()
        assert "nan" not in text and "inf" not in text
