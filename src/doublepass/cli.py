"""Command-line entry point tying the computation routes together.

Commands:

* ``derive``    -- print the symbolic derivation transcript
* ``variances`` -- write the variance CSV (closed-form and ODE columns)
* ``pde``       -- write characteristic-function surfaces and a summary, and
  check the FD and MOC routes against the closed form
* ``oracle``    -- run the truncated-Fock oracle and write its CSV
* ``compare``   -- run every route at shared parameters and cross-check

Each command computes its outputs and does no I/O: it returns its
artifacts (file name -> text), its stdout text and its exit code, and
:func:`main` alone writes the files, then stdout.  A command that fails
(exit 2 or 3) writes nothing.

Configuration is a flat ``section.key = value`` text file with CLI-flag
overrides; unknown and repeated keys are rejected.  Exit codes: 0 success,
1 tolerance failure, 2 configuration error, 3 internal error.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import traceback
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import charfn, fock, gaussian
from .errors import ConfigError, step_count
from .ito import PAPER_FORMS, derivation_report, double_pass_derivation

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

#: largest accepted coupling.  The step bounds of the routes (RK4
#: dt <= 0.1/a^2, oracle a^2 dt <= 1e-2, the FD CFL limit) reject much
#: smaller values at practical steps; the cap keeps the powers of alpha in
#: the symbolic-coefficient evaluation finite (1e200 ** 2 overflows).
MAX_ALPHA = 1e6

#: k and l of the points where ``pde`` checks MOC and the residual
PROBE = (-2.0, -0.5, 0.0, 1.0, 2.5)

#: the published column, and so the field mode, each oracle phase measures
ORACLE_FIELD_COLUMN = {fock.PHASE_X: "var_x_ph_norm",
                       fock.PHASE_P: "var_p_ph_norm"}

#: what a command returns: its artifacts (file name -> text), its stdout
#: text and its exit code
Outputs = tuple[dict[str, str], str, int]

#: memory of one row of the variance or the oracle table at its peak, most
#: of it the Python floats and strings ``_table_csv`` makes per row.  Peak
#: RSS grew by 1.44 kB per row of ``variances`` (2e5 to 4e5 rows,
#: ``grid_step = solver.dt``, with RK4's and the closed form's (n, 4, 4)
#: stacks) and by 1.14 kB per row of ``oracle`` (2e4 to 8e4); rounded up
TABLE_ROW_BYTES = 1536

#: most multiply-adds an oracle run may take, counted as ``n_steps *
#: (n_traj * d_anc * d_at**2 + ORACLE_STEP_WORK)``: one step's outcome
#: amplitudes are one (d_anc d_at, d_at) @ (d_at, n_traj) product, at
#: 0.10-0.15 ns per multiply-add on one 2.1 GHz Xeon core, BLAS at one
#: thread (d_at 30 and 60, d_anc 3 and 6, n_traj 400-3000), so the bound is
#: about 20 min.  A step also costs a fixed 36 us, ORACLE_STEP_WORK at 0.12 ns
#: (pinned, n_traj 100, d_at 4, d_anc 2: atom loop 9-13 us, homodyne loop
#: 18-22 us, ``compare``'s vacuum control 6 us)
ORACLE_MAX_WORK = 10 ** 13
ORACLE_STEP_WORK = 3 * 10 ** 5

#: most point-steps an FD run may take, counted as ``2 (nk - nk // 2) nl
#: n_steps``: both families' k >= 0 rows (``nk // 2 + 1`` at odd nk) times
#: the steps.  A point-step took 3.0-3.1 ns on one 2.1 GHz Xeon core (the
#: default ``pde``, 40-row blocks, cache-line-aligned buffers, pinned), so
#: the bound is about 20 min
FD_MAX_POINT_STEPS = 4 * 10 ** 11


@dataclass(frozen=True)
class RunConfig:
    """All run parameters, flat; sections map to prefixed keys."""

    alpha: float = 1.0
    t_max: float = 1.0
    grid_step: float = 0.01
    out: str = "."
    solver_dt: float = 1e-4
    pde_t: float = 0.5
    pde_dt: float = 4e-4
    pde_l_max: float = 8.0
    pde_dl: float = 0.02
    pde_k_max: float = 8.0
    pde_dk: float = 0.02
    oracle_dt: float = 1e-3
    oracle_t_max: float = 0.5
    oracle_d_at: int = 30
    oracle_d_anc: int = 3
    oracle_n_traj: int = 400
    oracle_seed: int = 12345
    oracle_phase: str = fock.PHASE_X
    tol_ode_rel: float = 1e-8
    tol_pde_abs: float = 5e-4
    tol_moc_abs: float = 1e-10
    tol_residual: float = 1e-6
    tol_oracle_rel: float = 0.02
    tol_oracle_sigma: float = 5.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", self.alpha + 0.0)  # -0.0 is 0

    def validate(self) -> None:
        # every float parameter is finite; alpha >= 0 and the others > 0
        for f in fields(self):
            if type(f.default) is not float:
                continue
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigError(
                    f"parameter {_config_key(f.name)} must be finite")
            if value < 0 or (f.name != "alpha" and value == 0):
                raise ConfigError(
                    f"parameter {_config_key(f.name)} must be positive")
        if self.alpha > MAX_ALPHA:
            raise ConfigError(f"alpha must not exceed {MAX_ALPHA:.0e}")
        if self.pde_t < charfn.RESIDUAL_H:
            raise ConfigError(
                f"parameter pde.t must be at least {charfn.RESIDUAL_H:.0e},"
                " the step of the residual check's time stencil")
        # the covariances grow with t, so the variance path's closed form is
        # finite at every row if it is at t_max; beyond the double range it
        # would write inf and nan, and RK4's powered step map overflows
        with np.errstate(all="ignore"):
            cov = gaussian.closed_form_covariances(self.alpha, self.t_max)
        if not all(math.isfinite(cov[gaussian.mode_index(r),
                                     gaussian.mode_index(c)])
                   for r, c in gaussian.PUBLISHED.values()):
            raise ConfigError(
                f"parameter t_max = {self.t_max:.6g}: the closed-form"
                f" covariances at alpha = {self.alpha:.6g} exceed the double"
                " range; reduce t_max")
        # the route configs check their sections, and pde.dt must divide
        # pde.t; at alpha = 0 the oracle's step bound on alpha^2 * oracle.dt
        # waits for its run, as the CFL does
        grid = self.section(charfn.GridSpec)
        step_count(self.pde_t, self.pde_dt, "pde.dt", "pde.t")
        oracle = self.section(fock.OracleConfig, alpha=0.0)
        # pre-flight, in Python numbers, which cannot overflow: the oracle's
        # work, bounded whatever the machine, then no one array of a route
        # may exceed physical memory; FD's work waits for the grid it steps
        # (pde_outputs), which compare sets itself
        work = oracle.n_steps * (oracle.n_traj * oracle.d_anc
                                 * oracle.d_at ** 2 + ORACLE_STEP_WORK)
        if work > ORACLE_MAX_WORK:
            raise ConfigError(
                "oracle.dt, oracle.t_max, oracle.n_traj, oracle.d_at,"
                f" oracle.d_anc: the oracle would take {work:.3g}"
                f" multiply-adds, more than the {ORACLE_MAX_WORK:.0e}"
                " (about 20 min on one core) a run may take")
        # bytes: the rows of both tables (the variance tables' at most one per
        # solver.dt), one FD surface and the oracle's joint-space operator
        rows = (min(self.t_max / self.solver_dt, self.t_max / self.grid_step)
                + 1 + _oracle_samples(self, oracle))
        nk, nl = grid.shape
        joint = oracle.d_at * oracle.d_anc
        memory = _physical_memory()
        for keys, array, size in (
                ("solver.dt, grid_step, oracle.dt", "variance and oracle"
                 " tables", rows * TABLE_ROW_BYTES),
                ("pde.l_max, pde.dl, pde.k_max, pde.dk", "FD surface",
                 nk * nl * 8),
                ("oracle.d_at, oracle.d_anc", "oracle's joint-space operator",
                 joint * joint * 16)):
            if size > memory:
                raise ConfigError(
                    f"{keys}: the {array} would take {size / 2 ** 30:.3g}"
                    f" GiB, more than the {memory / 2 ** 30:.3g} GiB of"
                    " physical memory")

    def section(self, route: type, **given):
        """``route`` with each field not ``given`` read from its section.

        A field reads the key of its name: ``pde.`` for ``charfn.GridSpec``,
        ``oracle.`` for ``fock.OracleConfig``, but the top-level ``alpha``.
        """
        prefix = _ROUTE_SECTIONS[route]
        values = {f.name: getattr(self, f.name if f.name == "alpha"
                                  else prefix + f.name)
                  for f in fields(route) if f.name not in given}
        return route(**values, **given)

    def scaled_tolerances(self, scale: float) -> "RunConfig":
        updates = {f.name: getattr(self, f.name) * scale
                   for f in fields(self) if f.name.startswith("tol_")}
        return replace(self, **updates)


#: field-name prefix -> config-file section; other fields are top-level keys
_SECTIONS = {"solver_": "solver.", "pde_": "pde.", "oracle_": "oracle.",
             "tol_": "tolerance."}

#: route config -> field-name prefix of its section
_ROUTE_SECTIONS = {charfn.GridSpec: "pde_", fock.OracleConfig: "oracle_"}


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _config_key(name: str) -> str:
    for prefix, section in _SECTIONS.items():
        if name.startswith(prefix):
            return section + name[len(prefix):]
    return name


# config-file key -> (attribute, parser)
_CONFIG_KEYS = {_config_key(f.name): (f.name, type(f.default))
                for f in fields(RunConfig)}


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Parse a flat ``section.key = value`` file.

    Unknown keys and keys given twice are rejected.
    """
    updates: dict[str, object] = {}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already given"
                              f" on line {first_line[key]}")
        first_line[key] = lineno
        attr, cast = _CONFIG_KEYS[key]
        try:
            updates[attr] = cast(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return updates


def load_config(args: argparse.Namespace) -> RunConfig:
    updates: dict[str, object] = {}
    if args.config:
        updates.update(parse_config_file(args.config))
    # each flag's dest is the RunConfig field it overrides
    updates.update((f.name, getattr(args, f.name)) for f in fields(RunConfig)
                   if getattr(args, f.name, None) is not None)
    cfg = RunConfig(**updates)  # type: ignore[arg-type]
    if args.tolerance_scale is not None:
        if args.tolerance_scale <= 0:
            raise ConfigError("--tolerance-scale must be positive")
        cfg = cfg.scaled_tolerances(args.tolerance_scale)
    cfg.validate()
    _check_out_dir(cfg.out)
    return cfg


def _check_out_dir(out: str) -> None:
    """Reject an output path that is, or sits under, an existing non-directory.

    A path the system cannot look up (a name too long, say) is rejected too.
    """
    path = Path(out)
    for part in (path, *path.parents):
        try:
            found = part.exists()
        except OSError as exc:
            raise ConfigError(
                f"output path {out}: {exc.strerror or exc}") from exc
        if found:
            if not part.is_dir():
                raise ConfigError(
                    f"output path {out}: {part} is not a directory")
            return


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_derive(cfg: RunConfig) -> Outputs:
    report = derivation_report()
    return {"derivation.txt": report}, report, EXIT_OK


def _variance_tables(cfg: RunConfig) -> tuple[dict[str, np.ndarray],
                                                dict[str, np.ndarray], float]:
    """The closed-form and the RK4 variance tables on the grid_step grid,
    and RK4's cross-sector maximum."""
    ode = gaussian.build_moment_odes(cfg.alpha)
    traj = gaussian.integrate_covariance(ode, cfg.t_max, cfg.solver_dt,
                                         cfg.grid_step)
    closed = gaussian.closed_form_covariances(cfg.alpha, traj.times)
    return (gaussian.variance_table(traj.times, closed),
            gaussian.variance_table(traj.times, traj.covs),
            traj.cross_sector)


def _table_csv(table: dict[str, np.ndarray], extra: dict[str, list]) -> str:
    """CSV of the :data:`gaussian.CSV_COLUMNS` of ``table``, then each
    ``extra`` column under its own name: a header, one line per row, each
    value ``%.12g`` (adding +0.0 writes -0.0 as 0, and keeps NaN and inf)."""
    columns = {**{c: table[c] for c in gaussian.CSV_COLUMNS}, **extra}
    row = ",".join(["%.12g"] * len(columns))
    lines = [row % values for values in
             zip(*(np.add(col, 0.0).tolist() for col in columns.values()))]
    return "\n".join([",".join(columns), *lines]) + "\n"


def _check(name: str, what: str, value: float,
           limit: float | None = None) -> tuple[bool, str]:
    """The one gate: ``(passed, line)``; passes when ``value < limit``, so
    NaN fails, and the line shows value, limit and margin value/limit.
    Exact without a limit: passes when ``value``, the differences, is 0.
    """
    if limit is None:
        ok, detail = value == 0, what
    else:
        ok = value < limit
        margin = value / limit if limit else math.nan
        detail = f"{what} {value:.3e} (limit {limit:.3e}, margin {margin:.3g})"
    return ok, f"{'PASS' if ok else 'FAIL'} {name}: {detail}"


def _report(checks: list[tuple[bool, str]]) -> tuple[str, int]:
    """The check lines and the ``result:`` line; exit 1 if a check failed."""
    all_ok = all(ok for ok, _ in checks)
    lines = [line for _, line in checks]
    lines.append(f"result: {'OK' if all_ok else 'TOLERANCE FAILURE'}")
    return "\n".join(lines) + "\n", EXIT_OK if all_ok else EXIT_TOLERANCE


def variances_csv(closed: dict[str, np.ndarray],
                  ode: dict[str, np.ndarray]) -> str:
    """The closed-form variance table plus ode_* columns from the RK4 one."""
    return _table_csv(closed, {f"ode_{c}": ode[c] for c in gaussian.PUBLISHED})


def cmd_variances(cfg: RunConfig) -> Outputs:
    closed, ode, _ = _variance_tables(cfg)
    return {"variances.csv": variances_csv(closed, ode)}, "", EXIT_OK


def pde_outputs(cfg: RunConfig) -> tuple[dict[str, str], list]:
    """Artifacts and the MOC, FD, residual checks: the surface CSVs, then a
    deterministic summary as ``pde_summary.txt``.

    The summary ends with the FD health numbers of each family: the CFL
    number and the largest boundary value the leak monitor saw.  Before FD
    steps, a run of more than :data:`FD_MAX_POINT_STEPS` point-steps on
    ``cfg``'s grid is a :class:`ConfigError`.
    """
    grid = cfg.section(charfn.GridSpec)
    nk, nl = grid.shape
    steps = step_count(cfg.pde_t, cfg.pde_dt, "pde.dt", "pde.t")
    point_steps = 2 * (nk - nk // 2) * nl * steps
    if point_steps > FD_MAX_POINT_STEPS:
        raise ConfigError(
            "pde.l_max, pde.dl, pde.k_max, pde.dk, pde.t, pde.dt: FD would"
            f" take {point_steps:.3g} point-steps, more than the"
            f" {FD_MAX_POINT_STEPS:.0e} (about 20 min on one core) a run"
            " may take")
    artifacts: dict[str, str] = {}
    summary = [f"pde summary: alpha={cfg.alpha:.12g} t={cfg.pde_t:.12g}"]
    health = []
    # the k >= 0 rows a surface holds; the closed form is even bit for bit
    mesh = np.meshgrid(grid.k_values()[nk // 2:],
                       grid.l_values(), indexing="ij")
    # MOC is the scalar route, one point at a time; the closed form and
    # the residual take the probe points as arrays
    kk, ll = (a.ravel() for a in np.meshgrid(PROBE, PROBE, indexing="ij"))
    fd_errors, moc_errors, residuals = [], [], []
    for surf in charfn.fd_solve((charfn.FAMILY_F, charfn.FAMILY_G),
                                cfg.alpha, grid, cfg.pde_t, cfg.pde_dt):
        family = surf.family
        closed = partial(charfn.closed_form_char, family, cfg.alpha)
        err = np.abs(surf.values - closed(cfg.pde_t, *mesh)).max()
        fd_errors.append(err)
        summary.append(f"fd max abs error {family}: {err:.6e}")
        health.append(f"fd cfl {family}: {surf.cfl:.6e}")
        health.append(f"fd boundary max {family}: {surf.boundary_max:.6e}")
        buf = io.StringIO()
        surf.to_csv(buf)
        artifacts[f"surface_{family}.csv"] = buf.getvalue()
        moc = [charfn.moc_solve(family, cfg.alpha, cfg.pde_t, k, l)
               for k, l in zip(kk.tolist(), ll.tolist())]
        moc_errors.append(np.abs(np.subtract(moc, closed(cfg.pde_t, kk, ll))))
        residuals.append(np.abs(charfn.pde_residual(
            family, cfg.alpha, closed, cfg.pde_t, kk, ll)))
    fd_worst, moc_worst, res_worst = (np.max(np.hstack(errors)) for errors in
                                      (fd_errors, moc_errors, residuals))
    summary.append(f"moc max abs error: {moc_worst:.6e}")
    summary.append(f"closed-form residual max: {res_worst:.6e}")
    summary.extend(health)
    artifacts["pde_summary.txt"] = "\n".join(summary) + "\n"
    checks = [
        _check("moc_vs_closed_form", "max abs err", moc_worst, cfg.tol_moc_abs),
        _check("fd_vs_closed_form", "max abs err", fd_worst, cfg.tol_pde_abs),
        _check("closed_form_residual", "max residual", res_worst,
               cfg.tol_residual)]
    return artifacts, checks


def cmd_pde(cfg: RunConfig) -> Outputs:
    artifacts, checks = pde_outputs(cfg)
    report, code = _report(checks)
    return artifacts, artifacts["pde_summary.txt"] + report, code


def _oracle_samples(cfg: RunConfig, ocfg: fock.OracleConfig) -> int:
    """Samples of the oracle runs, and rows of their table: one per
    grid_step, at most one per step (the cap keeps the count finite)."""
    return max(1, round(min(ocfg.t_max / cfg.grid_step, ocfg.n_steps)))


def _oracle_runs(cfg: RunConfig) -> tuple[fock.AtomMomentSeries,
                                          fock.TrajectoryStats]:
    """The configured oracle's atom moments and homodyne statistics."""
    ocfg = cfg.section(fock.OracleConfig)
    n_samples = _oracle_samples(cfg, ocfg)
    return (fock.simulate_atom_moments(ocfg, n_samples),
            fock.homodyne_series(ocfg, n_samples))


def oracle_csv(cfg: RunConfig, atoms: fock.AtomMomentSeries,
               stats: fock.TrajectoryStats) -> str:
    """Oracle results in the shared schema plus stderr_* and n_traj columns.

    Atomic columns come from the deterministic trace route; the normalized
    field variance for the configured phase comes from the homodyne record
    (Var(y)/2 normalized by t).  Entries the oracle does not measure are nan.
    """
    covs = np.full((len(stats.step), 4, 4), math.nan)
    x, p = (gaussian.mode_index(mode) for mode in ("x_at", "p_at"))
    covs[:, x, x], covs[:, p, p] = atoms.var_x, atoms.var_p
    table = gaussian.variance_table(stats.time, covs)
    table[ORACLE_FIELD_COLUMN[cfg.oracle_phase]] = (
        stats.variance / 2.0 / stats.time)
    return _table_csv(table, {
        "stderr_var_field_norm": stats.stderr_var / 2.0 / stats.time,
        "stderr_mean_record": stats.stderr_mean,
        "n_traj": [stats.n] * len(stats.step),
    })


def cmd_oracle(cfg: RunConfig) -> Outputs:
    atoms, stats = _oracle_runs(cfg)
    return {"oracle.csv": oracle_csv(cfg, atoms, stats)}, "", EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(cfg: RunConfig) -> Outputs:
    artifacts: dict[str, str] = {}

    # 1-3. series product, I/O relations, transport coefficients, exact
    derived = double_pass_derivation()
    details = {
        "series_product": f"L={derived.system.L}; H={derived.system.H}",
        "io_relations": "; ".join(rel.pretty() for rel in derived.io.all()),
        "char_fn_generator": " | ".join(
            f"{family}: c0={pde.c0}; c1={pde.c1}"
            for family, pde in derived.transport.items()),
    }
    forms = derived.forms()
    checks = [_check(name, details[name], int(forms[name] != expected))
              for name, expected in PAPER_FORMS.items()]

    # 4. ODE route vs closed form, on every row of variances.csv
    closed, ode, cross = _variance_tables(cfg)
    worst = np.max(gaussian.relative_error(
        [ode[col] for col in gaussian.PUBLISHED],
        [closed[col] for col in gaussian.PUBLISHED]))
    checks.append(_check("ode_vs_closed_form",
                         f"cross-sector {cross:.3e}, max rel err", worst,
                         cfg.tol_ode_rel))
    artifacts["variances.csv"] = variances_csv(closed, ode)

    # 5-7. PDE routes
    pde_cfg = replace(cfg, pde_k_max=2.0, pde_dk=1.0, pde_l_max=10.0)
    pde_artifacts, pde_checks = pde_outputs(pde_cfg)
    artifacts.update(pde_artifacts)
    checks.extend(pde_checks)

    # 8. oracle, atomic moments (deterministic budget)
    atoms, series = _oracle_runs(cfg)
    cov = gaussian.closed_form_covariances(cfg.alpha, cfg.oracle_t_max)
    p, x = (gaussian.mode_index(m) for m in ("p_at", "x_at"))
    rel_p = gaussian.relative_error(atoms.var_p[-1], cov[p, p])
    rel_x = gaussian.relative_error(atoms.var_x[-1], cov[x, x])
    checks.append(_check("oracle_atom_moments",
                         f"rel err p {rel_p:.3e}, x {rel_x:.3e}, max",
                         np.max([rel_p, rel_x]), cfg.tol_oracle_rel))

    # 9. oracle, homodyne variance (statistical budget), at the final time
    mode, _ = gaussian.PUBLISHED[ORACLE_FIELD_COLUMN[cfg.oracle_phase]]
    field = gaussian.mode_index(mode)
    ref = cov[field, field]
    checks.append(_check("oracle_homodyne",
                         f"|Var(y)/2 - sigma2| (n={series.n})",
                         abs(series.variance[-1] / 2.0 - ref),
                         cfg.tol_oracle_sigma * series.stderr_var[-1] / 2.0))
    artifacts["oracle.csv"] = oracle_csv(cfg, atoms, series)

    # 10. alpha = 0 homodyne control
    c0 = cfg.section(fock.OracleConfig, alpha=0.0, seed=cfg.oracle_seed + 1)
    st0 = fock.homodyne_monte_carlo(c0)
    checks.append(_check("oracle_vacuum_control", "|Var(y) - t|",
                         abs(st0.variance[-1] - c0.t_max),
                         cfg.tol_oracle_sigma * st0.stderr_var[-1]))
    report, code = _report(checks)
    artifacts["derivation.txt"] = derivation_report()
    artifacts["compare_report.txt"] = report
    return artifacts, report, code


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublepass",
        description="Double-pass atom-field model: symbolic derivations and "
                    "cross-checked numerical routes.")
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--alpha", type=float, default=None,
                        help="coupling strength")
    parser.add_argument("--t-max", type=float, default=None,
                        help="final time for the variance routes")
    parser.add_argument("--dt", type=float, default=None, dest="solver_dt",
                        help="moment-ODE integrator step")
    parser.add_argument("--seed", type=int, default=None, dest="oracle_seed",
                        help="Monte Carlo base seed")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory")
    parser.add_argument("--config", type=str, default=None,
                        help="flat key = value configuration file")
    parser.add_argument("--tolerance-scale", type=float, default=None,
                        help="multiply all comparison tolerances")
    return parser


_COMMANDS = {
    "derive": cmd_derive,
    "variances": cmd_variances,
    "pde": cmd_pde,
    "oracle": cmd_oracle,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = load_config(args)
        artifacts, stdout, code = _COMMANDS[args.command](cfg)
        for name, text in artifacts.items():
            _write_text(Path(cfg.out) / name, text)
        sys.stdout.write(stdout)
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
