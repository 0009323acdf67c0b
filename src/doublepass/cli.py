"""Command-line entry point tying the computation routes together.

Commands:

* ``derive``    -- print the symbolic derivation transcript
* ``variances`` -- write the variance CSV (closed-form and ODE columns)
* ``pde``       -- write characteristic-function surfaces and a summary, and
  check the FD and MOC routes against the closed form
* ``oracle``    -- run the truncated-Fock oracle and write its CSV
* ``compare``   -- run every route at shared parameters and cross-check

Configuration is a flat ``section.key = value`` text file with CLI-flag
overrides; unknown and repeated keys are rejected.  Exit codes: 0 success,
1 tolerance failure, 2 configuration error, 3 internal error.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
import traceback
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import charfn, fock, gaussian
from .errors import ConfigError, step_count
from .ito import (FAMILY_F, FAMILY_G, PAPER_FORMS, derivation_report,
                  double_pass_derivation)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

#: largest accepted coupling.  The step bounds of the routes (RK4
#: dt <= 0.1/a^2, oracle a^2 dt <= 1e-2, the FD CFL limit) reject much
#: smaller values at practical steps; the cap keeps the powers of alpha in
#: the symbolic-coefficient evaluation finite (1e200 ** 2 overflows).
MAX_ALPHA = 1e6


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
        # the route configs check their sections; at alpha = 0 the oracle's
        # step bound on alpha^2 * oracle.dt waits for its run, as the CFL does
        self.section(charfn.GridSpec)
        self.section(fock.OracleConfig, alpha=0.0)

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


def _fmt(value: float) -> str:
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return f"{value:.12g}"


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


def cmd_derive(cfg: RunConfig) -> int:
    report = derivation_report()
    _write_text(Path(cfg.out) / "derivation.txt", report)
    sys.stdout.write(report)
    return EXIT_OK


def _time_grid(cfg: RunConfig) -> np.ndarray:
    n = step_count(cfg.t_max, cfg.grid_step, "grid_step", "t_max")
    return np.arange(n + 1) * cfg.grid_step


def _variance_tables(cfg: RunConfig) -> tuple[dict[str, np.ndarray],
                                                dict[str, np.ndarray]]:
    """The closed-form and the RK4 variance tables on the grid_step grid."""
    ode = gaussian.build_moment_odes(cfg.alpha)
    traj = gaussian.integrate_covariance(ode, cfg.t_max, cfg.solver_dt)
    times = _time_grid(cfg)
    stride = step_count(cfg.grid_step, cfg.solver_dt, "solver.dt", "grid_step",
                        atol=1e-9 * cfg.grid_step)
    return (gaussian.closed_form_table(cfg.alpha, times),
            gaussian.variance_table(
                times, traj.covs[np.arange(len(times)) * stride]))


def _csv_lines(columns: list) -> list[str]:
    """One formatted CSV line per row of equally long columns."""
    return [",".join(map(_fmt, row))
            for row in zip(*(np.asarray(col).tolist() for col in columns))]


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
    header = ",".join(gaussian.CSV_COLUMNS
                      + tuple(f"ode_{c}" for c in gaussian.PUBLISHED))
    lines = _csv_lines([closed[c] for c in gaussian.CSV_COLUMNS]
                       + [ode[c] for c in gaussian.PUBLISHED])
    return "\n".join([header, *lines]) + "\n"


def cmd_variances(cfg: RunConfig) -> int:
    _write_text(Path(cfg.out) / "variances.csv",
                variances_csv(*_variance_tables(cfg)))
    return EXIT_OK


def pde_outputs(cfg: RunConfig) -> tuple[dict[str, str], str, list]:
    """Surface CSVs, a deterministic summary and the MOC, FD, residual checks.

    The summary ends with the FD health numbers of each family: the CFL
    number and the largest boundary value the leak monitor saw.
    """
    grid = cfg.section(charfn.GridSpec)
    surfaces: dict[str, str] = {}
    fd_errors = []
    summary = [f"pde summary: alpha={_fmt(cfg.alpha)} t={_fmt(cfg.pde_t)}"]
    health = []
    for family in (charfn.FAMILY_F, charfn.FAMILY_G):
        surf = charfn.fd_solve(family, cfg.alpha, grid, cfg.pde_t, cfg.pde_dt)
        health.append(f"fd cfl {family}: {surf.cfl:.6e}")
        health.append(f"fd boundary max {family}: {surf.boundary_max:.6e}")
        ref = charfn.closed_form_surface(family, cfg.alpha, cfg.pde_t, grid)
        err = float(np.abs(surf.values - ref.values).max())
        fd_errors.append(err)
        buf = io.StringIO()
        surf.to_csv(buf)
        surfaces[f"surface_{family}.csv"] = buf.getvalue()
        summary.append(f"fd max abs error {family}: {err:.6e}")
    moc_errors, residuals = [], []
    probe = [-2.0, -0.5, 0.0, 1.0, 2.5]
    for family in (charfn.FAMILY_F, charfn.FAMILY_G):
        for k in probe:
            for l in probe:
                m = charfn.moc_solve(family, cfg.alpha, cfg.pde_t, k, l)
                c = charfn.closed_form_char(family, cfg.alpha, cfg.pde_t, k, l)
                moc_errors.append(abs(m - c))
                res = charfn.pde_residual(
                    family, cfg.alpha,
                    lambda tt, kk, ll, fam=family: charfn.closed_form_char(
                        fam, cfg.alpha, tt, kk, ll),
                    cfg.pde_t, k, l)
                residuals.append(abs(res))
    fd_worst, moc_worst, res_worst = map(np.max,
                                         (fd_errors, moc_errors, residuals))
    summary.append(f"moc max abs error: {moc_worst:.6e}")
    summary.append(f"closed-form residual max: {res_worst:.6e}")
    summary.extend(health)
    checks = [
        _check("moc_vs_closed_form", "max abs err", moc_worst, cfg.tol_moc_abs),
        _check("fd_vs_closed_form", "max abs err", fd_worst, cfg.tol_pde_abs),
        _check("closed_form_residual", "max residual", res_worst,
               cfg.tol_residual)]
    return surfaces, "\n".join(summary) + "\n", checks


def cmd_pde(cfg: RunConfig) -> int:
    surfaces, summary, checks = pde_outputs(cfg)
    out = Path(cfg.out)
    for name, text in {**surfaces, "pde_summary.txt": summary}.items():
        _write_text(out / name, text)
    report, code = _report(checks)
    sys.stdout.write(summary + report)
    return code


def _oracle_runs(cfg: RunConfig) -> tuple[fock.OracleConfig,
                                          fock.AtomMomentSeries,
                                          list[fock.TrajectoryStats]]:
    """The configured oracle: one atom-moment run, one homodyne series."""
    ocfg = cfg.section(fock.OracleConfig)
    atoms = fock.simulate_atom_moments(ocfg)
    # a grid_step at or below oracle.dt samples every step; the cap keeps a
    # tiny grid_step from overflowing the count
    n_samples = max(1, round(min(ocfg.t_max / cfg.grid_step, ocfg.n_steps)))
    return ocfg, atoms, fock.homodyne_series(ocfg, n_samples)


def oracle_csv(cfg: RunConfig, atoms: fock.AtomMomentSeries,
               stats: list[fock.TrajectoryStats]) -> str:
    """Oracle results in the shared schema plus stderr_* and n_traj columns.

    Atomic columns come from the deterministic trace route; the normalized
    field variance for the configured phase comes from the homodyne record
    (Var(y)/2 normalized by t).  Entries the oracle does not measure are nan.
    """
    idx = [round(st.time / cfg.oracle_dt) for st in stats]
    covs = np.full((len(stats), 4, 4), math.nan)
    for mode, series in (("x_at", atoms.var_x), ("p_at", atoms.var_p)):
        i = gaussian.mode_index(mode)
        covs[:, i, i] = series[idx]
    table = gaussian.variance_table([st.time for st in stats], covs)
    field_col = ("var_x_ph_norm" if cfg.oracle_phase == fock.PHASE_X
                 else "var_p_ph_norm")
    table[field_col] = [st.variance / 2.0 / st.time for st in stats]
    extra = {
        "stderr_var_field_norm": [st.stderr_var / 2.0 / st.time
                                  for st in stats],
        "stderr_mean_record": [st.stderr_mean for st in stats],
        "n_traj": [st.n for st in stats],
    }
    header = ",".join(gaussian.CSV_COLUMNS + tuple(extra))
    lines = _csv_lines([table[c] for c in gaussian.CSV_COLUMNS]
                       + list(extra.values()))
    return "\n".join([header, *lines]) + "\n"


def cmd_oracle(cfg: RunConfig) -> int:
    _, atoms, stats = _oracle_runs(cfg)
    _write_text(Path(cfg.out) / "oracle.csv", oracle_csv(cfg, atoms, stats))
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _compare_checks(cfg: RunConfig) -> tuple[list[tuple[bool, str]],
                                             dict[str, str]]:
    artifacts: dict[str, str] = {}

    # 1-3. series product, I/O relations, transport coefficients, exact
    derived = double_pass_derivation()
    pde_f, pde_g = derived.transport[FAMILY_F], derived.transport[FAMILY_G]
    details = {
        "series_product": f"L={derived.system.L}; H={derived.system.H}",
        "io_relations": "; ".join(rel.pretty() for rel in derived.io.all()),
        "char_fn_generator": f"F: c0={pde_f.c0}; c1={pde_f.c1} | "
                             f"G: c0={pde_g.c0}; c1={pde_g.c1}",
    }
    forms = derived.forms()
    checks = [_check(name, details[name], int(forms[name] != expected))
              for name, expected in PAPER_FORMS.items()]

    # 4. ODE route vs closed form, on every row of variances.csv
    closed, ode = _variance_tables(cfg)
    worst = np.max([gaussian.relative_error(value, ref)
                    for col in gaussian.PUBLISHED
                    for value, ref in zip(ode[col].tolist(),
                                          closed[col].tolist())])
    checks.append(_check("ode_vs_closed_form", "max rel err", worst,
                         cfg.tol_ode_rel))
    artifacts["variances.csv"] = variances_csv(closed, ode)

    # 5-7. PDE routes
    pde_cfg = replace(cfg, pde_k_max=2.0, pde_dk=1.0, pde_l_max=10.0)
    surfaces, summary, pde_checks = pde_outputs(pde_cfg)
    artifacts.update(surfaces)
    artifacts["pde_summary.txt"] = summary
    checks.extend(pde_checks)

    # 8. oracle, atomic moments (deterministic budget)
    ocfg, atoms, series = _oracle_runs(cfg)
    closed = gaussian.closed_form_covariances(ocfg.alpha, ocfg.t_max)
    rel_p = gaussian.relative_error(atoms.var_p[-1],
                                    closed.entry("p_at", "p_at"))
    rel_x = gaussian.relative_error(atoms.var_x[-1],
                                    closed.entry("x_at", "x_at"))
    checks.append(_check("oracle_atom_moments",
                         f"rel err p {rel_p:.3e}, x {rel_x:.3e}, max",
                         np.max([rel_p, rel_x]), cfg.tol_oracle_rel))

    # 9. oracle, homodyne variance (statistical budget), at the final time
    st = series[-1]
    field = ("X_ph" if ocfg.phase == fock.PHASE_X else "P_ph")
    ref = closed.entry(field, field)
    checks.append(_check("oracle_homodyne",
                         f"|Var(y)/2 - sigma2| (n={st.n})",
                         abs(st.variance / 2.0 - ref),
                         cfg.tol_oracle_sigma * st.stderr_var / 2.0))
    artifacts["oracle.csv"] = oracle_csv(cfg, atoms, series)

    # 10. alpha = 0 homodyne control
    c0 = cfg.section(fock.OracleConfig, alpha=0.0, seed=cfg.oracle_seed + 1)
    st0 = fock.homodyne_monte_carlo(c0)
    checks.append(_check("oracle_vacuum_control", "|Var(y) - t|",
                         abs(st0.variance - c0.t_max),
                         cfg.tol_oracle_sigma * st0.stderr_var))
    return checks, artifacts


def cmd_compare(cfg: RunConfig) -> int:
    checks, artifacts = _compare_checks(cfg)
    report, code = _report(checks)
    artifacts["derivation.txt"] = derivation_report()
    artifacts["compare_report.txt"] = report
    out = Path(cfg.out)
    for name, text in artifacts.items():
        _write_text(out / name, text)
    sys.stdout.write(report)
    return code


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublepass",
        description="Double-pass atom-field model: symbolic derivations and "
                    "cross-checked numerical routes.")
    parser.add_argument("command",
                        choices=["derive", "variances", "pde", "oracle",
                                 "compare"])
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
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
