"""Correctness gates on the artifacts of one command run.

Each function takes the run's output directory and returns a list of
``(check name, passed, detail)``.  Tolerances are the package defaults of
``RunConfig`` written out here, so a change to the defaults cannot loosen
the gate.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

TOL_PDE_ABS = 5e-4
TOL_MOC_ABS = 1e-10
TOL_RESIDUAL = 1e-6


def _worst(values) -> float:
    """Largest value, with NaN counted as infinitely bad."""
    return max((math.inf if v != v else v for v in values), default=math.inf)


def compare(out: Path) -> list[tuple[str, bool, str]]:
    lines = (out / "compare_report.txt").read_text(encoding="utf-8").splitlines()
    failing = [ln for ln in lines[:-1] if not ln.startswith("PASS ")]
    ok = len(lines) > 1 and not failing and lines[-1] == "result: OK"
    return [("report_all_pass", ok,
             f"{len(lines) - 1} checks; not passing: {failing or lines[-1:]}")]


def pde(out: Path) -> list[tuple[str, bool, str]]:
    text = (out / "pde_summary.txt").read_text(encoding="utf-8")

    def worst(pattern: str) -> float:
        return _worst(float(v) for v in re.findall(pattern + r":\s*(\S+)", text))

    fd = worst(r"fd max abs error [FG]")
    moc = worst(r"moc max abs error")
    res = worst(r"closed-form residual max")
    return [("fd", fd < TOL_PDE_ABS, f"{fd:.3e} < {TOL_PDE_ABS:.0e}"),
            ("moc", moc < TOL_MOC_ABS, f"{moc:.3e} < {TOL_MOC_ABS:.0e}"),
            ("residual", res < TOL_RESIDUAL, f"{res:.3e} < {TOL_RESIDUAL:.0e}")]
