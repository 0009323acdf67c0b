"""In-memory span tracing of the doublepass layer modules, from outside.

``install`` replaces every public function of each layer module (and the
methods named in ``METHODS``) with a wrapper that records one span per call:
``[name, parent_index, start, end, error, work]``.  The wrapper is put into
every namespace of the package that holds the original object, including
module-level dict tables such as the CLI's command table, because modules
bind some names at import (``cli`` holds ``derivation_report``, ``charfn``
holds ``char_fn_generator``).  ``scalars`` and ``weyl`` are not wrapped:
they are reached only through ``ito`` and their time is part of its self
time.

``summarize`` turns the spans into per-function and per-layer numbers.
Nothing here imports doublepass; the child process passes the modules in.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("ito", "gaussian", "charfn", "fock", "cli")
METHODS = {"charfn": ("CharSurface.to_csv",)}


def _fd_point_steps(a):
    grid = a["grid"]
    return len(grid.k_values()) * len(grid.l_values()) * round(a["t"] / a["dt"])


def _oracle_traj_steps(a):
    cfg = a["config"]
    return cfg.n_traj * cfg.n_steps


# wrapped name -> (work metric, count from the bound call arguments, delta).
# A delta counter is evaluated before and after the call and reports the
# difference (bytes a stream advanced); the others read the arguments once.
WORK = {
    "charfn.fd_solve": ("point_steps", _fd_point_steps, False),
    "charfn.CharSurface.to_csv": (
        "bytes", lambda a: a["stream"].tell(), True),
    "fock.homodyne_monte_carlo": ("traj_steps", _oracle_traj_steps, False),
    "fock.homodyne_series": ("traj_steps", _oracle_traj_steps, False),
    "fock.simulate_atom_moments": (
        "steps", lambda a: a["config"].n_steps, False),
    "gaussian.integrate_covariance": (
        "steps", lambda a: round(a["t_max"] / a["dt"]), False),
}


class Recorder:
    """Holds the spans of one process; nothing is written until dumped."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.names: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            args_map = before = None
            try:
                if work:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    args_map = bound.arguments
                    if work[2]:
                        before = work[1](args_map)
                result = fn(*args, **kwargs)
                if work:
                    count = work[1](args_map)
                    span[5] = count - before if work[2] else count
                return result
            except BaseException:
                span[4] = 1
                raise
            finally:
                span[3] = clock()
                stack.pop()

        return traced


def _replace_everywhere(modules, original, wrapped) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapped


def install(package_modules: dict) -> Recorder:
    """Wrap the layer functions; ``package_modules`` maps module name -> module.

    Only functions defined in a layer module are wrapped (not names it
    imports), so each function has exactly one span name.
    """
    recorder = Recorder()
    modules = list(package_modules.values())
    for layer in LAYERS:
        mod = package_modules[f"doublepass.{layer}"]
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            _replace_everywhere(modules, obj,
                                recorder.wrap(f"{layer}.{name}", obj))
        for qualname in METHODS.get(layer, ()):
            cls_name, meth = qualname.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth,
                    recorder.wrap(f"{layer}.{qualname}", getattr(cls, meth)))
    return recorder


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per-function calls, total_s, self_s, errors and work count.

    self_s is a span's duration minus the durations of its direct child
    spans; total_s counts only spans with no enclosing span of the same name,
    so recursion is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    for i, (name, parent, start, end, error, work) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "errors": 0, "work": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        row["errors"] += error
        row["work"] += work
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            row["total_s"] += end - start
    return table
