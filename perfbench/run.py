"""Benchmark of the doublepass command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command run is a fresh interpreter (``perfbench/child.py``) started from
this one process, with ``src`` on PYTHONPATH and OpenBLAS/OpenMP pinned to
one thread; runs follow one another (a closed loop with one client).  The
loop repeats the workload's command for ``--seconds`` and reports the mean
``wall_s`` and the median of every other end-to-end metric over the runs.
Every run's artifacts are checked for correctness and hashed; two runs with
the same seed must produce byte-identical artifacts.

On a shared 2-core VM (Xeon, 2.1 GHz) the speed of a pure-Python loop swings
by up to a factor of two within seconds as other tenants load the host, at
times in two modes, fast and slow, that last tens of seconds each.  Over
sets of 17-60 s windows, the mean wall time of a window's runs spread less
than its median or its quartiles, in each of the modes seen (README.md).

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics: the traced runs wrap each layer's public functions (see
``tracer.py``), and the difference of the two mean wall times is the tracing
overhead.  The last line of standard output is the JSON result; the line
before it is the environment record.  A full record of every run (artifact
hashes, checks, per-function table) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import tracer

#: the whole run, child processes included, ends well inside 180 s
HARD_LIMIT_S = 165.0

#: the CPU every child runs on: the last one this process may use
CHILD_CPU = max(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    check: Callable[[Path], list]
    config: str = ""
    seeded: bool = False  # the benchmark seed becomes the oracle seed


# Two workloads, so that a run can last 60 s within the time all runs of
# the benchmark may take.  Sizes are chosen so one command run takes about
# 1 s (pde_grid) and 4 s (compare, the default) on a 2-core box with one BLAS
# thread, which leaves 11-32 runs per window.  Left out: an oracle-only
# workload (the oracle is ~60% of compare, whose 40 s windows spread by 20%
# when three workloads had to share the time) and an RK4 workload (variances,
# 1.5e5 steps), whose pure-Python step loop spread by 20-23% between runs;
# both layers are traced on compare.
WORKLOADS = {
    # The headline user command; touches every layer and repeats work.
    "compare": Workload(("compare",), checks.compare, seeded=True),
    # Production FD spacing on 11 of the default 801 k-slices: FD and
    # surface CSV writing dominate, no oracle or RK4 work.
    "pde_grid": Workload(("pde",), checks.pde, config="pde.k_max = 0.1\n"),
}

# Per-layer names that sum several wrapped functions.
GROUPS = {"fock.homodyne": ("fock.homodyne_monte_carlo",
                            "fock.homodyne_series")}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    log: list = field(default_factory=list)

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += not ok
        self.log.append({"op": name, "ok": ok, "detail": detail})
        if not ok:
            print(f"FAILED {name}: {detail}", file=sys.stderr)


class Runner:
    """Spawns child interpreters in a scratch directory of the checkout."""

    def __init__(self, root: Path, work: Path, t_begin: float):
        self.root, self.work, self.t_begin = root, work, t_begin
        self.n = 0
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    @staticmethod
    def pin():
        """Keep each child on one CPU, so it is not migrated mid-run."""
        os.sched_setaffinity(0, {CHILD_CPU})

    def spawn(self, cli_args=(), flags=()) -> dict | None:
        """Run child.py once; None if it crashed or timed out."""
        self.n += 1
        result = self.work / f"child{self.n}.json"
        errlog = self.work / f"child{self.n}.err"
        cmd = [sys.executable, str(self.root / "perfbench" / "child.py"),
               str(result), *flags]
        if cli_args:
            cmd += ["--", *cli_args]
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.t_begin))
        with open(errlog, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    preexec_fn=self.pin)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not result.is_file():
            tail = errlog.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"child exited {proc.returncode}:\n{tail}", file=sys.stderr)
            return None
        data = json.loads(result.read_text(encoding="utf-8"))
        data["setup_s"] = data["import_end"] - start
        data["import_s"] = data["import_end"] - data["import_start"]
        return data


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def run_command(runner: Runner, wl: Workload, cli_args: list[str],
                traced: bool, tally: Tally, reference: dict) -> dict | None:
    """One command run: spawn, check, hash; returns the child's record."""
    out = runner.work / f"out{runner.n + 1}"  # named after the next child
    child = runner.spawn(cli_args + ["--out", str(out)],
                         ("--trace",) if traced else ())
    ok = child is not None and child["rc"] == 0
    tally.op("command", ok, "" if ok else
             f"exit code {child['rc']}" if child else "interpreter failed")
    if child is None:
        tally.op("checks", False, "no artifacts to check")
        shutil.rmtree(out, ignore_errors=True)
        return None
    try:
        results = wl.check(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        results = [("artifacts", False, f"{type(exc).__name__}: {exc}")]
    for name, passed, detail in results:
        tally.op(f"check.{name}", passed, detail)
    child["sha256"] = _digests(out) if out.is_dir() else {}
    child["artifact_bytes"] = sum(
        p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
    if "sha256" in reference:
        same = child["sha256"] == reference["sha256"]
        tally.op("deterministic", same,
                 "" if same else "artifacts differ from the first run")
    else:
        reference["sha256"] = child["sha256"]
    shutil.rmtree(out, ignore_errors=True)
    return child


def per_layer_metrics(names: list[str], traced: list[dict],
                      untraced: list[dict]) -> dict:
    """Resolve each per-layer name against the traced runs; medians."""
    wrapped = set(traced[0]["wrapped"])
    overhead = (statistics.fmean(c["wall_s"] for c in traced)
                - statistics.fmean(c["wall_s"] for c in untraced))
    fixed = {
        "setup.import_s": statistics.median(
            c["import_s"] for c in traced + untraced),
        "trace.overhead_s": overhead,
        "trace.wall_s": statistics.median(c["wall_s"] for c in traced),
    }
    per_run = []
    for child in traced:
        table = tracer.summarize(child["spans"])
        values = {"trace.self_sum_s": sum(r["self_s"] for r in table.values()),
                  "trace.spans": len(child["spans"]),
                  "cli.artifact_bytes": child["artifact_bytes"]}
        for name in names:
            if name in fixed or name in values:
                continue
            fn, stat = name.rsplit(".", 1)
            members = GROUPS.get(fn) or (
                [w for w in wrapped if w.startswith(fn + ".")]
                if fn in tracer.LAYERS else [fn])
            if not set(members) <= wrapped:
                raise KeyError(f"per-layer metric {name}: {fn} is not traced")
            rows = [table[m] for m in members if m in table]
            work_name = tracer.WORK.get(members[0], ("work",))[0]
            if stat == f"{work_name}_per_s":
                busy = sum(r["self_s"] for r in rows)
                values[name] = sum(r["work"] for r in rows) / busy if busy else 0.0
            elif stat == work_name:
                values[name] = sum(r["work"] for r in rows)
            elif stat in ("calls", "total_s", "self_s", "errors"):
                values[name] = sum(r[stat] for r in rows)
            else:
                raise KeyError(f"per-layer metric {name}: unknown field {stat}")
        per_run.append(values)
    fixed.update({k: statistics.median(v[k] for v in per_run)
                  for k in per_run[0]})
    return {name: fixed[name] for name in names}


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    return (loose.read_text(encoding="utf-8").strip() if loose.is_file()
            else f"unknown ({ref[5:]} is packed)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    t_begin = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "doublepass" / "cli.py").is_file():
        print("run from the repository root: src/doublepass is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload]

    out_root = root / "perfbench" / "out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_root))
    try:
        runner = Runner(root, work, t_begin)
        # Warm-up: compiles bytecode and fills the file cache; not measured.
        warm = runner.spawn(flags=("--env",))
        if warm is None:
            return 1
        src = (root / "src").resolve()
        if not Path(warm["env"]["doublepass_file"]).resolve().is_relative_to(src):
            print(f"doublepass imported from {warm['env']['doublepass_file']},"
                  f" not from {src}", file=sys.stderr)
            return 1
        env = dict(warm["env"], nproc=os.cpu_count(),
                   affinity=sorted(os.sched_getaffinity(0)),
                   blas_threads_env=runner.env["OPENBLAS_NUM_THREADS"],
                   child_cpu=CHILD_CPU,
                   commit=_git_commit(root))
        cli_args = list(wl.args)
        if wl.config:
            cfg_path = work / "workload.cfg"
            cfg_path.write_text(wl.config, encoding="utf-8")
            cli_args += ["--config", str(cfg_path)]
        if wl.seeded:
            cli_args += ["--seed", str(args.seed)]

        tally = Tally()
        reference: dict = {}
        untraced, traced = [], []
        enough = False
        durations = []
        deadline = time.monotonic() + args.seconds
        while True:
            use_trace = bool(args.trace) and len(untraced) > len(traced)
            started = time.monotonic()
            child = run_command(runner, wl, cli_args, use_trace, tally,
                                reference)
            if child is None:
                break
            durations.append(time.monotonic() - started)
            (traced if use_trace else untraced).append(child)
            enough = bool(untraced) and bool(traced or not args.trace)
            # Start no run that would likely end after the deadline, so a
            # run lasts --seconds whatever the length of one command run.
            if enough and (time.monotonic() + statistics.median(durations)
                           > deadline):
                break

        if enough and args.trace:
            values = per_layer_metrics([m["name"] for m in section],
                                       traced, untraced)
        elif enough:
            n_ok = tally.attempted - tally.failed
            values = {
                "wall_s": statistics.fmean(c["wall_s"] for c in untraced),
                "setup_s": statistics.median(c["setup_s"] for c in untraced),
                "peak_rss_mb": statistics.median(
                    c["maxrss_mb"] for c in untraced),
                "ok_frac": n_ok / tally.attempted,
            }
        else:
            values = {}
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": env,
            "cli_args": cli_args, "ops": tally.log,
            "runs": [{k: v for k, v in c.items() if k != "spans"}
                     for c in untraced + traced],
            "functions": tracer.summarize(traced[0]["spans"]) if traced else {},
            "values": values,
        }
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (out_root / name).write_text(json.dumps(record, indent=1),
                                     encoding="utf-8")
        if not enough:
            print("no command run completed; see the record in "
                  f"perfbench/out/{name}", file=sys.stderr)
            return 1
        print(json.dumps({"env": env}))
        print(json.dumps({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in section},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
