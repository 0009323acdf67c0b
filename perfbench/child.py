"""One fresh-interpreter run of a doublepass command, timed from inside.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/child.py RESULT.json [--trace] [--env] [-- CLI ARGS...]

Records the monotonic time just before and after ``import doublepass.cli``
(the interpreter start is taken by the parent, just before it spawns this
process), the wall time of ``cli.main(CLI ARGS)``, the exit code and the peak
RSS of this process, and writes them to RESULT.json.  Without CLI ARGS it
only imports the package.  ``--trace`` wraps the layer functions first and
adds their spans; ``--env`` adds versions and the BLAS thread count.
"""

import time

IMPORT_START = time.monotonic()
import doublepass.cli  # noqa: E402  (the import is what is being timed)
IMPORT_END = time.monotonic()

import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _blas_threads():
    """Thread count reported by the OpenBLAS that NumPy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "doublepass_file": doublepass.__file__,
    }


def main(argv):
    result_path, rest = argv[0], argv[1:]
    split = rest.index("--") if "--" in rest else len(rest)
    flags, cli_args = rest[:split], rest[split + 1:]
    out = {"import_start": IMPORT_START, "import_end": IMPORT_END}
    if "--env" in flags:
        out["env"] = _environment()
    if cli_args:
        recorder = None
        if "--trace" in flags:
            import tracer  # perfbench/ is sys.path[0] when run as a script
            recorder = tracer.install(
                {name: mod for name, mod in sys.modules.items()
                 if name == "doublepass" or name.startswith("doublepass.")})
        start = time.perf_counter()
        out["rc"] = doublepass.cli.main(cli_args)
        out["wall_s"] = time.perf_counter() - start
        if recorder is not None:
            out["spans"] = recorder.spans
            out["wrapped"] = recorder.names
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
