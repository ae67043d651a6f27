"""One measured process of the benchmark; `run.py` spawns it.

    python3 bench/child.py --mode setup|job|step --workload NAME --seed N
        [--tiny] [--perturb] [--trace-out PATH] [--n N] --work-dir DIR

DIR is a scratch directory that the parent creates and removes.

Every mode first sets up: import qsanov, build the workload's inputs from
the seed, and warm BLAS on a matrix that touches no qsanov cache. The
monotonic clock reading at that point ("ready") lets the parent compute
the set-up time from its spawn time. `setup` stops there. `job` runs the
workload's fixed job once with qsanov's caches cold, optionally traced,
then checks the outputs. `step` runs one ladder step and checks it.
The last line on stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _blas_threads(np) -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def env_info(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def _warm_blas(np) -> None:
    a = np.random.default_rng(0).standard_normal((256, 256))
    np.linalg.eigh(a + a.T)
    c = a + 1j * a.T
    c @ c


def _run_job(args, np, qsanov, workloads, wl) -> dict:
    tr = None
    mark = lambda run_id: None  # noqa: E731
    if args.trace_out:
        import tracer

        tr = tracer.Tracer()
        tr.install()
        mark = tr.mark
    t0 = time.perf_counter()
    out = wl.job(qsanov, mark)
    wall = time.perf_counter() - t0
    if tr is not None:
        tr.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.perturb:
        wl.perturb(out)
    chk = workloads.Checker()
    wl.check(qsanov, out, chk)
    digest = wl.digest(out)
    result = {
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "ops": chk.ops,
        "failed": chk.failed,
        "digest": hashlib.sha256(digest.encode()).hexdigest() if digest is not None else None,
        "env": env_info(np),
    }
    if tr is not None:
        result["layers"] = tr.summary(wall)
        result["inclusive_s"] = tr.inclusive()
        result["escapes"] = tr.escapes
        tr.write(args.trace_out, {"workload": wl.name, "seed": args.seed, "wall_s": wall})
    return result


def _run_step(args, qsanov, workloads, wl) -> dict:
    chk = workloads.Checker()
    t0 = time.perf_counter()
    try:
        out = wl.step(qsanov, args.n)
    except qsanov.SizeGuardError as exc:
        return {"outcome": "guard", "detail": str(exc), "step_s": time.perf_counter() - t0,
                "ops": 0, "failed": []}
    step_s = time.perf_counter() - t0
    wl.check_step(qsanov, out, chk)
    return {"outcome": "wrong" if chk.failed else "reached", "step_s": step_s,
            "ops": chk.ops, "failed": chk.failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "job", "step"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--n", type=int, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import qsanov
    import qsanov.cli  # noqa: F401  (the CLI user pays this import too)
    import workloads

    wl = workloads.make(args.workload, args.seed, args.tiny)
    wl.prepare(args.work_dir)
    _warm_blas(np)
    ready = time.monotonic()
    if args.mode == "setup":
        result = {}
    elif args.mode == "job":
        result = _run_job(args, np, qsanov, workloads, wl)
    else:
        result = _run_step(args, qsanov, workloads, wl)
    result["ready"] = ready
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
