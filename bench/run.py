"""qsanov benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload qubit-sanov-avqs|frames-qutrit|all
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/qsanov`. Every measured
process is a fresh child (`child.py`) with qsanov's caches cold; only
BLAS is warmed, and that counts as set-up. Children run one at a time.

--trace 0 reports the end-to-end metrics:
  wall_s       median time of the workload's fixed job; the job is repeated
               in fresh children while the next one is predicted to end
               within S seconds of the first
  setup_s      median time from spawning a child until it is ready to time
  peak_rss_mb  median peak resident set of the job children
  reach_n      largest n of the workload's pipeline whose ladder step ends
               within STEP_BUDGET_S with its output checked
--trace 1 runs the job once untraced and once traced and reports the
per-layer metrics (`tracer.py`); spans and the layer summary are written
to .bench_out/.

Each child checks its outputs against `oracle.py`. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; with `--workload all` the
workloads run one after another and the metric names there are prefixed
with "<workload>/".
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPS = 7
# Far from the seed's first missing ladder step: d = 2, n = 12 with the dense
# NP runs for minutes (d = 3, n = 8 trips the dense guard at once).
STEP_BUDGET_S = 5.0
# Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 165.0
LADDER_RESERVE_S = 60.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "reach_n": "n"}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".dim3_sum", ".words_sum")):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes_computed"):
        return "bytes"
    return "ratio"


class ChildFailed(RuntimeError):
    pass


class Run:
    def __init__(self, args, wl):
        self.args = args
        self.wl = wl
        self.t0 = time.monotonic()
        self.ops = 0
        self.failed: list[str] = []
        self.lines: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def spawn(self, mode: str, extra=(), timeout: float | None = None):
        """Run one child; return (result or None, "ok"/"timeout"/"exit N", stderr)."""
        a = self.args
        work_dir = tempfile.mkdtemp(prefix="child-", dir=OUT_DIR)
        cmd = [sys.executable, CHILD, "--mode", mode, "--workload", self.wl.name,
               "--seed", str(a.seed), "--work-dir", work_dir, *extra]
        cmd += ["--tiny"] * a.tiny + ["--perturb"] * a.perturb
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "timeout", ""
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if proc.returncode != 0:
            return None, f"exit {proc.returncode}", err
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - t_spawn
        self.ops += result.get("ops", 0)
        self.failed += result.get("failed", [])
        return result, "ok", err

    def job(self, extra=()) -> dict:
        budget = max(1.0, RUN_LIMIT_S - self.elapsed())
        result, status, err = self.spawn("job", extra, timeout=budget)
        if result is None:
            raise ChildFailed(f"job child: {status}\n{err[-4000:]}")
        return result

    def setups(self) -> list[float]:
        out = []
        for _ in range(SETUP_REPS):
            result, status, err = self.spawn("setup", timeout=60.0)
            if result is None:
                raise ChildFailed(f"setup child: {status}\n{err[-4000:]}")
            out.append(result["setup_s"])
        return out

    def check_digests(self, jobs: list[dict]) -> None:
        digests = [j["digest"] for j in jobs if j["digest"] is not None]
        for i, d in enumerate(digests[1:], start=2):
            self.ops += 1
            if d != digests[0]:
                self.failed.append(f"run {i} of the same seed gave different output")

    def ladder(self) -> int:
        """Climb the ladder from the fixed sweep's top n; stop at the first miss."""
        reach = self.wl.floor_n
        for n in self.wl.ladder:
            budget = min(STEP_BUDGET_S, RUN_LIMIT_S - self.elapsed())
            if budget < STEP_BUDGET_S:
                self.lines.append(f"ladder n={n}: not run, run time limit")
                break
            result, status, err = self.spawn("step", ["--n", str(n)], timeout=budget)
            if status == "timeout":
                self.lines.append(f"ladder n={n}: timeout after {budget:.0f} s")
                break
            if result is None:
                self.ops += 1
                self.failed.append(f"ladder n={n}: child {status}: {err[-2000:]}")
                self.lines.append(f"ladder n={n}: error")
                break
            outcome = result["outcome"]
            self.lines.append(f"ladder n={n}: {outcome} in {result['step_s']:.3f} s")
            if outcome != "reached":
                break
            reach = n
        return reach

    def measure(self) -> dict:
        setups = self.setups()
        jobs = []
        t_measure = time.monotonic()
        while True:
            t_job = time.monotonic()
            jobs.append(self.job())
            last = time.monotonic() - t_job
            fits = time.monotonic() - t_measure + last <= self.args.seconds
            room = self.elapsed() + last <= RUN_LIMIT_S - LADDER_RESERVE_S
            if len(jobs) >= self.wl.min_reps and not (fits and room):
                break
        self.check_digests(jobs)
        reach = self.ladder()
        for i, j in enumerate(jobs, start=1):
            self.lines.append(f"job {i}: wall {j['wall_s']:.4f} s, setup {j['setup_s']:.4f} s, "
                              f"peak rss {j['peak_rss_mb']:.1f} MiB")
        self.lines.append("env: " + json.dumps(jobs[0]["env"]))
        return {
            "wall_s": statistics.median(j["wall_s"] for j in jobs),
            "setup_s": statistics.median(setups + [j["setup_s"] for j in jobs]),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
            "reach_n": reach,
        }

    def trace(self) -> dict:
        plain = self.job()
        path = os.path.join(OUT_DIR, f"{self.wl.name}-seed{self.args.seed}.spans.json")
        traced = self.job(["--trace-out", path])
        self.check_digests([plain, traced])
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        self.lines.append(f"spans: {os.path.relpath(path, ROOT)}")
        if layers["trace.coverage"] < 0.95:
            self.lines.append("warning: under 95% of the traced wall time is in named spans")
        for name in traced["escapes"]:
            self.lines.append(f"escape: {name} still calls an unwrapped function")
        self.lines.append("env: " + json.dumps(traced["env"]))
        summary = {"workload": self.wl.name, "seed": self.args.seed, "env": traced["env"],
                   "escapes": traced["escapes"], "metrics": layers,
                   "inclusive_s": traced["inclusive_s"]}
        with open(path.replace(".spans.json", ".layers.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
        return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qsanov benchmark, one run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one output before the checks, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qsanov", "__init__.py")):
        print(f"error: no qsanov sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    unit = layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    metrics: dict[str, dict] = {}
    ops = failed = 0
    for name in names:
        run = Run(args, workloads.make(name, args.seed, args.tiny))
        try:
            values = run.trace() if args.trace else run.measure()
        except ChildFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        prefix = f"{name}/" if len(names) > 1 else ""
        print(f"== {name}")
        for line in run.lines:
            print(line)
        for msg in run.failed[:20]:
            print(f"FAILED: {msg}")
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": unit(key)}
            print(f"{prefix}{key} = {value} {unit(key)}")
        print(f"ops = {run.ops}, ops_failed = {len(run.failed)}")
        ops += run.ops
        failed += len(run.failed)
    print(json.dumps({"correct": failed == 0, "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
