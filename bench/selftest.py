"""Self-test of the benchmark at tiny sizes; takes about a minute.

    python3 bench/selftest.py

For every workload it runs `run.py --tiny` untraced and traced and checks
that the last line holds exactly the result keys, that every metric
BENCHMARK.json lists for that mode is printed with its unit, and that no
check failed. With `--perturb` one output is corrupted before the checks,
and the run must count it in `failed`. Finally a copy of the benchmark
without the qsanov sources must exit non-zero without printing a result.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root: str, workload: str, trace: int, *extra: str) -> tuple[int, list[str]]:
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, lines = run(ROOT, wl, trace)
            tag = f"{wl} --trace {trace}"
            expect(code == 0 and bool(lines), f"{tag}: exit code {code}")
            if code != 0 or not lines:
                continue
            result = json.loads(lines[-1])
            expect(set(result) == RESULT_KEYS, f"{tag}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want[trace], f"{tag}: every listed metric printed with its unit")
            printed = all(any(line.startswith(f"{k} = ") and line.endswith(f" {u}")
                              for line in lines) for k, u in want[trace].items())
            expect(printed, f"{tag}: every metric printed as 'name = value unit'")
            expect(result["failed"] == 0 and result["correct"] and result["attempted"] > 0,
                   f"{tag}: {result['attempted']} ops, {result['failed']} failed")
        code, lines = run(ROOT, wl, 0, "--perturb")
        result = json.loads(lines[-1]) if code == 0 and lines else None
        expect(result is not None and result["failed"] >= 1 and not result["correct"],
               f"{wl} --perturb: corrupted output counted in failed")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(bare, spec["workloads"][0]["name"], 0)
        expect(code != 0 and not any(line.startswith("{") for line in lines),
               f"without qsanov sources: exit code {code}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("self-test " + ("failed: " + "; ".join(problems) if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
