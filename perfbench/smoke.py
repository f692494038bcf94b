"""Toy-size run of the benchmark: checks its output contract, not speed.

    python3 perfbench/smoke.py

Runs every workload at toy size (tiny grids, one item, a short trace),
untraced and traced, and asserts that each end-to-end and per-layer metric
named in BENCHMARK.json is emitted with its unit, and that the run's
details file holds fail_ratio = failed / attempted.  Then copies only
BENCHMARK.json and perfbench/ into a scratch directory and checks that the
benchmark fails there without a result line.  Not part of the test suite.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=170)


def check_metrics(spec: dict) -> None:
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr.decode()[-2000:]
            lines = proc.stdout.decode().strip().splitlines()
            result = json.loads(lines[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            assert sorted(got) == sorted(expected), set(got) ^ set(expected)
            for name, unit in expected.items():
                assert got[name]["unit"] == unit, (name, got[name])
                value = got[name]["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
            details = lines[-2].rsplit("details in ", 1)[1]
            with open(os.path.join(ROOT, details), encoding="utf-8") as fh:
                report = json.load(fh)
            assert report["fail_ratio"] == result["failed"] / result["attempted"]
            print(f"ok {workload} trace={trace}: {len(got)} metrics, "
                  f"fail_ratio {report['fail_ratio']:.3f}")


def check_bare_directory() -> None:
    bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(bare, "spectral", 0)
        assert proc.returncode != 0, "benchmark succeeded without the package"
        last = (proc.stdout.decode().strip().splitlines() or [""])[-1]
        assert not last.startswith("{"), last
        print("ok bare directory: exit code", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
