"""Benchmark of the harnack pipeline: one seeded workload per run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else, so a directory without it fails
with exit code 1 and no result line.  A run builds its inputs from the seed
(set-up), then repeats passes over the workload's items, closed loop, until
``--seconds`` have elapsed; a started pass always completes.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Details (environment, every
failed item, per-pass values, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("census", "spectral", "ronkin", "cli")
SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="tiny grids, one item per workload (smoke test)")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for set-up repeats)")
    return p.parse_args(argv)


def _setup(args):
    """Import harnack from this checkout and build the seeded workload."""
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "harnack", "__init__.py")):
        raise SystemExit(f"no harnack package under {SRC}")
    sys.path.insert(0, SRC)
    import harnack

    if not os.path.abspath(harnack.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"harnack imported from {harnack.__file__}, not {SRC}")
    import workloads

    if args.workload == "cli":
        work_dir = os.path.join(OUT, f"work-{os.getpid()}")
        wl = workloads.cli(args.seed, args.toy, work_dir, SRC)
    else:
        wl = workloads.BUILDERS[args.workload](args.seed, args.toy)
    return wl, time.perf_counter() - start


def _setup_repeats(args) -> list:
    """Set-up times of fresh processes, each measured inside that process."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        if args.toy:
            cmd.append("--toy")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=170, check=True)
        times.append(float(proc.stdout.decode().strip().splitlines()[-1]))
    return times


def _spans(tracer, names) -> ExitStack:
    stack = ExitStack()
    if tracer is not None:
        for name in names:
            stack.enter_context(tracer.span(name))
    return stack


def _run_item(item) -> list:
    try:
        return list(item.run())
    except Exception as exc:  # the item boundary: a raise is a failed item
        return [f"raised {type(exc).__name__}: {exc}"]


def _run_pass(wl, tracer=None) -> tuple:
    """One closed-loop pass; returns (wall, [[item, seconds, broken]], root span)."""
    results = []
    root = len(tracer.spans) if tracer is not None else -1
    start = time.perf_counter()
    with _spans(tracer, ["pass"]):
        for item in wl.items:
            # a CLI item's child process is the cli.<subcommand> span
            names = [f"item.{item.kind}"]
            if wl.name == "cli" and item.kind in tracing.CLI_SUBCOMMANDS:
                names.append(f"cli.{item.kind}")
            t0 = time.perf_counter()
            with _spans(tracer, names):
                broken = _run_item(item)
            results.append([item, time.perf_counter() - t0, broken])
        for idx, extra in wl.pass_checks().items():
            results[idx][2] = results[idx][2] + extra
    return time.perf_counter() - start, results, root


def _passes(wl, seconds: float, tracer=None) -> list:
    """Passes until ``seconds`` have elapsed; at least one."""
    deadline = time.perf_counter() + seconds
    passes = []
    while True:
        passes.append(_run_pass(wl, tracer))
        if time.perf_counter() >= deadline:
            return passes


def _untraced(args, wl):
    setup_times = [args.first_setup] + _setup_repeats(args)
    passes = _passes(wl, args.seconds)
    latencies = [sec for _, results, _ in passes for _, sec, _ in results]
    ok = sum(1 for _, results, _ in passes for _, _, broken in results if not broken)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p[0] for p in passes), "s"),
        "item_p50_s": (statistics.median(latencies), "s"),
        "pass_ratio": (ok / len(latencies), "1"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    report = {
        "setup_times_s": setup_times,
        "pass_walls_s": [p[0] for p in passes],
        "items_per_pass": len(wl.items),
        "item_latencies_s": latencies,
    }
    return metrics, passes, report


def _cli_import_s(env: dict, repeats: int = 3) -> float:
    """Median wall time of fresh processes that only import harnack.cli."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import harnack.cli"], env=env, cwd=ROOT,
                       timeout=60, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _traced(args, wl):
    """One untraced pass for the overhead, then traced passes."""
    untraced_wall, _, _ = _run_pass(wl)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes = _passes(wl, args.seconds, tracer)
    finally:
        tracer.uninstall()
    per_pass = [tracing.layer_metrics(tracer.spans, root) for _, _, root in passes]
    values = {}
    for name, unit in tracing.PER_LAYER.items():
        series = [m[name] for m in per_pass if name in m]
        # counts repeat exactly from pass to pass; times take the median
        values[name] = (series[0] if unit == "count" else statistics.median(series)) if series else 0
    values["trace.overhead_s"] = statistics.median(p[0] for p in passes) - untraced_wall
    values["cli.import_s"] = _cli_import_s(wl.env) if wl.name == "cli" else 0.0
    suffix = "-toy" if args.toy else ""
    spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}{suffix}.spans.jsonl")
    tracer.write(spans_path)
    metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER.items()}
    report = {
        "untraced_wall_s": untraced_wall,
        "traced_pass_walls_s": [p[0] for p in passes],
        "per_pass_layers": per_pass,
        "spans": os.path.relpath(spans_path, ROOT),
    }
    return metrics, passes, report


def _environment() -> dict:
    import numpy

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        env["blas"] = "unknown"
    env["git_sha"] = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            env["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, timeout=10, check=True).stdout.decode().strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def main(argv=None) -> int:
    args = _parse(argv)
    os.makedirs(OUT, exist_ok=True)
    wl, args.first_setup = _setup(args)
    try:
        if args.setup_only:
            print(repr(args.first_setup))
            return 0
        metrics, passes, report = (_traced if args.trace else _untraced)(args, wl)
    finally:
        wl.cleanup()

    import workloads

    known = workloads.KNOWN_DEFECTS.get(args.workload, lambda item, broken: False)
    failures = [
        {"workload": args.workload, "kind": item.kind, "d": item.d, "label": item.label,
         "broken": broken, "known_defect": known(item, broken)}
        for _, results, _ in passes for item, _, broken in results if broken
    ]
    attempted = sum(len(results) for _, results, _ in passes)
    failed = len(failures)
    correct = attempted > 0 and all(f["known_defect"] for f in failures)
    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "environment": _environment(),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "failures": failures,
    })
    suffix = "-toy" if args.toy else ""
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for fail in failures:
        tag = "known defect" if fail["known_defect"] else "FAILED"
        print(f"{tag}: {fail['workload']} {fail['kind']} d={fail['d']} {fail['label']}: "
              f"{'; '.join(fail['broken'])}")
    print(f"# {args.workload}: attempted {attempted}, failed {failed}, "
          f"fail_ratio {failed / attempted:.4f}, details in {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
