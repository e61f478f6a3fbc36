#!/usr/bin/env python3
"""Outside-in benchmark of the ``dimetrics`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` one benchmark process writes the workload's seeded inputs
and runs the real CLI (``python -S -m dimetrics.cli`` on ``src/``) as child
processes, one at a time in a closed loop.  ``-S`` skips the host's
site-packages start-up hooks: the package needs only the standard library.
Set-up is done three times (write inputs, then one warm-up op); then ops
repeat until ``--seconds`` have passed, and at least three times.  Every op's outputs are checked
against references that do not come from the analyzer (``oracle.py``) and
against the first op's bytes.  The end-to-end metrics are medians over ops:

    cpu_s          user+sys CPU of one op's children (os.wait4 rusage)
    wall_s         wall time of one op's children, spawn to reap
    classes_per_s  classes analyzed / CPU seconds of the op's analyze calls
    peak_rss_mb    largest ru_maxrss among one op's children, MiB
    setup_s        median of three set-ups (write inputs + one warm-up op)

After every set-up and op the fixed task ``reference.py`` runs once in its
own interpreter.  The times and the rate are scaled to a host on which its
median CPU time is REFERENCE_NOMINAL_CPU_S: on a shared machine the speed
of the same Python code drifts by tens of percent within minutes, and the
reference drifts with it.  The values as measured are printed too.

With ``--trace 1`` the same op runs in-process with spans around the
public calls into each module, and the per-layer metrics are printed
instead (see ``tracing.py``).

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in turn and prints
one such block per workload.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

SETUP_REPS = 3
MIN_OPS = 3
CALL_TIMEOUT_S = 150
# CPU seconds of reference.py on a 2-vCPU Intel Xeon KVM guest at its usual speed
REFERENCE_NOMINAL_CPU_S = 0.35
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().with_name("reference.py")


@dataclass
class OpResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    analyze_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


def run_child(argv: list[str], cwd: Path, env: dict[str, str], stdout_path: Path | None):
    """Run one child to completion; returns (exit code, wall s, rusage, stderr)."""
    stdout = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # stderr is small (diagnostics only); draining it before wait4 avoids a full pipe.
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stderr.close()
    finally:
        if stdout_path:
            stdout.close()
    return proc.returncode, wall, usage, err.decode(errors="replace")


def run_op(study: workloads.Study, run_dir: Path, env: dict[str, str]) -> OpResult:
    shutil.rmtree(run_dir / "op", ignore_errors=True)
    (run_dir / "op").mkdir()
    result = OpResult()
    for call in study.calls():
        argv = [sys.executable, "-S", "-m", "dimetrics.cli", *call.argv]
        out = run_dir / call.stdout if call.stdout else None
        code, wall, usage, err = run_child(argv, run_dir, env, out)
        cpu = usage.ru_utime + usage.ru_stime
        result.wall_s += wall
        result.cpu_s += cpu
        result.peak_rss_mb = max(result.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if call.command == "analyze":
            result.analyze_cpu_s += cpu
        if code != 0:
            result.problems.append(f"{call.command} exited {code}: {err.strip()[-300:]}")
    problems, result.digests = study.check(run_dir)
    result.problems += problems
    return result


def reference_cpu_s(env: dict[str, str]) -> float:
    """CPU seconds of one run of the fixed reference task."""
    code, _, usage, err = run_child([sys.executable, "-S", str(REFERENCE)], ROOT, env, None)
    if code != 0:
        raise RuntimeError(f"reference task failed: {err.strip()[-300:]}")
    return usage.ru_utime + usage.ru_stime


def measure(name: str, seed: int, seconds: float, work: Path) -> tuple[workloads.Tally, dict, dict]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    tally = workloads.Tally()
    setups, references = [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(work / "inputs", ignore_errors=True)
        started = time.perf_counter()
        study = workloads.write_inputs(name, work, seed)
        written = time.perf_counter() - started
        warm = run_op(study, work, env)
        setups.append(written + warm.wall_s)
        tally.add(warm.problems, warm.digests)
        references.append(reference_cpu_s(env))
    ops: list[OpResult] = []
    started = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - started < seconds:
        op = run_op(study, work, env)
        tally.add(op.problems, op.digests)
        ops.append(op)
        references.append(reference_cpu_s(env))
    calls = study.calls()
    classes = study.classes * sum(1 for c in calls if c.command == "analyze")
    raw = {
        "cpu_s": statistics.median(o.cpu_s for o in ops),
        "wall_s": statistics.median(o.wall_s for o in ops),
        "classes_per_s": statistics.median(classes / o.analyze_cpu_s for o in ops),
        "peak_rss_mb": statistics.median(o.peak_rss_mb for o in ops),
        "setup_s": statistics.median(setups),
    }
    # Host speed: > 1 when the reference runs slower than nominal.
    slowdown = statistics.median(references) / REFERENCE_NOMINAL_CPU_S
    values = {
        "cpu_s": (raw["cpu_s"] / slowdown, "s"),
        "wall_s": (raw["wall_s"] / slowdown, "s"),
        "classes_per_s": (raw["classes_per_s"] * slowdown, "classes/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
        "setup_s": (raw["setup_s"] / slowdown, "s"),
    }
    samples = {key: len(ops) for key in values}
    samples["setup_s"] = len(setups)
    info = {"ops": len(ops), "setups": len(setups), "calls_per_op": len(calls),
            "classes_per_analyze": study.classes, "raw": raw,
            "reference_cpu_s": statistics.median(references), "references": len(references)}
    metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in values.items()}
    return tally, metrics, {"samples": samples, **info}


def run_record(workload: str, args: argparse.Namespace) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dimetrics").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "note": "times are scaled to a host on which reference.py takes the nominal CPU time",
    }


def run_workload(workload: str, args: argparse.Namespace) -> None:
    work = OUT / f"{workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            import tracing

            tally, metrics, info = tracing.run(workload, args.seed, args.seconds, work, OUT, SRC)
        else:
            tally, metrics, info = measure(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("run record: " + json.dumps({**run_record(workload, args), **info}, sort_keys=True))
    samples, raw = info.get("samples", {}), info.get("raw", {})
    for key, metric in metrics.items():
        count = f"  (n={samples[key]})" if key in samples else ""
        measured = f"  [as measured: {raw[key]:.6g}]" if key in raw else ""
        print(f"{workload} {key} = {metric['value']:.6g} {metric['unit']}{count}{measured}")
    if "reference_cpu_s" in info:
        print(f"{workload} reference task = {info['reference_cpu_s']:.6g} s CPU (n={info['references']};"
              f" nominal {REFERENCE_NOMINAL_CPU_S} s)")
    print(f"{workload} fail_ratio = {tally.failed} of {tally.attempted} ops")
    for problem in tally.first_problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"),
                        help="one workload, or all of them in turn (one result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dimetrics" / "cli.py").is_file():
        print(f"error: no dimetrics sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for workload in workloads.NAMES if args.workload == "all" else (args.workload,):
        run_workload(workload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
