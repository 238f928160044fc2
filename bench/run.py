#!/usr/bin/env python3
"""Benchmark of the `cascadelab` command line on three workloads.

    python3 bench/run.py --workload er-small --seed 1 --seconds 32 --trace 0
    python3 bench/run.py                      # every workload, both modes

With `--trace 0` each subcommand runs as its own `cascadelab` process, the
way a user runs it, on a config made from `--seed`. Whole rounds of all six
subcommands run while a round is expected to end within `--seconds` (at
least two rounds). Each `<subcommand>_s` is the median over the run of that
subcommand's wall time, scaled to reference speed (see `Timer`); `setup_s`
is the same for a fresh interpreter that imports `cascadelab`, and
`peak_rss_mb` is the largest resident set of any subcommand process.

With `--trace 1` the subcommands run in this process through
`cascadelab.cli.main`, alternating untraced rounds with rounds traced by
`layertrace`; the per-layer metrics are medians over the traced rounds, and
`trace.overhead.s` is the traced round time minus the untraced one.

Both modes check the output tree (see `checks.py`), check that repeated
invocations write byte-identical files, and print one JSON object as the
last line of standard output. A copy with every sample goes to
`bench/results/`. The program is run from `src/` of the checkout holding
this file; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import SUBCOMMANDS, WORKLOADS, prepare  # noqa: E402

SETUP_REPEATS = 3
MIN_ROUNDS = 2
# every subcommand here takes seconds; one still running after this hangs
PROCESS_LIMIT_S = 60

END_TO_END = [("setup_s", "s")] + [(f"{c}_s", "s") for c in SUBCOMMANDS] + [
    ("peak_rss_mb", "MB")
]


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("_ms_per_world"):
        return "ms"
    return "count"


def spawn(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run one process; returns (wall seconds, peak RSS in MB, exit code).

    A process still running after PROCESS_LIMIT_S is killed and counts as
    failed, so a hang cannot hold the benchmark past its time limit.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(PROCESS_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def differing_files(out: Path, first: Path) -> list[str]:
    """Files of `out` whose bytes differ from the same name in `first`."""
    files = sorted(p.name for p in out.iterdir())
    if not files:
        return ["(no files written)"]
    return [n for n in files if not (first / n).is_file()
            or (first / n).read_bytes() != (out / n).read_bytes()]


class Run:
    """Counters and findings of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"failed: {what}")

    def compare(self, out: Path, first: Path, what: str) -> None:
        diff = differing_files(out, first)
        if diff:
            self.problems.append(f"{what}: bytes differ from the first run in {diff}")


def keep_going(start: float, rounds: int, seconds: float) -> bool:
    """Start another round while it is expected to end within the window."""
    elapsed = time.perf_counter() - start
    return rounds < MIN_ROUNDS or elapsed + elapsed / rounds <= seconds


# A fixed process owned by the benchmark: it starts an interpreter, imports
# numpy, and runs a Python loop and numpy sorts, the kinds of work a
# subcommand does, but no cascadelab code.
REFERENCE_CODE = """
import numpy as np
rng = np.random.default_rng(0)
x = rng.random(200000)
for _ in range(4):
    acc = sum(i * i for i in range(20000))
    np.sort(x)
    np.unique(rng.integers(0, 5000, 100000))
"""
# wall time of the reference process at the speed the figures are quoted at
REFERENCE_S = 0.25


class Timer:
    """Times processes at reference speed.

    The machine's speed drifts by tens of percent within seconds and from
    minute to minute (a shared virtual machine). The reference process runs
    before the first process timed and after each one, and every wall time
    is scaled by REFERENCE_S over the mean of the two reference times around
    it. In back-to-back trials here, the scaling cut the interquartile
    spread of per-run medians by a factor of two to eight while the machine
    was noisy, and changed it little while the machine was calm.
    """

    def __init__(self, work: Path):
        self.log = work / "process.log"
        self.ref_log = work / "reference.log"
        self.before = self._reference()

    def _reference(self) -> float:
        wall, _, rc = spawn([sys.executable, "-c", REFERENCE_CODE], self.ref_log)
        if rc != 0:
            raise RuntimeError("reference process failed: "
                               + self.ref_log.read_text()[-400:])
        return wall

    def time(self, argv: list[str]) -> tuple[float, float, float, int]:
        """(scaled seconds, wall seconds, peak RSS in MB, exit code)."""
        wall, rss, rc = spawn(argv, self.log)
        after = self._reference()
        scaled = wall * REFERENCE_S / (0.5 * (self.before + after))
        self.before = after
        return scaled, wall, rss, rc


def measure_processes(wl, cfg: Path, work: Path, seconds: float, run: Run):
    py = sys.executable
    timer = Timer(work)
    setup, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        scaled, wall, _, rc = timer.time([py, "-c", "import cascadelab"])
        run.operation(rc == 0, "import cascadelab: " + timer.log.read_text()[-400:])
        setup.append(scaled)
        setup_wall.append(wall)
    if run.failed:
        raise RuntimeError("; ".join(run.problems))
    samples = {c: [] for c in SUBCOMMANDS}
    walls = {c: [] for c in SUBCOMMANDS}
    peak = 0.0
    first = work / "first"
    start = time.perf_counter()
    rounds = 0
    while keep_going(start, rounds, seconds):
        for cmd in SUBCOMMANDS:
            out = first if rounds == 0 else work / f"{cmd}-{rounds}"
            argv = [py, "-m", "cascadelab.cli", cmd, "--config", str(cfg),
                    "--out", str(out)]
            scaled, wall, rss, rc = timer.time(argv)
            run.operation(rc == 0, f"{cmd}: " + timer.log.read_text()[-400:])
            if rc != 0:
                continue
            samples[cmd].append(scaled)
            walls[cmd].append(wall)
            peak = max(peak, rss)
            if rounds > 0:
                run.compare(out, first, f"{cmd} repeat")
                shutil.rmtree(out)
        rounds += 1
    values = {"setup_s": statistics.median(setup)}
    for cmd in SUBCOMMANDS:
        if samples[cmd]:
            values[f"{cmd}_s"] = statistics.median(samples[cmd])
    values["peak_rss_mb"] = peak
    detail = {"rounds": rounds, "setup_s": setup, "samples_s": samples,
              "setup_wall_s": setup_wall, "wall_s": walls}
    return values, first, detail


def measure_traced(wl, cfg: Path, work: Path, seconds: float, run: Run):
    sys.path.insert(0, str(SRC))
    import cascadelab.cli as cli
    from layertrace import Tracer, layer_metrics, ROOT_SPAN

    tracer = Tracer()
    first = work / "first"

    def one_round(tag: str, traced: bool) -> float:
        out = first if tag == "u0" else work / tag
        begin = time.perf_counter()
        for cmd in SUBCOMMANDS:
            argv = [cmd, "--config", str(cfg), "--out", str(out)]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    if traced:
                        with tracer.span(ROOT_SPAN):
                            rc = cli.main(argv)
                    else:
                        rc = cli.main(argv)
            except Exception as exc:  # a crash is one failed operation
                rc = f"{type(exc).__name__}: {exc}"
            run.operation(rc == 0, f"{cmd} in process: exit {rc}")
        wall = time.perf_counter() - begin
        if out != first:
            run.compare(out, first, f"{'traced' if traced else 'untraced'} round")
            shutil.rmtree(out)
        return wall

    plain, traced, per_round = [], [], []
    start = time.perf_counter()
    rounds = 0
    while keep_going(start, rounds, seconds):
        plain.append(one_round(f"u{rounds}", False))
        first_span = len(tracer.spans)
        tracer.install()
        try:
            traced.append(one_round(f"t{rounds}", True))
        finally:
            tracer.uninstall()
        per_round.append(layer_metrics(tracer.spans[first_span:]))
        rounds += 1
    values = {name: statistics.median(r[name] for r in per_round)
              for name in per_round[0]}
    values["trace.overhead.s"] = statistics.median(traced) - statistics.median(plain)
    detail = {"rounds": rounds, "untraced_round_s": plain, "traced_round_s": traced}
    return values, first, detail, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    run = Run()
    try:
        wl, cfg = prepare(name, seed, work)
        if trace:
            values, first, detail, tracer = measure_traced(wl, cfg, work, seconds, run)
            tracer.write(RESULTS / f"trace-{name}-seed{seed}.jsonl")
            units = {k: layer_unit(k) for k in values}
        else:
            values, first, detail = measure_processes(wl, cfg, work, seconds, run)
            units = dict(END_TO_END)
        try:
            run.problems += checks.check_tree(first, wl.expected, wl.config, seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            run.problems.append(f"output tree unreadable: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        print(f"{name}: {problem}", file=sys.stderr)
    result = {
        # a failed operation is counted in `failed`, not held against `correct`
        "correct": all(p.startswith("failed:") for p in run.problems),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = dict(result, workload=name, seed=seed, seconds=seconds,
                  trace=int(trace), config=wl.config, detail=detail,
                  problems=run.problems, environment=environment())
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return result


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def default_seconds() -> int:
    return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if not (SRC / "cascadelab" / "cli.py").is_file():
        print(f"no cascadelab sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else default_seconds()
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    # every workload in both modes, as a table and one results file
    traces = [args.trace] if args.trace is not None else [0, 1]
    table = {}
    for name in WORKLOADS:
        for trace in traces:
            result = run_workload(name, args.seed, seconds, bool(trace))
            table[f"{name} trace={trace}"] = result
            print(f"== {name} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"   {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
    all_correct = all(r["correct"] and not r["failed"] for r in table.values())
    summary = {"correct": all_correct,
               "attempted": sum(r["attempted"] for r in table.values()),
               "failed": sum(r["failed"] for r in table.values()),
               "workloads": table, "environment": environment()}
    (RESULTS / f"all-seed{args.seed}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"results: {RESULTS / f'all-seed{args.seed}.json'}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
