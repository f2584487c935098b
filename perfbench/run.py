"""Benchmark runner: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload paired-mc --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository: the program is imported from
``src/``.  An untraced run (``--trace 0``) runs whole rounds of the
workload's phases, at least one and further ones while the rounds are
expected to end within ``--seconds``; it times a fresh interpreter's import and
config parse (``setup_s``) before each round and at least SETUP_REPEATS
times in all, and reports medians.  A traced run (``--trace 1``) runs one
untraced and one traced round, with the process pool replaced by
in-process execution so that every span lands in one process, and reports
the per-layer metrics and the tracing overhead.  Outputs of every round are
checked; the last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# One BLAS/OpenMP thread, set before numpy is first imported; children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: the pool size of paired-mc; the machine the benchmark targets has 2 cores.
POOL_WORKERS = 2
SETUP_REPEATS = 5
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import mfcpoisson.cli; "
    "from mfcpoisson.config import load_config; load_config(sys.argv[2])"
)

#: name -> (unit, better); must match BENCHMARK.json.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "particle_steps_per_s": ("1/s", "higher"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children (pool workers)."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any reaped child, in MiB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def setup_seconds(config_path: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI and parsing the config."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config_path)],
        check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    return perf_counter() - start


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Round:
    """Timings and outcome of one pass over a workload's phases."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = []


def run_round(workload, out: Path, workers: int, tracer=None) -> Round:
    out.mkdir(parents=True)
    result = Round()
    for phase in workload.phases(out, workers):
        result.attempted += 1
        try:
            arg = phase.prepare() if phase.prepare else None
            cpu0, t0 = cpu_seconds(), perf_counter()
            try:
                with tracer.span(f"phase.{phase.name}") if tracer else nullcontext():
                    phase.run(arg)
            finally:
                wall = perf_counter() - t0
                result.wall += wall
                result.cpu += cpu_seconds() - cpu0
                print(f"phase {phase.name}: {wall:.3f} s", file=sys.stderr)
        except (Exception, SystemExit) as err:  # a failed phase is counted, not fatal
            print(f"phase {phase.name} failed: {err!r}", file=sys.stderr)
            result.failed.append(phase.name)
    return result


def in_child(fn):
    """Run ``fn()`` in a forked child and return its result.

    This process imports the program but never runs it, so every round
    starts from the same state: allocator and cache state do not carry from
    one round into the next, as they do not between two CLI invocations.
    The process runs no threads, so forking it is safe.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, fn()))
            except BaseException as err:  # handed to the parent, which raises
                payload = pickle.dumps((False, repr(err)))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            sys.stderr.flush()
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError(f"round process died with wait status {status}")
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"round failed outside its phases: {value}")
    return value


class Outputs:
    """First round's outputs are kept for the checks; later rounds must match them byte for byte."""

    def __init__(self, keep: Path):
        self.keep = keep
        self.digests = None
        self.mismatches = []

    def absorb(self, out: Path):
        digests = {p.name: digest(p) for p in sorted(out.iterdir())}
        if self.digests is None:
            self.digests = digests
            out.rename(self.keep)
            return
        for name, value in digests.items():
            if self.digests.get(name, value) != value:
                self.mismatches.append(f"{name} differs between rounds")
        shutil.rmtree(out)


def run_checks(workload, outputs: Outputs) -> list:
    fails = list(outputs.mismatches)
    for needed, check in workload.checks(outputs.keep):
        if all((outputs.keep / f).exists() for f in needed):
            try:
                fails += check()
            except Exception as err:  # a malformed output fails its check
                fails.append(f"check on {needed} raised {err!r}")
    return fails


def timed_run(workload, run_dir: Path, seconds: float) -> dict:
    workers = POOL_WORKERS if workload.pooled else 1
    outputs = Outputs(run_dir / "keep")
    setups, rounds = [], []
    start = perf_counter()
    # one set-up sample before every round, so the samples span the run; a
    # further round starts only while the rounds, set-up samples left out,
    # are expected to end within `seconds`
    while True:
        setups.append(setup_seconds(workload.config_path))
        out = run_dir / f"round{len(rounds)}"
        rounds.append(in_child(lambda: run_round(workload, out, workers)))
        outputs.absorb(out)
        elapsed = perf_counter() - start - sum(setups)
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    peak = peak_rss_mb()  # the rounds ran in reaped children; read before any check
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(workload.config_path))
    fails = run_checks(workload, outputs)
    wall = statistics.median(r.wall for r in rounds)
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu for r in rounds),
        "peak_rss_mb": peak,
        "setup_s": statistics.median(setups),
        "particle_steps_per_s": workload.particle_steps() / wall,
    }
    print(f"{len(rounds)} round(s); {fails or 'all checks passed'}", file=sys.stderr)
    return result(rounds, fails, {k: (v, END_TO_END[k][0]) for k, v in values.items()})


def traced_round(workload, out: Path) -> tuple:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_round(workload, out, 1, tracer)
    finally:
        tracer.restore()
    spans = {
        name: {"calls": tracer.calls[name], "total_s": tracer.total[name],
               "self_s": tracer.self_time[name]}
        for name in sorted(tracer.calls)
    }
    return traced, tracer.metrics(), {"spans": spans, "counts": dict(tracer.counts)}


def traced_run(workload, run_dir: Path) -> tuple:
    outputs = Outputs(run_dir / "keep")
    reference = in_child(lambda: run_round(workload, run_dir / "untraced", 1))
    outputs.absorb(run_dir / "untraced")
    traced, metrics, trace = in_child(lambda: traced_round(workload, run_dir / "traced"))
    outputs.absorb(run_dir / "traced")
    fails = run_checks(workload, outputs)
    metrics["trace.wall_s"] = (traced.wall, "s")
    metrics["trace.untraced_wall_s"] = (reference.wall, "s")
    metrics["trace.overhead_s"] = (traced.wall - reference.wall, "s")
    print(f"traced round; {fails or 'all checks passed'}", file=sys.stderr)
    return result([reference, traced], fails, metrics), trace


def result(rounds, fails, metrics) -> dict:
    return {
        "correct": not fails,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mfcpoisson" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'mfcpoisson'} is missing", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mfcpoisson.cli  # noqa: F401  imported once, outside every timed phase
    from workloads import WORKLOADS

    if not Path(mfcpoisson.cli.__file__).resolve().is_relative_to(SRC):
        print(f"mfcpoisson was imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, run_dir, ROOT)
        if args.trace:
            res, trace = traced_run(workload, run_dir)
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(trace, indent=1, sort_keys=True)
            )
        else:
            res = timed_run(workload, run_dir, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    line = json.dumps(res)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
