"""Run every CLI subcommand once and print its wall time, peak RSS and output size.

    python3 tools/cli_resources.py [--config configs/lq_small.json]

Each subcommand runs as ``python -m mfcpoisson.cli`` from this checkout's
``src/`` in a child process whose working directory is a temporary
directory, and every output file goes there, so nothing is written into the
checkout.  Peak RSS is the child's ``ru_maxrss`` from ``os.wait4``.  The
output file's size is printed for every subcommand, and for the CSV writers
(``riccati`` and ``simulate``) also that size over the subcommand's whole
wall time, start-up included, in MB/s, so a slower writer shows in the log.

Exit code 1 of a subcommand (a check that failed or was inconclusive) is
shown and accepted: ``verify fp`` on lq_small passes or fails with the seed,
and ``compare-noise`` is inconclusive when no common jump is drawn.  The
script exits 1 when a subcommand exits 2 (config or usage error), 3
(numerical failure) or with any other code.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = [
    ["riccati"],
    ["simulate"],
    ["cost"],
    ["chattering"],
    ["verify", "smp"],
    ["verify", "bsde"],
    ["verify", "hjb"],
    ["verify", "fp"],
    ["verify", "optimality"],
    ["verify", "noise"],
    ["compare-noise"],
]
ACCEPTED = (0, 1)
CSV_WRITERS = ("riccati", "simulate")
MB = float(1 << 20)


def output_path(command, work: Path) -> Path:
    return work / ("-".join(command) + (".csv" if command[0] in CSV_WRITERS else ".json"))


def run(command, config: Path, work: Path):
    """(exit code, wall seconds, peak RSS in MB) of one subcommand."""
    out = output_path(command, work)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "mfcpoisson.cli", *command, "--config", str(config), "--out", str(out)],
        cwd=work, env=env, stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return child.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=str(ROOT / "configs" / "lq_small.json"))
    config = Path(parser.parse_args(argv).config).resolve()

    print(f"{'command':<20} {'exit':>4} {'wall_s':>8} {'peak_rss_mb':>12} "
          f"{'out_kb':>9} {'csv_mb_s':>9}")
    failed = []
    with tempfile.TemporaryDirectory() as work:
        for command in COMMANDS:
            code, wall, rss = run(command, config, Path(work))
            name = " ".join(command)
            out = output_path(command, Path(work))
            nbytes = out.stat().st_size if out.exists() else None
            size = "-" if nbytes is None else f"{nbytes / 1024:.1f}"
            rate = "-"
            if nbytes is not None and command[0] in CSV_WRITERS:
                rate = f"{nbytes / MB / wall:.1f}"
            print(f"{name:<20} {code:>4} {wall:>8.2f} {rss:>12.1f} {size:>9} {rate:>9}", flush=True)
            if code not in ACCEPTED:
                failed.append(f"{name} exited {code}")
    for line in failed:
        print(f"FAILED: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
