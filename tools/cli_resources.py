"""Run every CLI subcommand once and print its wall time, peak RSS, output size and digest.

    python3 tools/cli_resources.py [--config configs/lq_small.json]

Each subcommand runs as ``python -m mfcpoisson.cli`` from this checkout's
``src/`` in a child process whose working directory is a temporary
directory, and every output file goes there, so nothing is written into the
checkout.  Peak RSS is the child's ``ru_maxrss`` from ``os.wait4``.  The
output file's size is printed for every subcommand, and for the CSV writers
(``riccati`` and ``simulate``) also that size over the subcommand's whole
wall time, start-up included, in MB/s, so a slower writer shows in the log.

The last column, ``out/stdout_sha256``, holds the first 8 hex digits of the
sha256 of the output file and of the subcommand's stdout, in which the
temporary directory is cut from the output path.  Neither depends on where
the checkout or the temporary directory is, so two checkouts whose
subcommands write the same bytes print the same column, and comparing them
is a diff of it.

Exit code 1 of a subcommand (a check that failed or was inconclusive) is
shown and accepted: ``verify fp`` on lq_small passes or fails with the seed,
and ``compare-noise`` is inconclusive when no common jump is drawn.  The
script exits 1 when a subcommand exits 2 (config or usage error), 3
(numerical failure) or with any other code.
"""
from __future__ import annotations

import argparse
import hashlib
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


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:8]


def run(command, config: Path, work: Path):
    """(exit code, wall seconds, peak RSS in MB, stdout) of one subcommand."""
    out = output_path(command, work)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "mfcpoisson.cli", *command, "--config", str(config), "--out", str(out)],
        cwd=work, env=env, stdout=subprocess.PIPE,
    )
    stdout = child.stdout.read()  # to EOF, so a long stdout cannot block the child
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return child.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024, stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=str(ROOT / "configs" / "lq_small.json"))
    config = Path(parser.parse_args(argv).config).resolve()

    print(f"{'command':<20} {'exit':>4} {'wall_s':>8} {'peak_rss_mb':>12} "
          f"{'out_kb':>9} {'csv_mb_s':>9}  out/stdout_sha256")
    failed = []
    with tempfile.TemporaryDirectory() as work:
        for command in COMMANDS:
            code, wall, rss, stdout = run(command, config, Path(work))
            name = " ".join(command)
            out = output_path(command, Path(work))
            data = out.read_bytes() if out.exists() else None
            size = "-" if data is None else f"{len(data) / 1024:.1f}"
            rate = "-"
            if data is not None and command[0] in CSV_WRITERS:
                rate = f"{len(data) / MB / wall:.1f}"
            sums = "-" if data is None else digest(data)
            sums += "/" + digest(stdout.replace(os.fsencode(work + os.sep), b""))
            print(f"{name:<20} {code:>4} {wall:>8.2f} {rss:>12.1f} {size:>9} {rate:>9}  {sums}",
                  flush=True)
            if code not in ACCEPTED:
                failed.append(f"{name} exited {code}")
    for line in failed:
        print(f"FAILED: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
