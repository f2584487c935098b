"""Print the functions of the package that no traced run of the program calls.

    python3 tools/uncalled.py

It sets ``sys.setprofile`` before ``mfcpoisson`` is imported, so calls made
at import time count, and then runs in this one process, at ``--threads 1``:

* the 11 CLI subcommands of ``tools/cli_resources.py`` on
  ``configs/lq_small.json`` and on a copy of it with ``sim.mode`` set to
  ``idiosyncratic``;
* the same subcommands on four variants of lq_small: ``output.fp_pairings``
  set, an atoms init, a time-shift perturbation added to
  ``verify.perturbations``, and two jump marks;
* the benchmark's API phases, ``write_pairings``, ``write_noise_modes`` and
  ``write_fm_distances`` from ``perfbench/workloads.py``, which it imports
  and does not change.

A subcommand that exits non-zero (``verify fp`` under idiosyncratic noise
exits 2 on purpose) still counts what it called.  It then prints, one
``module.qualified_name (lines)`` per line, each function or method defined
in ``src/mfcpoisson/`` whose code never ran, nested functions included
(``<locals>`` in the name), and a total.  Calls made in forked pool workers
are not seen; at ``--threads 1`` the program forks none, so ``_install_task``
and ``_run_task``, which run only in a pool, are listed.  Every output goes
to a temporary directory and no bytecode is written, so nothing is written
into the checkout.  It always exits 0.
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # set before any import from the checkout
from cli_resources import COMMANDS, output_path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mfcpoisson"


def variants(base: dict, work: Path) -> dict:
    """Name -> config of lq_small and its variants."""

    def changed(edit):
        cfg = json.loads(json.dumps(base))
        edit(cfg)
        return cfg

    return {
        "common": base,
        "idiosyncratic": changed(lambda c: c["sim"].update(mode="idiosyncratic")),
        "fp_pairings": changed(
            lambda c: c["output"].update(fp_pairings=str(work / "pairings.csv"))),
        "atoms": changed(lambda c: c["sim"].update(
            init={"kind": "atoms", "atoms": [0.5, 1.5], "weights": [0.25, 0.75]})),
        "time-shift": changed(lambda c: c["verify"].update(
            perturbations=[{"kind": "gain", "amount": 1.5},
                           {"kind": "time-shift", "amount": 0.05}])),
        "two marks": changed(lambda c: c["jumps"]["marks"].append(
            {"z": 2.0, "lambda": 0.5, "gamma": -0.2})),
    }


def run_program(work: Path) -> list:
    """Run every traced command; returns one line per config or phase run."""
    from mfcpoisson import cli

    sys.path.insert(0, str(ROOT / "perfbench"))
    import checks
    import workloads

    ran = []
    base = json.loads((ROOT / "configs" / "lq_small.json").read_text())
    for name, cfg in variants(base, work).items():
        path = work / f"{name.replace(' ', '_')}.json"
        path.write_text(json.dumps(cfg))
        codes = []
        for command in COMMANDS:
            argv = [*command, "--config", str(path), "--out", str(output_path(command, work)),
                    "--threads", "1"]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv))
        ran.append(f"{name}: exit codes {codes}")
    config = work / "common.json"
    workloads.write_pairings(config, work / "api-pairings.csv")
    workloads.write_noise_modes(config, work / "api-noise.json")
    laws = checks.terminal_states(work / "simulate.csv")
    workloads.write_fm_distances(laws, 3, work / "api-fm.json")
    ran.append("benchmark API phases: write_pairings, write_noise_modes, write_fm_distances")
    return ran


def definitions(path: Path) -> list:
    """(first line, qualified name, line count) of every function in ``path``.

    The first line is that of the first decorator, as in ``co_firstlineno``.
    """
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, prefix + child.name, child.end_lineno - first + 1))
                visit(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def main():
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        sys.setprofile(profile)
        try:
            ran = run_program(Path(work))
        finally:
            sys.setprofile(None)
    ran_at = {(code.co_filename, code.co_firstlineno) for code in called}

    for line in ran:
        print(line)
    total = uncalled = lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for first, name, count in definitions(path):
            total += 1
            if (str(path), first) not in ran_at:
                uncalled += 1
                lines += count
                print(f"{path.stem}.{name} ({count})")
    print(f"{uncalled} of {total} functions in src/mfcpoisson/ never called, {lines} lines; "
          "calls in forked pool workers are not seen")


if __name__ == "__main__":
    main()
