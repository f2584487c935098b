"""Experiment drivers: wire a validated config into solvers, checks and files.

Scenario-level work fans out through :func:`simulate.map_blocks`, one
contiguous block of scenarios per worker, and the results come back in
scenario order; a scenario's numbers do not depend on the block it runs in,
so the output does not depend on ``--threads``.  Every float in a CSV is written as ``format(v, ".17g")``;
the trajectory writer gets those bytes for whole arrays at once from
:func:`format_17g`, which needs no per-value Python call outside a few rare
cases.  A file that cannot be written raises :class:`errors.OutputError`
naming its path; the CLI checks ``--out``, and ``verify fp`` its pairing
table, with :func:`check_writable` before any simulation.
"""
from __future__ import annotations

import errno
import json
import math
import os
import stat
import tempfile
from contextlib import contextmanager, suppress

import numpy as np

from . import __version__
from .coefficients import lq_coefficients
from .config import ConfigError, ExperimentConfig
from .errors import EstimateError, OutputError
from .lq import solve_riccati
from .simulate import RelaxedRule, map_blocks, standard_error
from .verify import (
    CheckReport,
    block_costs,
    check_bsde,
    check_chattering,
    check_fp,
    check_hjb,
    check_optimality,
    check_smp,
    compare_noise_modes,
    hjb_sample_measures,
    optimal_feedback_rule,
    pairing_table,
    simulate_optimal,
)

VERIFY_KINDS = ("smp", "bsde", "hjb", "fp", "optimality", "noise")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _provenance(cfg: ExperimentConfig) -> str:
    return f"mfcpoisson {__version__} config_hash={cfg.config_hash}"


def _quoted(text: str) -> str:
    """A CSV string field, quoted when it holds a comma, quote or newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _replacement_mode(target):
    """The mode ``open(target, "w")`` would leave ``target`` with, when
    ``target`` can be replaced by a file written beside it, else None.

    That is when ``target`` is a writable regular file, or is missing, in a
    directory the process can write.
    """
    try:
        st = os.stat(target)
    except FileNotFoundError:
        mode = None
    else:
        if not (stat.S_ISREG(st.st_mode) and os.access(target, os.W_OK)):
            return None
        mode = stat.S_IMODE(st.st_mode)
    if not os.access(os.path.dirname(target), os.W_OK | os.X_OK):
        return None
    if mode is None:
        umask = os.umask(0o077)  # the only way to read it; set back at once
        os.umask(umask)
        mode = 0o666 & ~umask
    return mode


@contextmanager
def _output_file(path):
    """A text file that ends up at ``path``; an OSError while it is open
    becomes an OutputError.

    A regular file, or a missing path, in a writable directory is written to
    a temporary file beside it, which replaces it only once the body has
    finished, so a run that fails leaves ``path`` as it was.  It gets the mode
    ``open(path, "w")`` would give.  Any other target, such as a FIFO or a
    device, is opened directly.  The rows written inside do no I/O of their
    own, so the error is the file's.
    """
    try:
        target = os.path.realpath(path)
        mode = _replacement_mode(target)
        if mode is None:
            with open(path, "w") as fh:
                yield fh
            return
        directory, name = os.path.split(target)
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
        try:
            with open(fd, "w") as fh:
                os.fchmod(fd, mode)
                yield fh
            os.replace(tmp, target)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as err:
        raise OutputError(path, err.strerror or str(err)) from err


def check_writable(path):
    """Raise :class:`OutputError` when ``path`` plainly cannot be written.

    A missing path needs a writable directory above it; an existing one
    must be a writable non-directory (by ``os.access``).  Nothing is opened
    or created, so a FIFO is opened once, at write time.  Called before any
    simulation, so such a path costs no Monte Carlo work; the open at write
    time still reports whatever else goes wrong.
    """
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            parent = os.path.dirname(path) or "."
            os.stat(parent)  # a missing directory raises here
            writable = os.access(parent, os.W_OK | os.X_OK)
        else:
            if stat.S_ISDIR(mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            writable = os.access(path, os.W_OK)
        if not writable:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as err:
        raise OutputError(path, err.strerror or str(err)) from err


def write_csv(path, cfg: ExperimentConfig, header, rows, extra_comment="") -> int:
    """Write ``rows`` (any iterable) as they come; returns the row count.

    A row is a tuple of values, formatted one by one (floats as ``.17g``),
    or a ``str`` of whole lines already formatted that way, such as the
    trajectory writer's block of grid nodes.
    """
    n_rows = 0
    with _output_file(path) as fh:
        fh.write(f"# {_provenance(cfg)}\n")
        if extra_comment:
            fh.write(f"# {extra_comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
                n_rows += row.count("\n")
            else:
                fh.write(",".join(
                    format(v, ".17g") if isinstance(v, (float, np.floating))
                    else _quoted(v) if isinstance(v, str) else str(v)
                    for v in row
                ) + "\n")
                n_rows += 1
    return n_rows


def write_json(path, cfg: ExperimentConfig, payload: dict):
    body = {"version": __version__, "config_hash": cfg.config_hash}
    body.update(payload)
    with _output_file(path) as fh:
        fh.write(json.dumps(body, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Exact %.17g of float64 arrays
# ---------------------------------------------------------------------------
#
# For 1e-4 <= |v| < 1e17, format(v, ".17g") is fixed-point text of the
# 17-digit integer D = round(|v| * 10**(16 - k)), k = floor(log10|v|), with
# trailing zeros and a bare point cut.  For k in [-4, 16] the scale
# 10**(16 - k) is an exact double, and Dekker's two-product (Numer. Math. 18,
# 1971), with Veltkamp splitting in place of a fused multiply-add, gives
# |v| * 10**(16 - k) = hi + lo exactly.  hi is an integer, so D is hi +
# floor(lo), plus one when the remainder lo - floor(lo) is above one half.

_K_MIN, _K_MAX = -4, 16
_SCALES = 10.0 ** (16 - np.arange(_K_MIN, _K_MAX + 1))
_VELTKAMP = 134217729.0  # 2**27 + 1


def _halves(a):
    """Veltkamp split of float64 ``a`` into two 26-bit halves that sum to it."""
    t = _VELTKAMP * a
    high = t - (t - a)
    return high, a - high


_SCALES_HIGH, _SCALES_LOW = _halves(_SCALES)


def _digit_quads():
    """The ASCII text "0000" .. "9999" of each group of four digits, as one uint32.

    Built a column at a time, so importing the module touches little memory.
    """
    text = np.empty((10000, 4), np.uint8)
    for i, p in enumerate((1000, 100, 10, 1)):
        text[:, i] = np.arange(10000, dtype=np.uint32) // p % 10 + ord("0")
    return text.view(np.uint32).ravel()


_QUADS = _digit_quads()


def _scaled(a, j):
    """floor(a * 10**(16 - k)) for k = j + _K_MIN, and whether the remainder
    is above one half and whether it is exactly one half."""
    hi = a * _SCALES[j]
    a_high, a_low = _halves(a)
    s_high, s_low = _SCALES_HIGH[j], _SCALES_LOW[j]
    lo = ((a_high * s_high - hi) + a_high * s_low + a_low * s_high) + a_low * s_low
    whole = np.floor(lo)
    half = whole + 0.5
    return hi.astype(np.int64) + whole.astype(np.int64), lo > half, lo == half


def _fixed_17g(x):
    """``%.17g`` of float64 ``x`` by array arithmetic, and where it is exact.

    Returns a NUL-padded ``S24`` array and a boolean mask.  Outside the mask
    are values not in 1e-4 <= |v| < 1e17 (zeros, subnormals, huge and
    non-finite values) and exact ties at the 17th digit, which ``format``
    rounds half to even; their text here is meaningless.
    """
    a = np.abs(x)
    with np.errstate(invalid="ignore"):
        exact = (a >= 1e-4) & (a < 1e17)
    a[~exact] = 1.0
    j = np.clip(np.floor(np.log10(a)).astype(np.int64) - _K_MIN, 0, _K_MAX - _K_MIN)
    d, up, tie = _scaled(a, j)
    # log10 may land one decade off next to a power of ten; D says which way
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))
    if off.size:
        j[off] = np.clip(j[off] + np.where(d[off] < 10**16, -1, 1), 0, _K_MAX - _K_MIN)
        d[off], up[off], tie[off] = _scaled(a[off], j[off])
    d += up
    exact &= ~tie & (d >= 10**16) & (d < 10**17)

    # the 17 digits, from two uint32 halves: columns 3..19 of a 20-byte row
    # (x - q * m in place of x % m, which numpy computes several times slower)
    top = d // 10**8
    bottom = (d - top * 10**8).astype(np.uint32)
    top = top.astype(np.uint32)
    top4, bottom4 = top // 10**4, bottom // 10**4
    g0 = top // 10**8
    quads = [g0, top4 - g0 * 10**4, top - top4 * 10**4, bottom4, bottom - bottom4 * 10**4]
    words = np.empty((x.size, 5), np.uint32)
    for w, q in enumerate(quads):
        words[:, w] = _QUADS[q]
    digits = words.view(np.uint8)
    # cut trailing zeros of the fraction: the digits after both the last
    # non-zero one and the units digit (index k); most values end in non-zero
    last = np.full(x.size, 16)
    zero_end = np.flatnonzero(quads[4] % 10 == 0)
    tail = d[zero_end]
    last[zero_end] -= sum(tail % 10**p == 0 for p in range(1, 17))
    keep = np.maximum(last, j + _K_MIN)
    cut = np.flatnonzero(keep < 16)
    digits[cut] *= np.arange(20) <= keep[cut, None] + 3

    # lay the digits out by (k, sign): one block of rows per pair present,
    # found by a (radix) sort of the pair codes; the rows move as 20- and
    # 24-byte items, which numpy copies fastest
    out = np.zeros(x.size, "S24")
    rows = words.view("V20").ravel()
    code = (2 * j + (x < 0)).astype(np.uint8)
    order = np.argsort(code, kind="stable")
    ends = np.cumsum(np.bincount(code)).tolist()
    for c, (begin, end) in enumerate(zip([0] + ends, ends)):
        if begin == end:
            continue
        kk, neg = c // 2 + _K_MIN, c % 2
        sel = order[begin:end]
        src = rows[sel].view(np.uint8).reshape(-1, 20)[:, 3:]
        dst = np.zeros((sel.size, 24), np.uint8)
        head = ("-" if neg else "") + ("0." + "0" * (-kk - 1) if kk < 0 else "")
        p, n_int = len(head), max(kk + 1, 0)
        dst[:, :p] = np.frombuffer(head.encode(), np.uint8)
        dst[:, p:p + n_int] = src[:, :n_int]
        if 0 <= kk < 16:  # the point, unless no fraction digit is left
            dst[:, p + n_int] = np.where(last[sel] > kk, ord("."), 0)
            p += 1
        dst[:, p + n_int:p + 17] = src[:, n_int:]
        out[sel] = dst.view("S24").ravel()
    return out, exact


def format_17g(values) -> np.ndarray:
    """``format(v, ".17g")`` of each float64 in ``values``, as bytes.

    Returns a flat NUL-padded ``S24`` array (``.tolist()`` drops the
    padding).  The values :func:`_fixed_17g` cannot lay out exactly are
    formatted one at a time by ``format`` itself.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    out, exact = _fixed_17g(x)
    rest = np.flatnonzero(~exact)
    if rest.size:
        out[rest] = [format(v, ".17g").encode() for v in x[rest].tolist()]
    return out


def _ascii_rows(texts) -> np.ndarray:
    """Strings as the rows of a NUL-padded uint8 matrix."""
    table = np.array([t.encode() for t in texts])
    return table.view(np.uint8).reshape(len(texts), table.itemsize)


def _joined(*fields) -> str:
    """Concatenate NUL-padded uint8 fields along their last axis; drop the NULs."""
    shape = np.broadcast_shapes(*(f.shape[:-1] for f in fields))
    block = np.empty(shape + (sum(f.shape[-1] for f in fields),), np.uint8)
    col = 0
    for f in fields:
        block[..., col:col + f.shape[-1]] = f
        col += f.shape[-1]
    return block.tobytes().translate(None, b"\0").decode("ascii")


# ---------------------------------------------------------------------------
# Subcommand drivers: each returns (exit_code, summary line)
# ---------------------------------------------------------------------------

def run_riccati(cfg: ExperimentConfig, out: str):
    sol = solve_riccati(cfg.params, cfg.mc.mode, cfg.mc.riccati_steps)
    rows = [(float(t), float(b), float(e)) for t, b, e in zip(sol.ts, sol.beta, sol.eta)]
    write_csv(out, cfg, ["t", "beta", "eta"], rows, extra_comment=f"mode={cfg.mc.mode}")
    return 0, f"riccati: {len(rows)} nodes -> {out}"


#: values per formatted array: the trajectory writer formats this many
#: states (and controls) at a time, whole grid nodes
_CHUNK_VALUES = 8192


def _trajectory_blocks(cfg: ExperimentConfig):
    """Trajectory CSV text, one string per chunk of grid nodes of one scenario.

    One scenario's cloud is in memory at a time, and one chunk's text: whole
    nodes, about ``_CHUNK_VALUES`` states.  A chunk's rows are NUL-padded
    byte fields (the ``scenario,particle,`` prefixes, made once per
    scenario, each node's time, and :func:`format_17g` of its states and
    controls) joined with the NULs dropped, so the bytes are those of
    row-by-row writing with ``format(v, ".17g")``.
    """
    params, mc = cfg.params, cfg.mc
    sol = solve_riccati(params, mc.mode, mc.riccati_steps)
    n = mc.particles
    nodes_per_chunk = max(1, _CHUNK_VALUES // n)
    comma, newline = np.array([ord(",")], np.uint8), np.array([ord("\n")], np.uint8)
    for scenario in range(mc.scenarios):
        cloud = simulate_optimal(params, sol, mc, scenario)
        prefixes = _ascii_rows([f"{scenario},{i}," for i in range(n)])
        times = cloud.times.tolist()
        last_step = cloud.grid.n_steps - 1
        for start in range(0, len(times), nodes_per_chunk):
            stop = min(start + nodes_per_chunk, len(times))
            states = format_17g(cloud.states[start:stop])
            controls = format_17g(cloud.controls[np.minimum(np.arange(start, stop), last_step)])
            yield _joined(
                prefixes,
                _ascii_rows([format(t, ".17g") for t in times[start:stop]])[:, None, :],
                comma,
                states.view(np.uint8).reshape(stop - start, n, 24),
                comma,
                controls.view(np.uint8).reshape(stop - start, n, 24),
                newline,
            )


def run_simulate(cfg: ExperimentConfig, out: str):
    n_rows = write_csv(
        out, cfg,
        ["scenario", "particle", "time", "state", "control"],
        _trajectory_blocks(cfg),
        extra_comment="control column holds the value applied on the step starting at `time`",
    )
    return 0, f"simulate: {n_rows} rows -> {out}"


def run_cost(cfg: ExperimentConfig, out: str, threads: int = 1):
    params, mc = cfg.params, cfg.mc
    coeffs = lq_coefficients(params)
    rule = optimal_feedback_rule(solve_riccati(params, mc.mode, mc.riccati_steps))
    costs = np.array(map_blocks(
        lambda block: [c for c, in block_costs(coeffs, [rule], params.T, mc, block)],
        mc.scenarios, threads,
    ))
    mean, std_error = float(costs.mean()), standard_error(costs)
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise EstimateError(f"non-finite cost estimate {mean} +/- {std_error}")
    payload = {
        "mean": mean,
        "std_error": std_error,
        "scenarios": int(cfg.mc.scenarios),
        "per_scenario": [float(c) for c in costs],
    }
    if out:
        write_json(out, cfg, payload)
    return 0, f"cost: {payload['mean']:.6g} +/- {payload['std_error']:.2g}"


def run_chattering(cfg: ExperimentConfig, out: str, threads: int = 1):
    chat = cfg.verify["chattering"]
    report = check_chattering(
        lq_coefficients(cfg.params),
        RelaxedRule.constant(chat["support"], chat["weights"]),
        cfg.params.T, cfg.mc,
        levels=[int(n) for n in chat["levels"]],
        sigma_factor=float(chat["sigma_factor"]),
        config_hash=cfg.config_hash,
        workers=threads,
    )
    if out:
        write_json(out, cfg, {"report": report.to_dict()})
    return (0 if report.passed else 1), _report_line(report)


def _report_line(report: CheckReport) -> str:
    flag = "PASS" if report.passed else ("INCONCLUSIVE" if report.inconclusive else "FAIL")
    return f"{report.name}: {flag}"


def run_verify(kind: str, cfg: ExperimentConfig, out: str, threads: int = 1):
    params, mc = cfg.params, cfg.mc
    if kind not in VERIFY_KINDS:
        raise ConfigError(f"unknown verify kind {kind!r}; choose from {VERIFY_KINDS}")
    table_path = cfg.output.get("fp_pairings") if kind == "fp" else None
    if table_path:
        check_writable(table_path)
    try:
        if kind == "smp":
            sol = solve_riccati(params, mc.mode, mc.riccati_steps)
            cloud = simulate_optimal(params, sol, mc, scenario=0)
            report = check_smp(
                cloud, sol, cfg.u_grid, cfg.tolerance("smp"),
                n_samples=int(cfg.verify["smp_samples"]),
                sample_seed=mc.seed, config_hash=cfg.config_hash,
            )
        elif kind == "bsde":
            sol = solve_riccati(params, mc.mode, mc.riccati_steps)
            # one cloud at a time: check_bsde lets each go before the next
            clouds = (
                simulate_optimal(params, sol, mc, scenario=s)
                for s in range(mc.scenarios)
            )
            report = check_bsde(
                clouds, sol, cfg.tolerance("bsde"), config_hash=cfg.config_hash
            )
        elif kind == "hjb":
            sol = solve_riccati(params, "common", mc.riccati_steps)
            tol = cfg.tolerance("hjb")
            if tol is None:
                tol = 1e-6 + 10.0 * sol.midpoint_residual()
            samples = hjb_sample_measures(
                sol, int(cfg.verify["hjb_samples"]),
                int(cfg.verify["hjb_max_atoms"]), seed=mc.seed,
            )
            report = check_hjb(
                sol, samples, tol, seed=mc.seed, config_hash=cfg.config_hash
            )
        elif kind == "fp":
            report = check_fp(
                params, mc, ratio_band=tuple(cfg.verify["fp_ratio_band"]),
                config_hash=cfg.config_hash, workers=threads,
            )
            if table_path:
                sol = solve_riccati(params, mc.mode, mc.riccati_steps)
                cloud = simulate_optimal(params, sol, mc, scenario=0)
                rows = pairing_table(cloud, lq_coefficients(params))
                write_csv(
                    table_path, cfg,
                    ["step", "phi", "predicted", "observed", "residual"], rows,
                    extra_comment="one-step weak-form predictions, scenario 0",
                )
        elif kind == "optimality":
            report = check_optimality(
                params, cfg.perturbations, mc, config_hash=cfg.config_hash,
                workers=threads,
            )
        else:  # noise
            report = compare_noise_modes(
                params, mc, jump_ratio_min=float(cfg.verify["noise_ratio_min"]),
                config_hash=cfg.config_hash, workers=threads,
            )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if out:
        write_json(out, cfg, {"report": report.to_dict()})
    return (0 if report.passed else 1), _report_line(report)
