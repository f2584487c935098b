"""Output checks and the independent references they compare against.

Nothing here calls the code it checks.  The Riccati coefficients come from
scipy's adaptive DOP853 integrator, the optimal feedback and the first two
moments of the one-step law prediction are written out from the closed-form
linear-quadratic solution, and Fortet-Mourier distances come from an exact
dynamic program over lattice-valued test functions.

Every check returns a list of failure messages; an empty list is a pass.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

#: |value_function - reference value at the initial law| (paired-mc).
VALUE_TOL = 1e-6
#: relative gap between the cost phase mean and the report's optimal cost.
COST_MATCH_RTOL = 1e-12
#: finest chattering gap < coarsest + CHATTER_SIGMAS * their combined sigma.
CHATTER_SIGMAS = 3.0
#: |control column - feedback recomputed from the reference Riccati solution|.
CONTROL_TOL = 1e-6
#: relative gap between predicted moments and their closed-form one-step value.
MOMENT_RTOL = 1e-9
#: |fm_distance - lattice oracle|.
FM_TOL = 1e-6
#: idiosyncratic cost: |mean - value| <= SE_FACTOR * std_error + ALLOWANCE.
IDIO_SE_FACTOR = 3.0
IDIO_ALLOWANCE = 0.012
#: spacing of the lattice that FM atoms are rounded to; 2 is a multiple of it,
#: so the oracle's optimum sits on lattice values and its sums are exact.
FM_LATTICE = 1.0 / 64.0

TRAJECTORY_HEADER = ["scenario", "particle", "time", "state", "control"]
PAIRINGS_HEADER = ["step", "phi", "predicted", "observed", "residual"]


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

class LQReference:
    """Closed-form linear-quadratic solution built from a raw config dict."""

    def __init__(self, cfg: dict, mode: str):
        m = cfg["model"]
        self.b1, self.b2, self.b3 = float(m["b1"]), float(m["b2"]), float(m["b3"])
        self.sigma, self.c, self.T = float(m["sigma"]), float(m["c"]), float(m["T"])
        marks = cfg.get("jumps", {}).get("marks", [])
        self.gamma_l1 = sum(float(r["lambda"]) * float(r["gamma"]) for r in marks)
        self.gamma_l2 = sum(float(r["lambda"]) * float(r["gamma"]) ** 2 for r in marks)
        self.gammas = [float(r["gamma"]) for r in marks]
        self.mode = mode
        self._dense = self._integrate()

    def _rhs(self, beta, eta):
        """Forward-time derivatives of the Riccati pair (beta, eta)."""
        quad = self.b3**2 * beta**2 / (1.0 + self.gamma_l2 * beta)
        s = beta + eta
        denom = 1.0 + self.gamma_l2 * (s if self.mode == "common" else beta)
        return (
            quad - self.sigma**2 * beta,
            -quad - (2.0 * self.b1 - (self.b2 + self.b3) ** 2 * s / denom) * s,
        )

    def _integrate(self):
        def backward(tau, y):
            db, de = self._rhs(y[0], y[1])
            return [-db, -de]

        sol = solve_ivp(
            backward, (0.0, self.T), [self.c, -self.c], method="DOP853",
            rtol=1e-12, atol=1e-14, dense_output=True,
        )
        if not sol.success:
            raise RuntimeError(f"reference Riccati integration failed: {sol.message}")
        return sol.sol

    def beta_eta(self, t):
        """(beta, eta) at times t, as arrays."""
        t = np.asarray(t, dtype=float)
        y = self._dense(self.T - t.ravel())
        return y[0].reshape(t.shape), y[1].reshape(t.shape)

    def value(self, mean: float, second: float) -> float:
        """Value at t = 0 of an initial law with the given first two moments."""
        beta, eta = self.beta_eta(0.0)
        return float(0.5 * (beta * second + eta * mean**2))

    def feedback(self, t, x, mean):
        """Optimal control at states x given the cloud mean, vectorised."""
        beta, eta = self.beta_eta(t)
        s = beta + eta
        mean_gain = (self.b2 + self.b3) * s / (
            1.0 + self.gamma_l2 * (s if self.mode == "common" else beta)
        )
        gain = self.b3 * beta / (1.0 + self.gamma_l2 * beta)
        return -mean_gain * mean - gain * (x - mean)


def init_moments(cfg: dict) -> tuple[float, float]:
    """First and second moment of the configured Gaussian initial law."""
    init = cfg["sim"]["init"]
    if init.get("kind", "gaussian") != "gaussian":
        raise ValueError("the benchmark configs use a Gaussian initial law")
    mean, std = float(init["mean"]), float(init["std"])
    return mean, mean**2 + std**2


def fm_lattice_oracle(atoms_a, atoms_b, h: float = FM_LATTICE) -> float:
    """Exact Fortet-Mourier distance of two uniform measures on the lattice hZ.

    sup of <f, a - b> over 1-Lipschitz f with |f| <= 1.  Between consecutive
    lattice nodes an optimal f moves by -h, 0 or +h and takes values in
    {-1, -1 + h, ..., 1}, so a dynamic program over (node, level) is exact.
    """
    atoms_a = np.asarray(atoms_a, dtype=float)
    atoms_b = np.asarray(atoms_b, dtype=float)
    ia = np.rint(atoms_a / h).astype(int)
    ib = np.rint(atoms_b / h).astype(int)
    if np.any(ia * h != atoms_a) or np.any(ib * h != atoms_b):
        raise ValueError("oracle atoms must lie on the lattice")
    lo = min(ia.min(), ib.min())
    mass = np.zeros(max(ia.max(), ib.max()) - lo + 1)
    np.add.at(mass, ia - lo, 1.0 / ia.size)
    np.add.at(mass, ib - lo, -1.0 / ib.size)

    levels = np.linspace(-1.0, 1.0, int(round(2.0 / h)) + 1)
    best = mass[0] * levels
    for m in mass[1:]:
        reach = best.copy()
        np.maximum(reach[1:], best[:-1], out=reach[1:])
        np.maximum(reach[:-1], best[1:], out=reach[:-1])
        best = reach + m * levels
    return float(best.max())


def lattice_round(x, h: float = FM_LATTICE) -> np.ndarray:
    return np.rint(np.asarray(x, dtype=float) / h) * h


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

def _data_lines(path, header):
    """Yield the data lines of a program CSV after checking its header."""
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
        if line.rstrip("\n").split(",") != header:
            raise ValueError(f"{path}: header {line.strip()!r} != {header}")
        yield from fh


def load_trajectory(path) -> np.ndarray:
    """The trajectory CSV as a float array with the five header columns."""
    lines = _data_lines(path, TRAJECTORY_HEADER)
    return np.loadtxt(lines, delimiter=",", ndmin=2)


def terminal_states(path) -> list:
    """Per scenario, the states at the last node, streaming the trajectory CSV.

    Holds one node of one scenario at a time, so reading a large file adds
    next to nothing to the process's peak memory.
    """
    out = []
    scenario, time, block = None, None, []
    for line in _data_lines(path, TRAJECTORY_HEADER):
        s, _, t, x, _ = line.split(",")
        if s != scenario:
            if block:
                out.append(np.array(block, dtype=float))
            scenario, time, block = s, t, []
        elif t != time:
            time, block = t, []
        block.append(x)
    if block:
        out.append(np.array(block, dtype=float))
    return out


def load_pairings(path):
    """(steps, names, values) of a pairings CSV; values = predicted, observed, residual.

    Test-function names may contain commas, so each row is split from both
    ends: the first field is the step, the last three are numbers.
    """
    steps, names, values = [], [], []
    for line in _data_lines(path, PAIRINGS_HEADER):
        head, rest = line.rstrip("\n").split(",", 1)
        name, pred, obs, res = rest.rsplit(",", 3)
        steps.append(int(head))
        names.append(name)
        values.append((float(pred), float(obs), float(res)))
    return np.array(steps, dtype=int), names, np.array(values, dtype=float).reshape(-1, 3)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def report_passes(label: str, payload: dict) -> list:
    report = payload.get("report", {})
    if report.get("passed") is not True:
        return [f"{label}: report did not pass ({report.get('stats')})"]
    return []


def check_paired_mc(cfg: dict, optimality: dict, chattering: dict, cost: dict) -> list:
    """Optimality and chattering reports, value function, cost pairing."""
    fails = report_passes("verify optimality", optimality)
    fails += report_passes("chattering", chattering)
    stats = optimality["report"]["stats"]
    ref = LQReference(cfg, cfg["sim"]["mode"])
    value = ref.value(*init_moments(cfg))
    if not abs(stats["value_function"] - value) <= VALUE_TOL:
        fails.append(
            f"value_function {stats['value_function']!r} != reference {value!r}"
        )
    if not abs(cost["mean"] - stats["cost_optimal"]) <= COST_MATCH_RTOL * abs(
        stats["cost_optimal"]
    ):
        fails.append(
            f"cost mean {cost['mean']!r} != optimality cost_optimal {stats['cost_optimal']!r}"
        )
    chat = chattering["report"]["stats"]
    gaps, sigmas = chat["gaps"], chat["gap_sigmas"]
    # with 8 scenarios each gap carries a Monte Carlo error comparable to the
    # drop from the coarsest to the finest level, so compare within 3 sigma
    slack = CHATTER_SIGMAS * math.hypot(sigmas[0], sigmas[-1])
    if not gaps[-1] < gaps[0] + slack:
        fails.append(
            f"chattering finest gap {gaps[-1]!r} is not below coarsest {gaps[0]!r} + {slack:.3g}"
        )
    return fails


def check_trajectory(cfg: dict, data: np.ndarray) -> list:
    """One row per (scenario, particle, node); controls are the optimal feedback."""
    sim = cfg["sim"]
    n, n_scen, dt = int(sim["particles"]), int(sim["scenarios"]), float(sim["dt"])
    T = float(cfg["model"]["T"])
    base = np.linspace(0.0, T, int(math.ceil(T / dt)) + 1)
    ref = LQReference(cfg, sim["mode"])
    fails = []
    scen = data[:, 0]
    if not np.array_equal(np.unique(scen), np.arange(n_scen)) or np.any(np.diff(scen) < 0):
        return [f"scenario column is not 0..{n_scen - 1} in blocks"]
    worst = 0.0
    for s in range(n_scen):
        block = data[scen == s]
        if block.shape[0] % n:
            fails.append(f"scenario {s}: {block.shape[0]} rows is not a multiple of {n}")
            continue
        nodes = block.shape[0] // n
        particle, t, x, u = (block[:, c].reshape(nodes, n) for c in (1, 2, 3, 4))
        if not np.array_equal(particle, np.broadcast_to(np.arange(n), (nodes, n))):
            fails.append(f"scenario {s}: particle column is not 0..{n - 1} per node")
        if np.any(t != t[:, :1]):
            fails.append(f"scenario {s}: time varies within a node")
        times = t[:, 0]
        if times[0] != 0.0 or times[-1] != T or np.any(np.diff(times) <= 0):
            fails.append(f"scenario {s}: nodes do not run 0 < ... < T")
        if not np.all(np.isin(base, times)):
            fails.append(f"scenario {s}: a uniform grid node is missing")
        means = x.mean(axis=1, keepdims=True)
        expected = ref.feedback(times[:, None], x, means)
        # the last node starts no step; it repeats the control of the one before
        last_ok = min(
            np.max(np.abs(u[-1] - expected[-2])), np.max(np.abs(u[-1] - expected[-1]))
        )
        worst = max(worst, float(np.max(np.abs(u[:-1] - expected[:-1]))), float(last_ok))
    if not worst <= CONTROL_TOL:
        fails.append(f"control column off the optimal feedback by {worst:.3g} > {CONTROL_TOL}")
    return fails


def check_pairings(cfg: dict, pairings, trajectory: np.ndarray) -> list:
    """One-step law predictions of scenario 0 against closed-form moments.

    Mass is conserved; the first moment's prediction is closed-form at every
    step (the jump displacement gamma * u does not depend on the pre-jump
    state) and the second moment's at every step without an event.  The
    observed column must equal the moments of the trajectory CSV.
    """
    steps, names, vals = pairings
    pred, obs, res = vals.T
    sim, model = cfg["sim"], cfg["model"]
    n, dt, T = int(sim["particles"]), float(sim["dt"]), float(model["T"])
    block = trajectory[trajectory[:, 0] == 0]
    nodes = block.shape[0] // n
    t = block[::n, 2]
    x = block[:, 3].reshape(nodes, n)
    u = block[:, 4].reshape(nodes, n)
    kinds = list(dict.fromkeys(names))
    fails = []
    if steps.size != (nodes - 1) * len(kinds) or not np.array_equal(
        steps, np.repeat(np.arange(nodes - 1), len(kinds))
    ) or names != kinds * (nodes - 1):
        return [f"pairings rows are not {nodes - 1} steps x {len(kinds)} test functions"]
    if np.any(res != pred - obs):
        fails.append("residual column != predicted - observed")

    by_name = {k: (pred[i :: len(kinds)], obs[i :: len(kinds)]) for i, k in enumerate(kinds)}
    m1, m2 = x.mean(axis=1), (x**2).mean(axis=1)
    ref = LQReference(cfg, sim["mode"])
    base = np.linspace(0.0, T, int(math.ceil(T / dt)) + 1)
    h = np.diff(t)
    events = ~np.isin(t[1:], base)
    ubar = u[:-1].mean(axis=1)
    drift = model["b1"] * m1[:-1][:, None] + model["b2"] * ubar[:, None] + model["b3"] * u[:-1]
    comp = ref.gamma_l1 * u[:-1]
    (gamma,) = ref.gammas  # one mark, so an event's displacement is gamma * u
    first = m1[:-1] + h * (drift - comp).mean(axis=1) + events * gamma * ubar
    second = m2[:-1] + h * (
        2.0 * x[:-1] * (drift - comp) + (ref.sigma * x[:-1]) ** 2
    ).mean(axis=1)

    def close(a, b):
        return np.all(np.abs(a - b) <= MOMENT_RTOL * (1.0 + np.abs(b)))

    p0, o0 = by_name.get("x^0", (None, None))
    if p0 is None or not (close(p0, 1.0) and close(o0, 1.0)):
        fails.append("x^0 pairing does not conserve mass")
    p1, o1 = by_name.get("x^1", (None, None))
    if p1 is None or not close(o1, m1[1:]):
        fails.append("x^1 observed != trajectory mean")
    elif not close(p1, first):
        fails.append("x^1 prediction != closed-form one-step mean")
    p2, o2 = by_name.get("x^2", (None, None))
    if p2 is None or not close(o2, m2[1:]):
        fails.append("x^2 observed != trajectory second moment")
    elif not close(p2[~events], second[~events]):
        fails.append("x^2 prediction != closed-form one-step second moment")
    return fails


def check_fm(distances) -> list:
    """Each (atoms_a, atoms_b, distance) against the lattice oracle."""
    worst = max(
        abs(d - fm_lattice_oracle(a, b)) for a, b, d in distances
    ) if distances else math.inf
    if not worst <= FM_TOL:
        return [f"fm_distance off the lattice oracle by {worst:.3g} > {FM_TOL}"]
    return []


def check_idiosyncratic(cfg: dict, noise: dict, cost: dict) -> list:
    """Noise-mode report and the cost against the idiosyncratic value.

    When no common-noise scenario drew a jump, the program reports a jump
    ratio of 0 and fails, though there is nothing to compare; the ratio and
    the verdict are then not judged, and the rest of the report still is.
    """
    stats = noise["report"]["stats"]
    fails = []
    if not stats.get("mean_jump_idiosyncratic", 0.0) > 0.0:
        fails.append("compare-noise recorded no idiosyncratic jump")
    if stats.get("mean_jump_common", 0.0) != 0.0 or not math.isnan(
        stats.get("event_increment_ratio_common", 0.0)
    ):
        fails += report_passes("compare-noise", noise)
        ratio_min = float(cfg["verify"]["noise_ratio_min"])
        if not stats.get("jump_ratio", 0.0) >= ratio_min:
            fails.append(f"jump ratio {stats.get('jump_ratio')!r} < {ratio_min}")
    if not stats["riccati_gap_no_jumps"] <= 1e-10:
        fails.append(f"Riccati gap without jumps {stats['riccati_gap_no_jumps']!r} > 1e-10")
    value = LQReference(cfg, "idiosyncratic").value(*init_moments(cfg))
    bound = IDIO_SE_FACTOR * cost["std_error"] + IDIO_ALLOWANCE
    if not abs(cost["mean"] - value) <= bound:
        fails.append(f"cost {cost['mean']!r} vs value {value!r}: gap exceeds {bound:.3g}")
    return fails
