"""Independent reference computations the test suite checks the package against.

No oracle here imports the implementation paths it validates: the Fortet-Mourier
oracle is an exact dynamic program over lattice-valued test functions, the
Riccati oracle is an adaptive high-order integrator, the quadratic
minimizer oracle is a parameter grid search, and the SMP oracle evaluates the
Hamiltonian from the raw coefficient evaluators one control at a time.  The
trajectory-writer oracle formats one row, and one value, at a time; the
Fokker-Planck oracles pair one dictionary entry at a time through validated
measures, with the test functions written out as plain formulas.  The relaxed
Euler oracle takes only the grid and the random draws from the simulator and
forms each step's joint law and kernel averages itself, and the projection
oracle expands a ragged relaxed joint one atom at a time.  The slab-rule
oracle sums a relaxed rule's cumulative weights afresh on every call.  The
noise-mode oracle reads its jump statistics from the stored history of each
scenario's cloud, serially.

The last part of the file holds test-only helpers that do build on package
functions: the relaxed Hamiltonians ``hamiltonian_relaxed`` and
``delta_hamiltonian_relaxed`` (on ``hamiltonian_strict``,
``delta_hamiltonian_strict`` and ``joint_with_kernel``), the extension
transformation ``extend`` (on ``joint_with_kernel``), the
Kantorovich-Rubinstein metric ``kr_distance`` (on ``fm_distance``, with the
transport LP ``transport_cost`` under the package's ``_check_exact_size``),
the shift operator ``apply_shift`` (on ``measureflow._jumped_atoms``), the
weak-form drift pairing ``pair_A0`` and the chain-rule residual
``ito_residual`` (on ``aggregate_coeffs``, ``drift_pairings`` and
``shift_adjoint``), ``measure_path_from_cloud`` (on the measure classes),
and ``LQValueEvaluator`` (on ``value_function``).  ``default_config``,
``OpenLoopRule``, ``copy_expectation``, ``second_moment``,
``value_gradient`` and ``MeasurePath`` are fixtures that need no package
code.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import linprog

#: Lattice spacing used by the FM oracle; a negative power of two so every
#: lattice value is an exact binary float and the DP is free of rounding.
FM_LATTICE = 1.0 / 64.0


def fm_bruteforce_1d(atoms_a, weights_a, atoms_b, weights_b, h=FM_LATTICE):
    """Exact sup of integral f d(a-b) over 1-Lipschitz f with |f| <= 1.

    Requires all atoms to sit on the lattice h*Z.  Test functions are
    piecewise linear with knots on the lattice; at a vertex of the feasible
    polytope every knot value lies on {-1 + m*h} (h divides 2), so a dynamic
    program over lattice-valued knot sequences with steps in {-h, 0, +h}
    attains the exact LP optimum.
    """
    atoms_a = np.asarray(atoms_a, dtype=float).reshape(-1)
    atoms_b = np.asarray(atoms_b, dtype=float).reshape(-1)
    all_atoms = np.concatenate([atoms_a, atoms_b])
    idx = np.round(all_atoms / h).astype(int)
    if not np.allclose(idx * h, all_atoms, rtol=0.0, atol=1e-13):
        raise ValueError("oracle needs lattice-aligned atoms")

    lo, hi = idx.min(), idx.max()
    n_nodes = hi - lo + 1
    coeff = np.zeros(n_nodes)
    for k, w in zip(idx[: len(atoms_a)] - lo, np.asarray(weights_a, dtype=float)):
        coeff[k] += w
    for k, w in zip(idx[len(atoms_a) :] - lo, np.asarray(weights_b, dtype=float)):
        coeff[k] -= w

    n_levels = int(round(2.0 / h)) + 1
    values = -1.0 + h * np.arange(n_levels)

    best = coeff[0] * values
    for k in range(1, n_nodes):
        up = np.empty_like(best)
        down = np.empty_like(best)
        up[:-1], up[-1] = best[1:], -np.inf
        down[1:], down[0] = best[:-1], -np.inf
        best = coeff[k] * values + np.maximum(best, np.maximum(up, down))
    return float(best.max())


def riccati_reference(b1, b2, b3, sigma, c, big_t, gamma_l2, mode):
    """High-accuracy (beta, eta) at t=0 via adaptive DOP853 in reversed time."""

    def rhs(tau, y):
        beta, eta = y
        quad = b3 * b3 * beta * beta / (1.0 + gamma_l2 * beta)
        dbeta = -(sigma * sigma) * beta + quad
        s = beta + eta
        denom = 1.0 + gamma_l2 * (s if mode == "common" else beta)
        deta = -quad - (2.0 * b1 - (b2 + b3) ** 2 * s / denom) * s
        # reversed time: d/dtau = -d/ds
        return [-dbeta, -deta]

    sol = solve_ivp(
        rhs,
        (0.0, big_t),
        [c, -c],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(sol.message)

    def at_time(t):
        beta, eta = sol.sol(big_t - t)
        return float(beta), float(eta)

    return at_time


def quadratic_min_bruteforce(a, b, c, d, atoms, weights, n_grid=161, radius=6.0):
    """Grid search over constant-plus-linear candidates xi = s + r(x - mean)."""
    atoms = np.asarray(atoms, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    mean = float(weights @ atoms)
    centered = atoms - mean

    def functional(xi):
        e_xi = float(weights @ xi)
        return (
            a * float(weights @ (xi**2))
            + b * float(weights @ (xi * atoms))
            + c * e_xi**2
            + d * e_xi
        )

    best = np.inf
    for s in np.linspace(-radius, radius, n_grid):
        for r in np.linspace(-radius, radius, n_grid):
            best = min(best, functional(s + r * centered))
    return best


def riccati_rk4_reference(b1, b2, b3, sigma, c, big_t, gamma_l2, mode, n_steps):
    """Classical RK4 for (beta, eta), backward from T, on numpy 2-vectors.

    Every stage is a numpy array expression, as in the original array-based
    solver, so a solver on plain floats must reproduce these nodes bit for
    bit.  Returns ``(beta, eta, bad_node)``: ``bad_node`` is the first node
    (in integration order) whose denominator 1 + Gamma*beta, or under common
    noise 1 + Gamma*(beta + eta), is not positive, else None; nodes not
    reached stay NaN.
    """
    h = big_t / n_steps
    beta = np.full(n_steps + 1, np.nan)
    eta = np.full(n_steps + 1, np.nan)

    def ill_posed(b, e):
        return 1.0 + gamma_l2 * b <= 0.0 or (
            mode == "common" and 1.0 + gamma_l2 * (b + e) <= 0.0
        )

    def f(y):
        bv = np.asarray(y[0], dtype=float)
        ev = np.asarray(y[1], dtype=float)
        quad = b3**2 * bv**2 / (1.0 + gamma_l2 * bv)
        dbeta = -(sigma**2) * bv + quad
        s = bv + ev
        denom = 1.0 + gamma_l2 * (s if mode == "common" else bv)
        deta = -quad - (2.0 * b1 - (b2 + b3) ** 2 * s / denom) * s
        return -np.array([float(dbeta), float(deta)])

    beta[-1], eta[-1] = c, -c
    if ill_posed(beta[-1], eta[-1]):
        return beta, eta, n_steps
    y = np.array([c, -c])
    for k in range(n_steps - 1, -1, -1):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        beta[k], eta[k] = y
        if ill_posed(beta[k], eta[k]):
            return beta, eta, k
    return beta, eta, None


def smp_phi_reference(coeffs, rho, xs, us, i, u_values, p, big_p, k):
    """H + E'[delta H] of particle i at each control in u_values, point by point.

    (xs, us) are the N particles of the strict joint law rho; ``p`` and
    ``big_p`` (shape (N,)) and ``k`` (shape (N, n_marks)) their adjoint values.
    The own Hamiltonian uses particle i's adjoint; the mean-field term is the
    copy-mean of the linear-derivative kernel, evaluated one control at a
    time with each term summed in the order drift, diffusion, running cost,
    then marks, so a vectorized evaluation must reproduce it bit for bit.
    """
    lam = coeffs.jumps.intensities
    x = float(xs[i])
    values = []
    for u in np.asarray(u_values, dtype=float):
        own = (
            np.asarray(coeffs.drift(x, rho, u), dtype=float) * p[i]
            + np.asarray(coeffs.diffusion(x, rho, u), dtype=float) * big_p[i]
            + np.asarray(coeffs.running_cost(x, rho, u), dtype=float)
        )
        cross = (
            np.asarray(coeffs.ddrho_drift(xs, us, rho, x, u), dtype=float) * p
            + np.asarray(coeffs.ddrho_diffusion(xs, us, rho, x, u), dtype=float) * big_p
            + np.asarray(coeffs.ddrho_running_cost(xs, us, rho, x, u), dtype=float)
        )
        for j in range(coeffs.jumps.n_marks):
            own = own + np.asarray(coeffs.jump(x, rho, u, j), dtype=float) * (
                k[i, j] * lam[j]
            )
            cross = cross + np.asarray(
                coeffs.ddrho_jump(xs, us, rho, x, u, j), dtype=float
            ) * (k[:, j] * lam[j])
        values.append(float(own) + float(np.broadcast_to(cross, xs.shape).mean()))
    return np.array(values)


# ---------------------------------------------------------------------------
# Trajectory CSV, one row and one value at a time
# ---------------------------------------------------------------------------

def trajectory_csv_reference(cfg, path):
    """Write ``simulate``'s trajectory CSV row by row, each value by ``format``."""
    from mfcpoisson import __version__
    from mfcpoisson.lq import solve_riccati
    from mfcpoisson.verify import simulate_optimal

    params, mc = cfg.params, cfg.mc
    sol = solve_riccati(params, mc.mode, mc.riccati_steps)
    with open(path, "w") as fh:
        fh.write(f"# mfcpoisson {__version__} config_hash={cfg.config_hash}\n")
        fh.write(
            "# control column holds the value applied on the step starting at `time`\n"
        )
        fh.write("scenario,particle,time,state,control\n")
        for scenario in range(mc.scenarios):
            cloud = simulate_optimal(params, sol, mc, scenario)
            n_steps = cloud.grid.n_steps
            for k, t in enumerate(cloud.times.tolist()):
                controls = cloud.controls[min(k, n_steps - 1)].tolist()
                for i, (x, u) in enumerate(zip(cloud.states[k].tolist(), controls)):
                    fh.write(",".join(
                        format(v, ".17g") if isinstance(v, float) else str(v)
                        for v in (scenario, i, t, x, u)
                    ) + "\n")


# ---------------------------------------------------------------------------
# Fokker-Planck pairings, one dictionary entry at a time
# ---------------------------------------------------------------------------

class _Entry:
    def __init__(self, name, value, dx, dxx):
        self.name, self.value, self.dx, self.dxx = name, value, dx, dxx


def _as_float(x):
    return np.asarray(x, dtype=float)


def dictionary_reference():
    """The default test functions, each value and derivative its own formula."""
    entries = []
    for k in range(5):
        entries.append(_Entry(
            f"x^{k}",
            lambda x, k=k: _as_float(x) ** k,
            lambda x, k=k: k * _as_float(x) ** (k - 1) if k else 0.0 * np.asarray(x),
            lambda x, k=k: k * (k - 1) * _as_float(x) ** (k - 2)
            if k >= 2 else 0.0 * np.asarray(x),
        ))
    for center, width in ((0.0, 1.0), (1.0, 0.5)):
        inv2 = 1.0 / width**2

        def value(x, center=center, inv2=inv2):
            return np.exp(-0.5 * inv2 * (_as_float(x) - center) ** 2)

        entries.append(_Entry(
            f"gauss({center},{width})",
            value,
            lambda x, c=center, i=inv2, v=value: -i * (_as_float(x) - c) * v(x),
            lambda x, c=center, i=inv2, v=value: (i**2 * (_as_float(x) - c) ** 2 - i)
            * v(x),
        ))
    level = 2.0

    def th(x):
        return np.tanh(_as_float(x) / level)

    entries.append(_Entry(
        f"clamp({level})",
        lambda x: level * th(x),
        lambda x: 1.0 - th(x) ** 2,
        lambda x: -2.0 * th(x) * (1.0 - th(x) ** 2) / level,
    ))
    return entries


def aggregate_reference(mu, kernel, coeffs):
    """(drift, diffusion_sq, jump) kernel averages through a validated joint law."""
    from mfcpoisson.measures import JointEmpiricalMeasure

    n, a = kernel.supports.shape
    rho = JointEmpiricalMeasure.strict(
        np.repeat(mu.atoms[:, 0], a),
        kernel.supports.reshape(-1),
        (mu.weights[:, None] * kernel.weights).reshape(-1),
    )
    x = mu.atoms[:, 0][:, None]
    sup, kw = kernel.supports, kernel.weights

    def avg(vals):
        return (np.broadcast_to(_as_float(vals), sup.shape) * kw).sum(axis=1)

    drift = avg(coeffs.drift(x, rho, sup))
    diff_sq = avg(_as_float(coeffs.diffusion(x, rho, sup)) ** 2)
    jump = np.stack(
        [avg(coeffs.jump(x, rho, sup, j)) for j in range(coeffs.jumps.n_marks)],
        axis=1,
    ) if coeffs.jumps.n_marks else np.zeros((mu.n_atoms, 0))
    return drift, diff_sq, jump


def pair_A0_reference(phi, mu, aggregated, coeffs):
    """<A0 phi, mu> of one entry, the compensator formed for this entry alone."""
    drift, diff_sq, jump = aggregated
    x = mu.atoms[:, 0]
    compensator = jump @ coeffs.jumps.intensities if coeffs.jumps.n_marks else 0.0
    integrand = (drift - compensator) * _as_float(phi.dx(x))
    integrand = integrand + 0.5 * diff_sq * _as_float(phi.dxx(x))
    return float(mu.weights @ integrand)


def _jump_pairing(signed, phi):
    return float(signed.weights @ _as_float(phi.value(signed.atoms[:, 0])))


def fp_step_reference(mu, kernel, dt, events, coeffs, dictionary, jump_state=None):
    """One-step predicted pairings, entry by entry."""
    from mfcpoisson.measureflow import apply_A1

    jump_mu, jump_kernel = jump_state if jump_state is not None else (mu, kernel)
    aggregated = aggregate_reference(mu, kernel, coeffs)
    jump_pairings = {}
    for mark in events:
        signed = apply_A1(jump_mu, jump_kernel, mark, coeffs)
        for phi in dictionary:
            jump_pairings[phi.name] = (
                jump_pairings.get(phi.name, 0.0) + _jump_pairing(signed, phi)
            )
    out = {}
    for phi in dictionary:
        predicted = float(mu.weights @ _as_float(phi.value(mu.atoms[:, 0])))
        predicted += dt * pair_A0_reference(phi, mu, aggregated, coeffs)
        out[phi.name] = predicted + jump_pairings.get(phi.name, 0.0)
    return out


def _cloud_events(cloud):
    events = {}
    if cloud.mode == "common":
        for node, mark, _ in cloud.event_log:
            events.setdefault(node, []).append(mark)
    return events


def pairing_table_reference(cloud, coeffs, dictionary):
    """(step, name, predicted, observed, residual) rows through validated laws."""
    from mfcpoisson.measureflow import RelaxedKernel
    from mfcpoisson.measures import EmpiricalMeasure

    events = _cloud_events(cloud)
    rows = []
    for k in range(cloud.grid.n_steps):
        h = float(cloud.times[k + 1] - cloud.times[k])
        mu = EmpiricalMeasure.from_samples(cloud.states[k])
        kernel = RelaxedKernel.dirac(cloud.controls[k])
        marks = events.get(k + 1, [])
        jump_state = None
        if marks:
            jump_state = (EmpiricalMeasure.from_samples(cloud.pre_jump_states[k + 1]), kernel)
        preds = fp_step_reference(mu, kernel, h, marks, coeffs, dictionary, jump_state)
        for phi in dictionary:
            observed = float(np.mean(_as_float(phi.value(cloud.states[k + 1]))))
            rows.append((k, phi.name, preds[phi.name], observed, preds[phi.name] - observed))
    return rows


def fp_terminal_error_reference(cloud, coeffs, dictionary):
    """Accumulated one-step predictions minus the terminal cloud, entry by entry."""
    from mfcpoisson.measureflow import RelaxedKernel, apply_A1
    from mfcpoisson.measures import EmpiricalMeasure

    events = _cloud_events(cloud)
    predicted = {
        phi.name: float(np.mean(_as_float(phi.value(cloud.states[0]))))
        for phi in dictionary
    }
    for k in range(cloud.grid.n_steps):
        h = float(cloud.times[k + 1] - cloud.times[k])
        mu = EmpiricalMeasure.from_samples(cloud.states[k])
        kernel = RelaxedKernel.dirac(cloud.controls[k])
        aggregated = aggregate_reference(mu, kernel, coeffs)
        for phi in dictionary:
            predicted[phi.name] += h * pair_A0_reference(phi, mu, aggregated, coeffs)
        for mark in events.get(k + 1, ()):
            pre_mu = EmpiricalMeasure.from_samples(cloud.pre_jump_states[k + 1])
            signed = apply_A1(pre_mu, RelaxedKernel.dirac(cloud.controls[k]), mark, coeffs)
            for phi in dictionary:
                predicted[phi.name] += _jump_pairing(signed, phi)
    x_T = cloud.states[-1]
    return np.array([
        predicted[phi.name] - float(np.mean(_as_float(phi.value(x_T))))
        for phi in dictionary
    ])


# ---------------------------------------------------------------------------
# Relaxed Euler loop, one step at a time through validated joints
# ---------------------------------------------------------------------------

def relaxed_euler_reference(coeffs, rule, n, T, dt, mode, seed, scenario, init):
    """States and sample cost of a relaxed rule's run, written out step by step.

    Each step forms the Bayes product of the cloud and the rule's
    (support, weights) rows as a validated strict joint, atom (x_i, u_ia)
    with weight q_ia / n, and averages every coefficient over a particle's
    atoms row by row.  Randomness is drawn as the simulator draws it.
    """
    from mfcpoisson.measures import EmpiricalMeasure, JointEmpiricalMeasure
    from mfcpoisson.simulate import build_grid, sample_poisson_path, substream

    jumps = coeffs.jumps
    gen = substream(seed, scenario, "poisson")
    if mode == "common":
        path = sample_poisson_path(jumps, T, gen)
        times = build_grid(T, dt, path.times).times
        events = [(t, mark, None) for t, mark in zip(path.times, path.marks)]
    else:
        paths = [sample_poisson_path(jumps, T, gen) for _ in range(n)]
        times = build_grid(T, dt).times
        events = sorted(
            ((t, mark, i) for i, p in enumerate(paths) for t, mark in zip(p.times, p.marks)),
            key=lambda event: event[0],
        )
    by_node = {}
    for t, mark, owner in events:
        node = int(np.searchsorted(times, t, side="left"))
        by_node.setdefault(node, []).append((int(mark), owner))

    w = np.full(n, 1.0 / n)

    def joint(x, support, qw):
        a = support.shape[1]
        return JointEmpiricalMeasure.strict(
            np.repeat(x, a), support.reshape(-1), (w[:, None] * qw).reshape(-1)
        )

    def per_particle(fn, x, rho, support, qw, *extra):
        vals = np.broadcast_to(_as_float(fn(x[:, None], rho, support, *extra)), support.shape)
        return (vals * qw).sum(axis=1)

    gen_brownian = substream(seed, scenario, "brownian")
    x = init.sample(n, substream(seed, scenario, "init"))
    states = [x]
    cost = 0.0
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        support, qw = rule.evaluate(times[k], x, float(x.mean()))
        rho = joint(x, support, qw)
        drift = per_particle(coeffs.drift, x, rho, support, qw)
        for j in range(jumps.n_marks):
            drift = drift - jumps.intensities[j] * per_particle(
                coeffs.jump, x, rho, support, qw, j
            )
        diffusion = per_particle(coeffs.diffusion, x, rho, support, qw)
        cost += h * per_particle(coeffs.running_cost, x, rho, support, qw).mean()
        noise = gen_brownian.standard_normal(n)
        x = x + drift * h + diffusion * np.sqrt(h) * noise
        node_events = by_node.get(k + 1, [])
        if mode == "common":
            for mark, _ in node_events:
                x = x + per_particle(coeffs.jump, x, joint(x, support, qw), support, qw, mark)
        elif node_events:
            # every jump of the step reads the end-of-step cloud and law
            pre, rho_minus = x, joint(x, support, qw)
            x = pre.copy()
            for mark, owner in node_events:
                x[owner] += per_particle(coeffs.jump, pre, rho_minus, support, qw, mark)[owner]
        states.append(x)
    terminal = coeffs.terminal_cost(x, EmpiricalMeasure.from_samples(x))
    cost += float(np.broadcast_to(_as_float(terminal), x.shape).mean())
    return np.array(states), cost


# ---------------------------------------------------------------------------
# Relaxed-to-strict projection, one atom at a time
# ---------------------------------------------------------------------------

def project_reference(states, rows, weights):
    """Strict projection of a ragged relaxed joint, as a validated joint.

    Atom i is (states[i], q_i) with weight weights[i], where q_i is a
    ``(support, weights)`` pair of any length; every (x_i, u_ia) becomes an
    atom of weight weights[i] * q_i({u_ia}).
    """
    from mfcpoisson.measures import JointEmpiricalMeasure

    xs, us, ws = [], [], []
    for x, (support, q_weights), w in zip(states, rows, weights):
        for u, qw in zip(support, q_weights):
            xs.append(x)
            us.append(u)
            ws.append(w * qw)
    return JointEmpiricalMeasure.strict(np.asarray(xs), np.asarray(us), np.asarray(ws))


# ---------------------------------------------------------------------------
# Slab (chattering) control, recomputed from the relaxed rule on every call
# ---------------------------------------------------------------------------

def chattering_reference(relaxed, n_slabs, horizon, t, states, cond_mean):
    """Control of the slab rule at time t, from the rule's atoms on this call.

    The atom whose cumulative-weight bracket holds the slab phase is played;
    the cumulative weights are summed afresh from ``relaxed.atoms``.
    """
    support, weights = relaxed.atoms(t, states, cond_mean)
    slab = horizon / n_slabs
    theta = (t / slab) % 1.0
    if support.ndim == 1:
        idx = min(int((np.cumsum(weights) <= theta).sum()), support.shape[0] - 1)
        return np.full(states.shape[0], support[idx])
    cum = np.cumsum(weights, axis=1)
    idx = np.minimum((cum <= theta).sum(axis=1), support.shape[1] - 1)
    return support[np.arange(states.shape[0]), idx]


# ---------------------------------------------------------------------------
# Noise-mode comparison from the stored cloud histories
# ---------------------------------------------------------------------------

def compare_noise_reference(params, mc, jump_ratio_min=5.0, config_hash=""):
    """Report of ``compare_noise_modes``, its jump statistics read off each
    scenario's full :class:`ParticleCloud`: the node means from the stored
    states, the event entries from the cloud's event log.
    """
    from dataclasses import replace

    from mfcpoisson.coefficients import JumpSpec
    from mfcpoisson.lq import solve_riccati
    from mfcpoisson.verify import CheckReport, simulate_optimal

    stripped = replace(params, jumps=JumpSpec.empty())
    sol_c0 = solve_riccati(stripped, "common", mc.riccati_steps)
    sol_i0 = solve_riccati(stripped, "idiosyncratic", mc.riccati_steps)
    riccati_gap = float(max(
        np.max(np.abs(sol_c0.beta - sol_i0.beta)),
        np.max(np.abs(sol_c0.eta - sol_i0.eta)),
    ))
    stats = {"riccati_gap_no_jumps": riccati_gap}
    passed = riccati_gap <= 1e-10
    inconclusive = False
    if params.jumps.n_marks > 0 and params.jumps.gamma_l2 > 0:
        mean_jumps, n_events, event_vs_quiet = {}, {}, {}
        for mode in ("common", "idiosyncratic"):
            sol = solve_riccati(params, mode, mc.riccati_steps)
            mode_mc = replace(mc, mode=mode)
            displacements, quiet_incr, event_incr = [], [], []
            for scenario in range(mc.scenarios):
                cloud = simulate_optimal(params, sol, mode_mc, scenario)
                event_nodes = {node for node, _, _ in cloud.event_log}
                incr = np.abs(np.diff(cloud.states.mean(axis=1)))
                displacements += [abs(d) for _, _, d in cloud.event_log]
                quiet_incr += [incr[k] for k in range(len(incr)) if (k + 1) not in event_nodes]
                event_incr += [incr[k] for k in range(len(incr)) if (k + 1) in event_nodes]
            mean_jumps[mode] = float(np.mean(displacements)) if displacements else 0.0
            n_events[mode] = len(displacements)
            event_vs_quiet[mode] = (
                float(np.mean(event_incr) / np.mean(quiet_incr))
                if event_incr and quiet_incr
                else np.nan
            )
        ratio = (
            mean_jumps["common"] / mean_jumps["idiosyncratic"]
            if mean_jumps["idiosyncratic"] > 0
            else np.inf
        )
        stats.update({
            "mean_jump_common": mean_jumps["common"],
            "mean_jump_idiosyncratic": mean_jumps["idiosyncratic"],
            "jump_ratio": float(ratio),
            "event_increment_ratio_common": event_vs_quiet["common"],
            "event_increment_ratio_idiosyncratic": event_vs_quiet["idiosyncratic"],
        })
        inconclusive = n_events["common"] == 0
        passed = passed and ratio >= jump_ratio_min and not inconclusive
    return CheckReport(
        name="noise-modes", passed=bool(passed), inconclusive=inconclusive,
        tolerance=jump_ratio_min, stats=stats, seed=mc.seed, config_hash=config_hash,
    ).to_dict()


# ---------------------------------------------------------------------------
# Test-only helpers built on package functions
# ---------------------------------------------------------------------------
#
# The relaxed-side objects of the paper (relaxed Hamiltonians, the
# Kantorovich-Rubinstein metric, the extension transformation), the chain-rule
# harness along a measure path and a few fixtures.  No program path runs
# them; the tests check the package's definitions through them.

def default_config(seed: int = 20240901) -> dict:
    """A complete runnable configuration for the built-in model."""
    return {
        "model": {"b1": 0.5, "b2": 0.4, "b3": 1.0, "sigma": 0.4, "c": 1.0, "T": 1.0},
        "jumps": {"marks": [{"z": 1.0, "lambda": 1.0, "gamma": 0.3}]},
        "sim": {
            "particles": 500,
            "scenarios": 16,
            "dt": 1e-3,
            "seed": seed,
            "mode": "common",
            "init": {"kind": "gaussian", "mean": 1.0, "std": 0.5},
        },
        "verify": {},
        "output": {},
    }


class OpenLoopRule:
    """Strict open-loop table; piecewise constant in time, one column per particle."""

    kind = "strict"

    def __init__(self, times, table):
        self.times = np.asarray(times, dtype=float)
        self.table = np.asarray(table, dtype=float)
        if self.table.shape[0] != self.times.shape[0]:
            raise ValueError("one table row per time knot")

    def evaluate(self, t, states, cond_mean):
        row = int(np.searchsorted(self.times, t, side="right")) - 1
        row = max(row, 0)
        return np.broadcast_to(self.table[row], states.shape).astype(float, copy=False)


def hamiltonian_relaxed(x, q, mu, kernel, adj, coeffs) -> float:
    """q-average of the strict Hamiltonian at the projection of the relaxed
    joint ``(mu, kernel)``; ``q`` is a kernel row's 1-D ``(support, weights)``."""
    from mfcpoisson.coefficients import hamiltonian_strict
    from mfcpoisson.measures import joint_with_kernel

    support, weights = q
    return float(weights @ hamiltonian_strict(
        x, support, joint_with_kernel(mu, kernel), adj, coeffs
    ))


def delta_hamiltonian_relaxed(x, q, mu, kernel, xp, qp, adj, coeffs) -> float:
    """Double q-average of the strict delta-Hamiltonian kernel; ``q`` and
    ``qp`` are ``(support, weights)`` rows as in :func:`hamiltonian_relaxed`."""
    from mfcpoisson.coefficients import delta_hamiltonian_strict
    from mfcpoisson.measures import joint_with_kernel

    (support, weights), (support_p, weights_p) = q, qp
    values = delta_hamiltonian_strict(
        x, support[:, None], joint_with_kernel(mu, kernel), xp, support_p, adj, coeffs
    )
    return float(weights @ values @ weights_p)


def extend(h, mu, kernel) -> float:
    """Extension transformation: evaluate a strict-joint functional on the
    relaxed joint ``(mu, kernel)`` through its projection."""
    from mfcpoisson.measures import joint_with_kernel

    return h(joint_with_kernel(mu, kernel))


def second_moment(rho) -> float:
    """Joint second moment sqrt(integral of |x|^2 + |u|^2)."""
    total = float(
        rho.weights
        @ (np.sum(rho.states**2, axis=1) + np.sum(rho.controls**2, axis=1))
    )
    return float(np.sqrt(max(total, 0.0)))


def transport_cost(weights_a, weights_b, cost) -> float:
    """Exact optimal-transport cost between two weight vectors.

    Solves the dense Kantorovich LP with the HiGHS simplex; one marginal
    constraint is dropped (it is implied by the others), which keeps the
    system full-rank.  Instances above ``MAX_EXACT_ATOMS`` atoms per side are
    rejected as by the package's exact metrics.
    """
    from mfcpoisson.measures import _check_exact_size

    na, nb = len(weights_a), len(weights_b)
    _check_exact_size(na, nb)
    if cost.shape != (na, nb):
        raise ValueError(f"cost matrix shape {cost.shape} != ({na}, {nb})")

    # Row constraints: sum_j T[i, j] = a_i; column constraints: sum_i T[i, j] = b_j.
    n_var = na * nb
    a_eq = np.zeros((na + nb - 1, n_var))
    for i in range(na):
        a_eq[i, i * nb : (i + 1) * nb] = 1.0
    for j in range(nb - 1):
        a_eq[na + j, j::nb] = 1.0
    b_eq = np.concatenate([weights_a, weights_b[:-1]])

    res = linprog(
        cost.reshape(-1),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0.0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _euclidean_cost(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=2))


def kr_distance(mu_a, kernel_a, mu_b, kernel_b) -> float:
    """Kantorovich-Rubinstein (Wasserstein-1) distance between relaxed joints.

    Ground metric between atoms (x, q) and (x', q') is |x - x'| + fm(q, q'),
    where q and q' are the kernel rows of the two atoms.
    """
    from mfcpoisson.errors import DimensionMismatchError
    from mfcpoisson.measures import EmpiricalMeasure, fm_distance

    kernel_a.require_cover(mu_a)
    kernel_b.require_cover(mu_b)
    if mu_a.dim != mu_b.dim:
        raise DimensionMismatchError(f"joints live on R^{mu_a.dim} and R^{mu_b.dim}")
    rows_a, rows_b = (
        [EmpiricalMeasure.trusted(s, w) for s, w in zip(k.supports, k.weights)]
        for k in (kernel_a, kernel_b)
    )
    q_cost = np.array([[fm_distance(qa, qb) for qb in rows_b] for qa in rows_a])
    cost = _euclidean_cost(mu_a.atoms, mu_b.atoms) + q_cost
    return transport_cost(mu_a.weights, mu_b.weights, cost)


def apply_shift(fn, mu, kernel, mark, coeffs):
    """Test-function shift operator: the kernel average of fn(x + jump) at each atom."""
    from mfcpoisson.measureflow import _jumped_atoms

    return kernel.average(fn(_jumped_atoms(mu, kernel, mark, coeffs)[0]))


def pair_A0(phi, mu, kernel, coeffs) -> float:
    """Weak-form drift generator: <(bhat - <gammahat, lambda>) phi' + diff phi''/2, mu>."""
    from mfcpoisson.measureflow import aggregate_coeffs, drift_pairings

    return drift_pairings(mu, aggregate_coeffs(mu, kernel, coeffs), coeffs, (phi,))[0]


def copy_expectation(cloud, t, fn, extra_states=None):
    """Per-particle empirical expectation of fn(own state, copy state).

    Under common noise the copies are the other particles of the same
    scenario (the conditional law given the shared path); under idiosyncratic
    noise the copy population may be enlarged with states pooled from other
    scenarios via ``extra_states``.
    """
    node = cloud.grid.node_of(t)
    x = cloud.states[node]
    copies = x if extra_states is None else np.concatenate([x, extra_states])
    if copies.size < 2:
        raise ValueError("need at least two copies")
    vals = np.asarray(fn(x[:, None], copies[None, :]), dtype=float)
    return np.broadcast_to(vals, (x.size, copies.size)).mean(axis=1)


# ---------------------------------------------------------------------------
# Chain rule along a measure path
# ---------------------------------------------------------------------------

@dataclass
class MeasurePath:
    """Discretized measure flow: per-node laws, per-step kernels, event records.

    ``jumps`` maps a node index to the events landing there, each carrying the
    pre-jump law and the kernel in force just before the event.
    """

    times: np.ndarray
    measures: list
    kernels: list
    jumps: dict


def measure_path_from_cloud(cloud) -> MeasurePath:
    """Laws, kernels and event records of a strict cloud, node by node."""
    from mfcpoisson.measures import EmpiricalMeasure, RelaxedKernel

    measures = [cloud.measure_at(k) for k in range(cloud.grid.n_steps + 1)]
    kernels = [
        RelaxedKernel.dirac(cloud.controls[k]) for k in range(cloud.grid.n_steps)
    ]
    jumps = {}
    for node, mark, _ in cloud.event_log:
        pre_mu = EmpiricalMeasure.from_samples(cloud.pre_jump_states[node])
        jumps.setdefault(node, []).append((mark, pre_mu, kernels[node - 1]))
    return MeasurePath(cloud.times, measures, kernels, jumps)


def ito_residual(evaluator, path: MeasurePath, coeffs):
    """Per-step defect of the chain rule for a functional of the measure flow.

    ``evaluator`` provides ``value(t, mu)``, ``dt(t, mu)``, ``dmu(t, mu, x)``
    and ``dx_dmu(t, mu, x)`` (the last two vectorized over atoms).  The
    residual of step k is the increment of ``value`` minus the drift pairing
    minus the event differences.
    """
    from mfcpoisson.measureflow import (
        TestFunction,
        aggregate_coeffs,
        drift_pairings,
        shift_adjoint,
    )

    for name in ("value", "dt", "dmu", "dx_dmu"):
        if not hasattr(evaluator, name):
            raise AttributeError(f"evaluator lacks {name!r}")
    times = path.times
    n_steps = len(times) - 1
    residuals = np.empty(n_steps)
    for k in range(n_steps):
        t, t_next = times[k], times[k + 1]
        h = t_next - t
        mu, kernel = path.measures[k], path.kernels[k]
        lifted = TestFunction(
            "dmu", value=None,
            dx=lambda x: evaluator.dmu(t, mu, x), dxx=lambda x: evaluator.dx_dmu(t, mu, x),
        )
        drift = evaluator.dt(t, mu) + drift_pairings(
            mu, aggregate_coeffs(mu, kernel, coeffs), coeffs, (lifted,)
        )[0]
        jump_part = 0.0
        for mark, pre_mu, pre_kernel in path.jumps.get(k + 1, ()):
            shifted = shift_adjoint(pre_mu, pre_kernel, mark, coeffs)
            jump_part += evaluator.value(t_next, shifted) - evaluator.value(t_next, pre_mu)
        increment = evaluator.value(t_next, path.measures[k + 1]) - evaluator.value(t, mu)
        residuals[k] = increment - drift * h - jump_part
    return residuals


def value_gradient(sol, t, x, mean):
    """Measure derivative of the value function at atom x: beta*x + eta*mean."""
    return sol.beta_at(t) * np.asarray(x, dtype=float) + sol.eta_at(t) * mean


class LQValueEvaluator:
    """Value function with the derivative pieces the measure chain rule needs."""

    def __init__(self, sol):
        self.sol = sol

    def value(self, t, mu) -> float:
        from mfcpoisson.lq import value_function

        return value_function(self.sol, t, mu)

    def dt(self, t, mu) -> float:
        dbeta, deta = self.sol.rhs_at(t)
        return float(0.5 * (dbeta * mu.second_moment_raw() + deta * mu.mean[0] ** 2))

    def dmu(self, t, mu, x):
        return value_gradient(self.sol, t, x, mu.mean[0])

    def dx_dmu(self, t, mu, x):
        return self.sol.beta_at(t) + 0.0 * np.asarray(x, dtype=float)
