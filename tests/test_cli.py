import csv
import json
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfcpoisson import simulate
from mfcpoisson.cli import main
from mfcpoisson.coefficients import lq_coefficients
from mfcpoisson.config import ConfigError, config_hash, load_config, parse_config
from mfcpoisson.errors import DivergenceError, IllPosedError
from mfcpoisson.experiments import _fixed_17g, format_17g, run_simulate, write_csv
from mfcpoisson.lq import solve_riccati

from _oracles import default_config, trajectory_csv_reference

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_config(**sim_overrides):
    cfg = default_config(seed=1234)
    cfg["sim"].update({"particles": 120, "scenarios": 4, "dt": 4e-3})
    cfg["sim"].update(sim_overrides)
    cfg["verify"] = {
        "riccati_steps": 1024,
        "smp_samples": 30,
        "hjb_samples": 25,
        "chattering": {"levels": [2, 8]},
    }
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the scenario pool by an in-process recorder of its sizes."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return [fn(a) for a in args]

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulate, "_TASK", None)
    return sizes


class TestConfigParsing:
    def test_valid_round_trip(self, tmp_path):
        path = write_config(tmp_path, small_config())
        cfg = load_config(path)
        assert cfg.params.b3 == 1.0
        assert cfg.mc.particles == 120
        assert len(cfg.config_hash) == 16

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.json")

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "model": {\n}')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert ":3:" in str(err.value) or ":2:" in str(err.value)

    def test_missing_seed_rejected(self):
        cfg = small_config()
        del cfg["sim"]["seed"]
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert "seed" in str(err.value)

    def test_nonpositive_tolerance_rejected(self):
        cfg = small_config()
        cfg["verify"]["tolerances"] = {"smp": 0.0}
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(small_config(mode="mixed"))

    def test_hash_depends_on_content(self):
        a = config_hash(small_config())
        b = config_hash(small_config(seed=999))
        assert a != b


class TestConfigFieldTypes:
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("sim", "particles", "100"),
            ("sim", "particles", 100.0),
            ("sim", "scenarios", True),
            ("sim", "seed", -1),
            ("sim", "seed", 1.5),
            ("sim", "dt", "0.01"),
            ("sim", "dt", math.inf),
            ("model", "b1", math.nan),
            ("model", "sigma", None),
            ("model", "T", False),
            ("sim", "particles", 10**6 + 1),
            ("sim", "scenarios", 2**70),
            ("verify", "riccati_steps", 10**6 + 1),
            ("verify", "smp_samples", 2**70),
            ("verify", "hjb_samples", 10**6 + 1),
            ("verify", "hjb_max_atoms", 10**6 + 1),
            ("verify", "chattering", {"levels": []}),
            ("verify", "chattering", {"levels": [0]}),
            ("verify", "chattering", {"levels": [2, 10**6 + 1]}),
            ("verify", "chattering", {"weights": [-0.5, 1.5]}),
            ("verify", "chattering", {"weights": [0, 0]}),
            ("verify", "chattering", {"support": [0.2]}),
            ("verify", "chattering", {"support": [0.2, math.nan]}),
            ("verify", "chattering", {"sigma_factor": "x"}),
            ("verify", "chattering", {"sigma_factor": 0.0}),
            ("verify", "noise_ratio_min", math.inf),
            ("verify", "noise_ratio_min", -1.0),
        ],
    )
    def test_bad_field_is_a_config_error_naming_it(self, tmp_path, capsys, section, key, value):
        cfg = small_config()
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(cfg)
        path = write_config(tmp_path, cfg)
        assert main(["riccati", "--config", path, "--out", str(tmp_path / "r.csv")]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "atoms, weights, field",
        [
            ([0.0, 1.0], [0.5, -0.5], "sim.init.weights"),
            ([0.0, 1.0], [0.5, math.nan], "sim.init.weights"),
            ([0.0, 1.0], [0.0, 0.0], "sim.init.weights"),
            ([0.0, 1.0, 2.0], [0.5, 0.5], "sim.init.weights"),
            ([0.0, math.inf], [0.5, 0.5], "sim.init.atoms"),
        ],
    )
    def test_bad_init_atoms_exit_2_naming_the_field(self, tmp_path, capsys, atoms, weights, field):
        cfg = small_config(init={"kind": "atoms", "atoms": atoms, "weights": weights})
        path = write_config(tmp_path, cfg)
        assert main(["cost", "--config", path]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [8, "64", 64.0, True])
    def test_bad_riccati_steps_exit_2_naming_the_field(self, tmp_path, capsys, steps):
        cfg = small_config()
        cfg["verify"]["riccati_steps"] = steps
        path = write_config(tmp_path, cfg)
        assert main(["riccati", "--config", path, "--out", str(tmp_path / "r.csv")]) == 2
        assert "verify.riccati_steps" in capsys.readouterr().err

    def test_step_longer_than_horizon_exits_2(self, tmp_path, capsys):
        cfg = small_config(dt=1.5)
        path = write_config(tmp_path, cfg)
        assert main(["cost", "--config", path]) == 2
        assert "sim.dt" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["gamma", "lambda", "z"])
    def test_string_mark_field_exits_2_naming_it(self, tmp_path, capsys, key):
        cfg = small_config()
        cfg["jumps"]["marks"][0][key] = "0.3"
        path = write_config(tmp_path, cfg)
        assert main(["cost", "--config", path]) == 2
        assert f"jumps.marks[0].{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("std", [-0.5, math.inf, math.nan, "0.5"])
    def test_bad_init_std_exits_2_naming_it(self, tmp_path, capsys, std):
        cfg = small_config(init={"kind": "gaussian", "mean": 1.0, "std": std})
        path = write_config(tmp_path, cfg)
        assert main(["cost", "--config", path]) == 2
        assert "sim.init.std" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, field",
        [
            ({"lo": 4.0, "hi": -4.0}, "verify.u_grid.lo"),
            ({"lo": 1.0, "hi": 1.0}, "verify.u_grid.lo"),
            ({"lo": math.nan}, "verify.u_grid.lo"),
            ({"hi": math.inf}, "verify.u_grid.hi"),
            ({"hi": "4"}, "verify.u_grid.hi"),
            ({"points": 3.5}, "verify.u_grid.points"),
            ({"points": 2}, "verify.u_grid.points"),
            ([-4.0, 4.0, 321], "verify.u_grid"),
            ({"points": 2**70}, "verify.u_grid.points"),
            ({"points": 10**6 + 1}, "verify.u_grid.points"),
        ],
    )
    def test_bad_u_grid_exits_2_naming_the_field(self, tmp_path, capsys, grid, field):
        cfg = small_config()
        cfg["verify"]["u_grid"] = grid
        path = write_config(tmp_path, cfg)
        assert main(["verify", "smp", "--config", path]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("smp_samples", 0),
            ("smp_samples", "30"),
            ("hjb_samples", 0),
            ("hjb_samples", 2.5),
            ("hjb_max_atoms", 0),
            ("hjb_max_atoms", True),
        ],
    )
    def test_bad_sample_count_exits_2_naming_it(self, tmp_path, capsys, key, value):
        cfg = small_config()
        cfg["verify"][key] = value
        path = write_config(tmp_path, cfg)
        command = "smp" if key == "smp_samples" else "hjb"
        assert main(["verify", command, "--config", path]) == 2
        assert f"verify.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "update, field",
        [
            ({"tolerances": [1e-8]}, "verify.tolerances"),
            ({"tolerances": {"smp": "1e-8"}}, "verify.tolerances.smp"),
            ({"tolerances": {"smp": math.inf}}, "verify.tolerances.smp"),
            ({"tolerances": {"bsde": None}}, "verify.tolerances.bsde"),
            ({"tolerances": {"fp": 0.1}}, "verify.tolerances.fp"),
            ({"perturbations": [{"kind": "gain", "amount": math.nan}]},
             "verify.perturbations[0].amount"),
            ({"perturbations": [{"kind": "gain", "amount": "0.5"}]},
             "verify.perturbations[0].amount"),
            ({"perturbations": [{"kind": "scale", "amount": 0.5}]},
             "verify.perturbations[0].kind"),
            ({"perturbations": [{"kind": "gain"}]}, "verify.perturbations[0]"),
            ({"perturbations": {"kind": "gain", "amount": 0.5}}, "verify.perturbations"),
            ({"fp_ratio_band": [0.7, 0.3]}, "verify.fp_ratio_band"),
            ({"fp_ratio_band": [0.0, 0.7]}, "verify.fp_ratio_band"),
            ({"fp_ratio_band": [0.3, math.nan]}, "verify.fp_ratio_band"),
            ({"fp_ratio_band": [0.3]}, "verify.fp_ratio_band"),
        ],
    )
    def test_bad_verify_field_exits_2_naming_it(self, tmp_path, capsys, update, field):
        cfg = small_config()
        cfg["verify"].update(update)
        with pytest.raises(ConfigError, match=re.escape(field)):
            parse_config(cfg)
        path = write_config(tmp_path, cfg)
        assert main(["verify", "fp", "--config", path]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("table", [True, {"a": 1}, 7.5, "", None, ["p.csv"]])
    def test_bad_fp_pairings_path_exits_2_naming_it(self, tmp_path, capsys, table):
        cfg = small_config()
        cfg["output"] = {"fp_pairings": table}
        with pytest.raises(ConfigError, match="output.fp_pairings"):
            parse_config(cfg)
        path = write_config(tmp_path, cfg)
        assert main(["verify", "fp", "--config", path]) == 2
        captured = capsys.readouterr()
        assert "output.fp_pairings" in captured.err
        assert captured.out == ""

    def test_null_hjb_tolerance_is_derived_and_accepted(self):
        cfg = small_config()
        cfg["verify"]["tolerances"] = {"hjb": None, "smp": 1e-9}
        assert parse_config(cfg).tolerance("hjb") is None

    @pytest.mark.parametrize("section", ["model", "sim", "verify", "output", "jumps"])
    def test_section_that_is_not_an_object_exits_2_naming_it(self, tmp_path, capsys, section):
        cfg = small_config()
        cfg[section] = [1.0, 2.0]
        path = write_config(tmp_path, cfg)
        assert main(["riccati", "--config", path, "--out", str(tmp_path / "r.csv")]) == 2
        assert section in capsys.readouterr().err

    def test_integer_model_field_and_zero_seed_accepted(self):
        cfg = small_config()
        cfg["model"]["T"] = 1
        cfg["sim"]["seed"] = 0
        assert parse_config(cfg).params.T == 1.0


class TestImportCost:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = "import sys, mfcpoisson.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_package_runs_with_scipy_unimportable(self):
        # numpy alone suffices at run time: with scipy unimportable the
        # package and the CLI import and the exact FM distance returns
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        blocked = (
            "import sys; sys.modules['scipy'] = None; import mfcpoisson, mfcpoisson.cli; "
            "from mfcpoisson.measures import EmpiricalMeasure, fm_distance; "
            "print(fm_distance(EmpiricalMeasure.from_samples([0.0]), "
            "EmpiricalMeasure.from_samples([0.5])))"
        )
        out = subprocess.run(
            [sys.executable, "-c", blocked], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert out.stdout.strip() == "0.5"


class TestCliBasics:
    def test_missing_config_exits_2(self, capsys):
        assert main(["riccati", "--config", "/no/such/file.json"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, tmp_path):
        path = write_config(tmp_path, small_config())
        with pytest.raises(SystemExit) as exc:
            main(["riccati", "--config", path, "--bogus"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_threads_below_one_exits_2_naming_it(self, tmp_path, capsys, pool_sizes, threads):
        path = write_config(tmp_path, small_config(particles=20, scenarios=2, dt=0.05))
        with pytest.raises(SystemExit) as exc:
            main(["cost", "--config", path, "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert pool_sizes == []

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        cfg = small_config()
        del cfg["model"]["b3"]
        path = write_config(tmp_path, cfg)
        assert main(["riccati", "--config", path]) == 2
        assert "b3" in capsys.readouterr().err


class TestRiccatiCommand:
    def test_csv_has_terminal_conditions_and_provenance(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out = tmp_path / "r.csv"
        assert main(["riccati", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# mfcpoisson")
        assert "config_hash=" in lines[0]
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(1.0)  # beta_T = c
        assert float(last[2]) == pytest.approx(-1.0)  # eta_T = -c

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["riccati", "--config", path, "--out", str(out1)])
        main(["riccati", "--config", path, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestCostCommand:
    def test_cost_json_and_thread_invariance(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        assert main(["cost", "--config", path, "--out", str(out1)]) == 0
        assert main(
            ["cost", "--config", path, "--out", str(out2), "--threads", "2"]
        ) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["scenarios"] == 4
        assert "config_hash" in payload

    def test_seed_override_changes_costs(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        main(["cost", "--config", path, "--out", str(out1)])
        main(["cost", "--config", path, "--out", str(out2), "--seed", "777"])
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["mean"] != b["mean"]
        assert a["config_hash"] != b["config_hash"]


class TestSimulateCommand:
    def test_trajectory_dump_shape(self, tmp_path):
        cfg = small_config()
        cfg["sim"].update({"particles": 5, "scenarios": 2, "dt": 0.25})
        cfg["jumps"] = {"marks": []}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert header == "scenario,particle,time,state,control"
        assert len(rows) == 2 * 5 * 5  # scenarios x particles x nodes

    def test_peak_memory_does_not_grow_with_scenarios(self, tmp_path):
        from mfcpoisson.experiments import run_simulate

        peaks = {}
        for n in (2, 8):
            cfg = parse_config(small_config(particles=50, scenarios=n, dt=0.01))
            tracemalloc.start()
            try:
                run_simulate(cfg, str(tmp_path / f"traj{n}.csv"))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] < 2 * peaks[2]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestVerificationMemory:
    """The verification paths hold one scenario, not the whole history."""

    def test_verify_bsde_peak_does_not_grow_with_scenarios(self):
        from mfcpoisson.experiments import run_verify

        peaks = {}
        for n in (2, 8):
            cfg = parse_config(small_config(particles=200, scenarios=n, dt=0.01))
            peaks[n] = _traced_peak(lambda: run_verify("bsde", cfg, ""))
        assert peaks[8] < 1.25 * peaks[2]

    def test_compare_noise_peak_does_not_grow_with_steps(self):
        from mfcpoisson.verify import MonteCarloSettings, compare_noise_modes

        params = parse_config(small_config()).params
        peaks = {}
        for dt in (0.01, 0.005):
            mc = MonteCarloSettings(
                particles=500, scenarios=2, dt=dt, seed=5,
                init=simulate.InitSpec("gaussian", 1.0, 0.5), riccati_steps=256,
            )
            peaks[dt] = _traced_peak(lambda: compare_noise_modes(params, mc))
        assert peaks[0.005] < 1.25 * peaks[0.01]


def _simulate_variant(variant: str):
    """lq_small at 2 scenarios, changed as ``variant`` says."""
    raw = json.loads((CONFIGS / "lq_small.json").read_text())
    raw["sim"]["scenarios"] = 2
    if variant == "idiosyncratic":
        raw["sim"]["mode"] = "idiosyncratic"
    elif variant == "37-particles":
        raw["sim"]["particles"] = 37
    elif variant == "jump-nodes":
        raw["sim"]["particles"] = 20
        raw["jumps"]["marks"] = [
            {"z": 1.0, "lambda": 20.0, "gamma": 0.3},
            {"z": 2.0, "lambda": 5.0, "gamma": -0.2},
        ]
    elif variant == "2-particles":  # the smallest cloud with an empirical law
        raw["sim"]["particles"] = 2
    elif variant == "zero-init":  # every state at t = 0 is 0.0, which format_17g hands to format
        raw["sim"]["init"] = {"kind": "gaussian", "mean": 0.0, "std": 0.0}
    return parse_config(raw)


class TestTrajectoryWriterBytes:
    @pytest.mark.parametrize(
        "variant",
        ["lq_small", "idiosyncratic", "2-particles", "37-particles", "jump-nodes", "zero-init"],
    )
    def test_file_equals_row_by_row_oracle(self, tmp_path, variant):
        cfg = _simulate_variant(variant)
        out, ref = tmp_path / "traj.csv", tmp_path / "ref.csv"
        code, line = run_simulate(cfg, str(out))
        trajectory_csv_reference(cfg, ref)
        assert out.read_bytes() == ref.read_bytes()
        n_rows = len(ref.read_text().splitlines()) - 3
        assert (code, line) == (0, f"simulate: {n_rows} rows -> {out}")
        if variant == "jump-nodes":  # the common events add nodes to the grid
            uniform_nodes = round(cfg.params.T / cfg.mc.dt) + 1
            assert n_rows > cfg.mc.scenarios * cfg.mc.particles * uniform_nodes


def _float_edges():
    """Values next to the edges of format_17g's array path, and outside it."""
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             0.09999999999999999, 1 + 2**-17, 1 + 3 * 2**-17, -(1 + 2**-17), 2.0**60,
             100.0, -1234.5, math.nan, math.inf, -math.inf]
    for p in range(-6, 19):
        for v in (10.0**p, -(10.0**p)):
            edges += [v, math.nextafter(v, 0.0), math.nextafter(v, math.copysign(math.inf, v))]
    return np.array(edges)


class TestFormat17g:
    """format_17g against format(v, ".17g"), one value at a time."""

    @staticmethod
    def assert_equal_to_format(values):
        got = format_17g(values).tolist()
        want = [format(v, ".17g").encode() for v in np.asarray(values, float).ravel().tolist()]
        bad = [(w, g) for w, g in zip(want, got) if w != g]
        assert len(got) == len(want) and not bad, bad[:5]

    @settings(max_examples=500, database=None, derandomize=True)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(1.7976931348623157e308)
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    @example(1 + 2**-17)  # ties at the 17th digit: half to even rounds down,
    @example(1 + 3 * 2**-17)  # and up
    @example(0.09999999999999999)
    def test_any_float(self, v):
        self.assert_equal_to_format([v])

    def test_edges(self):
        edges = _float_edges()
        self.assert_equal_to_format(edges)
        self.assert_equal_to_format(np.stack([edges, -edges]))  # any shape, read flat

    def test_seeded_sweep(self):
        rng = np.random.default_rng(20240901)
        bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
        self.assert_equal_to_format(bits)
        self.assert_equal_to_format(rng.normal(1.0, 0.5, 10**6))

    def test_array_path_and_fallback_both_run(self):
        edges = _float_edges()
        _, exact = _fixed_17g(edges)
        assert exact.any() and not exact.all()
        on_array_path = dict(zip(edges.tolist(), exact.tolist()))
        for v in (1e-4, math.nextafter(1e16, 0.0), 1e16, math.nextafter(1e17, 0.0),
                  0.09999999999999999, -1234.5):
            assert on_array_path[v], v
        for v in (1 + 2**-17, 1 + 3 * 2**-17, 0.0, 5e-324, math.nextafter(1e-4, 0.0), 1e17,
                  2.0**60, math.inf):
            assert not on_array_path[v], v  # a tie, or outside 1e-4 <= |v| < 1e17
        assert not _fixed_17g(np.array([math.nan]))[1][0]


@pytest.fixture
def no_euler_loop(monkeypatch):
    """Make any simulation fail the test: the Euler loop raises when entered."""
    def refuse(*args, **kwargs):
        raise AssertionError("an Euler loop ran")

    monkeypatch.setattr(simulate, "_run", refuse)


class TestOutputErrors:
    """An output path that cannot be written exits 2 with one line naming it,
    before any simulation; a run that fails later leaves the path as it was."""

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate"], ["riccati"], ["cost"], ["verify", "hjb"], ["chattering"],
            ["verify", "optimality"], ["verify", "fp"], ["compare-noise"],
        ],
        ids=" ".join,
    )
    def test_missing_directory_exits_2_naming_the_path(
        self, tmp_path, capsys, command, no_euler_loop
    ):
        path = write_config(tmp_path, small_config(particles=20, scenarios=2))
        out = tmp_path / "missing" / "out.txt"
        assert main([*command, "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"output error: cannot write {out}: No such file or directory"
        ]
        assert captured.out == ""

    def test_fp_pairings_in_a_missing_directory_exits_2_naming_it(
        self, tmp_path, capsys, no_euler_loop
    ):
        cfg = small_config(particles=60, scenarios=2, dt=0.05)
        table = tmp_path / "missing" / "pairings.csv"
        cfg["output"] = {"fp_pairings": str(table)}
        assert main(["verify", "fp", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"output error: cannot write {table}: No such file or directory"
        ]

    def test_a_directory_as_the_output_exits_2_naming_it(self, tmp_path, capsys, no_euler_loop):
        path = write_config(tmp_path, small_config(particles=20, scenarios=2))
        assert main(["cost", "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"output error: cannot write {tmp_path}: Is a directory"
        ]

    def test_an_unwritable_directory_exits_2_and_nothing_is_opened(
        self, tmp_path, capsys, monkeypatch, no_euler_loop
    ):
        path = write_config(tmp_path, small_config(particles=20, scenarios=2))
        out = tmp_path / "new.json"

        def refuse_open(*args, **kwargs):
            raise AssertionError("the check opened a path")

        monkeypatch.setattr(os, "access", lambda p, mode: False)
        monkeypatch.setattr(os, "open", refuse_open)
        assert main(["cost", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"output error: cannot write {out}: Permission denied"
        ]
        assert not out.exists()

    def test_a_fifo_output_is_opened_once(self, tmp_path):
        """The check does not open a FIFO: a reader gets the whole report."""
        path = write_config(tmp_path, small_config(particles=20, scenarios=2))
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        src = Path(__file__).resolve().parents[1] / "src"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mfcpoisson.cli", "cost", "--config", path,
                 "--out", str(fifo)],
                env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
                timeout=60,
            )
        finally:
            try:  # unblock a reader still waiting for a writer
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:
                pass
            reader.join(timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(received[0])["scenarios"] == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate"], ["cost"], ["chattering"], ["verify", "optimality"], ["verify", "fp"],
            ["compare-noise"],
        ],
        ids=" ".join,
    )
    def test_a_numerical_failure_leaves_the_output_paths_as_they_were(
        self, tmp_path, capsys, command
    ):
        cfg = small_config(particles=20, scenarios=2, dt=0.05)
        # the Riccati solution is finite; the cloud grows past the float range on step 2
        cfg["model"]["b1"] = 100.0
        cfg["sim"]["init"] = {"kind": "gaussian", "mean": 1e306, "std": 0.5}
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        table = tmp_path / "pairings.csv"
        cfg["output"] = {"fp_pairings": str(table)}
        old.write_text("kept\n")
        path = write_config(tmp_path, cfg)
        for out in (new, old):
            with np.errstate(over="ignore", invalid="ignore"):
                assert main([*command, "--config", path, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not new.exists() and not table.exists()
        assert old.read_text() == "kept\n"

    def test_cli_prints_no_traceback(self, tmp_path):
        path = write_config(tmp_path, small_config(particles=20, scenarios=2))
        out = tmp_path / "missing" / "traj.csv"
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "mfcpoisson.cli", "simulate", "--config", path,
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"output error: cannot write {out}: No such file or directory"
        ]


class TestVerifyCommands:
    def test_bsde_passes_and_is_deterministic(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
        assert main(["verify", "bsde", "--config", path, "--out", str(out1)]) == 0
        assert main(["verify", "bsde", "--config", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())["report"]
        assert report["passed"] is True
        assert report["stats"]["terminal_residual"] <= 1e-12

    def test_smp_passes(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out = tmp_path / "smp.json"
        assert main(["verify", "smp", "--config", path, "--out", str(out)]) == 0

    def test_smp_reports_the_signed_worst_undercut(self, tmp_path):
        out = tmp_path / "smp.json"
        path = str(CONFIGS / "lq_small.json")
        assert main(["verify", "smp", "--config", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["stats"]["max_undercut"] < 0.0

    def test_hjb_passes(self, tmp_path):
        path = write_config(tmp_path, small_config())
        assert main(["verify", "hjb", "--config", path]) == 0

    def test_compare_noise_alias(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out = tmp_path / "noise.json"
        assert main(["compare-noise", "--config", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["name"] == "noise-modes"

    def test_failing_check_exits_1(self, tmp_path):
        cfg = small_config()
        cfg["verify"]["chattering"] = {
            "support": [0.2, 0.8],
            "weights": [0.5, 0.5],
            "levels": [2, 4],
            "sigma_factor": 1e-9,
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "chat.json"
        assert main(["chattering", "--config", path, "--out", str(out)]) == 1
        assert json.loads(out.read_text())["report"]["passed"] is False


class TestNoiseModesWithoutCommonJump:
    def test_reported_inconclusive_and_exits_1(self, tmp_path, capsys):
        # this seed draws no common-noise event in any of 3 scenarios; the
        # shared path depends only on seed and scenario, so few particles do
        cfg = small_config(particles=40, scenarios=3, dt=0.02, seed=20240901 + 1954137147)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "noise.json"
        assert main(["compare-noise", "--config", path, "--out", str(out)]) == 1
        assert "noise-modes: INCONCLUSIVE" in capsys.readouterr().out
        report = json.loads(out.read_text())["report"]
        assert report["inconclusive"] is True and report["passed"] is False
        assert report["stats"]["mean_jump_common"] == 0.0
        assert math.isnan(report["stats"]["event_increment_ratio_common"])
        assert report["stats"]["mean_jump_idiosyncratic"] > 0.0


class TestCostPool:
    def test_pool_is_no_larger_than_the_task_list(self, pool_sizes):
        from mfcpoisson.verify import block_costs, optimal_feedback_rule

        cfg = parse_config(small_config(particles=20, scenarios=2, dt=0.05))
        coeffs = lq_coefficients(cfg.params)
        rule = optimal_feedback_rule(solve_riccati(cfg.params, cfg.mc.mode, 256))

        def task(block):
            return [block_costs(coeffs, [rule], cfg.params.T, cfg.mc, [s])[0][0] for s in block]

        costs = simulate.map_blocks(task, 2, workers=8)
        assert pool_sizes == [2]
        assert costs == simulate.map_blocks(task, 2, workers=1)

    def test_verify_optimality_honours_threads(self, tmp_path, pool_sizes):
        path = write_config(tmp_path, small_config(particles=20, scenarios=4, dt=0.05))
        assert main(["verify", "optimality", "--config", path, "--threads", "2"]) in (0, 1)
        assert pool_sizes == [2]


class TestPoolErrors:
    def test_numerical_errors_survive_pickling(self):
        div = pickle.loads(pickle.dumps(DivergenceError(7, 0.25)))
        assert isinstance(div, DivergenceError)
        assert (div.step, div.time, str(div)) == (7, 0.25, str(DivergenceError(7, 0.25)))
        ill = pickle.loads(pickle.dumps(IllPosedError(0.5, "a > 0")))
        assert isinstance(ill, IllPosedError)
        assert (ill.time, ill.constraint) == (0.5, "a > 0")

    def test_divergence_in_a_worker_exits_3_naming_the_same_step(self, tmp_path, capsys):
        cfg = small_config(particles=20, scenarios=2, dt=0.05)
        # the Riccati solution is finite; the cloud grows past the float range on step 2
        cfg["model"]["b1"] = 100.0
        cfg["sim"]["init"] = {"kind": "gaussian", "mean": 1e306, "std": 0.5}
        path = write_config(tmp_path, cfg)
        lines = []
        for threads in ("1", "2"):
            with np.errstate(over="ignore", invalid="ignore"):
                assert main(["cost", "--config", path, "--threads", threads]) == 3
            lines.append(capsys.readouterr().err.strip().splitlines())
        assert lines[0] == lines[1]
        assert len(lines[0]) == 1
        assert lines[0][0].startswith("numerical failure: non-finite state at step ")
        assert "(t=" in lines[0][0]


class TestNumericalFailureExitCode:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "sigma, message",
        [
            (60.0, "numerical failure: finite beta and eta violated at t=0.898926"),
            (1e200, "numerical failure: finite sigma^2, b3^2 and (b2+b3)^2 violated at t=1"),
        ],
    )
    def test_lq_small_probe_exits_3_with_one_line(self, tmp_path, capsys, sigma, message, threads):
        cfg = json.loads((CONFIGS / "lq_small.json").read_text())
        cfg["model"]["sigma"] = sigma
        path = write_config(tmp_path, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["cost", "--config", path, "--threads", threads]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["riccati"], ["verify", "hjb"]], ids="-".join)
    def test_non_finite_riccati_solution_exits_3_with_one_line(self, tmp_path, capsys, command):
        cfg = json.loads((CONFIGS / "lq_small.json").read_text())
        cfg["model"]["b3"] = 1e30  # beta and eta overflow on the first step back from T
        path = write_config(tmp_path, cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(command + ["--config", path, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "numerical failure: finite beta and eta violated at t=0.999512"
        ]
        assert captured.out == ""

    def test_an_overflowed_cost_estimate_exits_3_with_one_line(self, tmp_path, capsys):
        cfg = small_config(particles=20, scenarios=2, dt=0.05)
        # the Riccati solution and the states are finite; the costs overflow
        cfg["sim"]["init"] = {"kind": "gaussian", "mean": 0.0, "std": 1e307}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "cost.json"
        assert main(["cost", "--config", path, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "numerical failure: non-finite cost estimate inf +/- nan"
        ]
        assert captured.out == ""
        assert not out.exists()

    @staticmethod
    def run_cli(*argv):
        """The CLI in a fresh interpreter, which shows warnings as it does for a user."""
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run(
            [sys.executable, "-m", "mfcpoisson.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120,
        )

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_numerical_failure_prints_no_warning(self, tmp_path, threads):
        cfg = json.loads((CONFIGS / "lq_small.json").read_text())
        # the Riccati solution is finite; the cloud overflows, with numpy warnings, on step 2
        cfg["model"]["b1"] = 100.0
        cfg["sim"]["init"] = {"kind": "gaussian", "mean": 1e306, "std": 0.5}
        proc = self.run_cli("cost", "--config", write_config(tmp_path, cfg), "--threads", threads)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "numerical failure: non-finite state at step 1 (t=0.002)"
        ]

    def test_other_exits_still_show_their_warnings(self, tmp_path):
        cfg = json.loads((CONFIGS / "lq_small.json").read_text())
        cfg["model"]["sigma"] = 60.0  # the chattering costs overflow: INCONCLUSIVE, exit 1
        proc = self.run_cli("chattering", "--config", write_config(tmp_path, cfg))
        assert proc.returncode == 1
        assert proc.stdout == "chattering: INCONCLUSIVE\n"
        assert "RuntimeWarning: overflow encountered in square" in proc.stderr

    def test_overflowing_coefficient_is_ill_posed(self):
        params = parse_config(small_config()).params
        with pytest.raises(IllPosedError) as err:
            solve_riccati(replace(params, b3=1e200), "common", 64)
        assert err.value.time == params.T


class TestThreadInvariance:
    @pytest.mark.parametrize(
        "command",
        [
            ["cost"],
            ["chattering"],
            ["verify", "optimality"],
            ["verify", "fp"],
            ["verify", "noise"],
            ["compare-noise"],
        ],
        ids=lambda c: "-".join(c),
    )
    def test_output_is_byte_identical_across_threads(self, tmp_path, command):
        path = write_config(tmp_path, small_config())
        # small_config's 4 scenarios run as blocks of 4, 2 + 2 and 2 + 1 + 1
        outs = [tmp_path / f"t{threads}.json" for threads in (1, 2, 3)]
        for threads, out in zip((1, 2, 3), outs):
            main(command + ["--config", path, "--out", str(out), "--threads", str(threads)])
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


class TestFpPairingDump:
    def test_fp_writes_pairing_table_when_configured(self, tmp_path):
        cfg = small_config()
        cfg["sim"].update({"particles": 60, "scenarios": 2, "dt": 0.05})
        table = tmp_path / "pairings.csv"
        cfg["output"] = {"fp_pairings": str(table)}
        path = write_config(tmp_path, cfg)
        code = main(["verify", "fp", "--config", path, "--out", str(tmp_path / "fp.json")])
        assert code in (0, 1)  # tiny budget: the ratio verdict is not the point here
        lines = [l for l in table.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "step,phi,predicted,observed,residual"
        assert len(lines) > 1
        rows = list(csv.reader(lines))
        assert all(len(row) == 5 for row in rows)
        assert any("," in row[1] for row in rows)  # names such as gauss(0.0,1.0)
        assert not any(row[1].startswith('"') for row in rows)

    def test_rows_without_commas_are_written_unquoted(self, tmp_path):
        cfg = parse_config(small_config())
        out = tmp_path / "rows.csv"
        rows = [(1, "plain", 0.5), (2, "a,b", 1.0), (3, 'say "hi"', np.float64(0.25))]
        assert write_csv(out, cfg, ["k", "name", "v"], rows) == 3
        lines = out.read_text().splitlines()[1:]
        assert lines == ["k,name,v", "1,plain,0.5", '2,"a,b",1', '3,"say ""hi""",0.25']
        assert list(csv.reader(lines))[1:] == [
            ["1", "plain", "0.5"], ["2", "a,b", "1"], ["3", 'say "hi"', "0.25"]
        ]


class TestChatteringCommand:
    def test_runs_and_reports_gap_sequence(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out = tmp_path / "chat.json"
        code = main(["chattering", "--config", path, "--out", str(out)])
        report = json.loads(out.read_text())["report"]
        assert report["stats"]["levels"] == [2, 8]
        assert len(report["stats"]["gaps"]) == 2
        assert code in (0, 1)

    def test_overflowing_costs_are_inconclusive(self, tmp_path, capsys):
        # lq_small at sigma 60: the costs overflow, every gap's standard error is inf
        cfg = json.loads((CONFIGS / "lq_small.json").read_text())
        cfg["model"]["sigma"] = 60.0
        path = write_config(tmp_path, cfg)
        out = tmp_path / "chat.json"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["chattering", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().out == "chattering: INCONCLUSIVE\n"
        report = json.loads(out.read_text())["report"]
        assert report["passed"] is False and report["inconclusive"] is True
        assert report["stats"]["non_finite"] == ["gap_sigmas"]


class TestReadmeExamples:
    @staticmethod
    def run_tool(tmp_path, text):
        import importlib.util

        tool = Path(__file__).resolve().parents[1] / "tools" / "readme_examples.py"
        spec = importlib.util.spec_from_file_location("readme_examples", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        readme = tmp_path / "README.md"
        readme.write_text(text)
        return module.run(readme)

    def test_blocks_share_a_namespace_and_write_outside_the_checkout(self, tmp_path):
        text = (
            "# t\n\n```python\nx = 2\nopen('made.txt', 'w').write('x')\n```\n\n"
            "```bash\nexit 1\n```\n\n```python\nassert x == 2\n```\n"
        )
        cwd = os.getcwd()
        assert self.run_tool(tmp_path, text) == 0
        assert os.getcwd() == cwd
        assert not (Path(cwd) / "made.txt").exists() and not (tmp_path / "made.txt").exists()

    @pytest.mark.parametrize("text", [
        "```python\nx = 1\n```\n\n```python\nraise ValueError('boom')\n```\n",
        "```python\nundefined_name\n```\n",
        "no code here\n",
    ])
    def test_a_raising_block_or_no_block_fails(self, tmp_path, text):
        assert self.run_tool(tmp_path, text) == 1
