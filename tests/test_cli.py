"""Config parsing, CLI subcommands, output formats and exit codes."""

import dataclasses
import importlib.util
import json
import os
import re
import shlex
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from phasemono import cli, config, monotone, spectral
from phasemono.config import (
    ConfigError,
    ScenarioConfig,
    build_problem,
    parse_config,
    serialize_config,
)
from phasemono.dynamics import solve
from phasemono.estimates import energy_monitor
from phasemono.monotone import ResolventError, ScalarSign, SubdiffBetaHat
from phasemono.scenarios import SCENARIOS, get_scenario, scenario_names


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_or_fd_left():
    """Every test leaves no child process, and no open fd where
    /proc/self/fd can count them."""
    fds = open_fds() if Path("/proc/self/fd").is_dir() else None
    yield
    assert_no_child()
    if fds is not None:
        assert open_fds() == fds


def edited_config(scenario, edits):
    """The scenario's config text with each (section, key, value) set."""
    lines, section = [], None
    for line in serialize_config(get_scenario(scenario)).splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        for sec, key, value in edits:
            if sec == section and line.split("=")[0].strip() == key:
                line = f"{key} = {value}"
        lines.append(line)
    return "\n".join(lines) + "\n"


class TestConfig:
    @pytest.mark.parametrize("name", scenario_names())
    def test_round_trip_is_identity(self, name):
        cfg = get_scenario(name)
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_states_only_what_is_its_own(self, name):
        default = ScenarioConfig()
        overrides = SCENARIOS[name][1]
        fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert overrides.keys() <= fields
        for key, value in overrides.items():
            assert value != getattr(default, key), key

    def test_key_table_names_every_field_once(self):
        # every section is known, and its keys are contiguous and in this
        # order, so the canonical text opens each section once
        sections = ("domain", "model", "potential", "graph", "regularization", "initial",
                    "integrator", "run")
        order = [row[0] for row in config._KEYS]
        assert order == sorted(order, key=sections.index)
        assert len({row[:2] for row in config._KEYS}) == len(config._KEYS)
        kinds = {row[3] for row in config._KEYS}
        assert kinds == config._PARSE.keys() == config._FORMAT.keys()

    def test_round_trip_sets_every_key(self):
        inf = float("inf")
        cfg = ScenarioConfig(
            dims=2, lengths=(1.5, 0.75), modes=20, quadrature=40,
            ell=1.25, alpha=0.75, k=0.5, nu=0.25, gamma=0.125, t_final=0.3,
            potential="obstacle", c0=2.0, graph="weighted_power", graph_alpha1=0.5,
            graph_alpha2=2.0, graph_q=0.75, graph_weight="cosine 0.5 1 1",
            eps=0.01, eta0="cosine 0.2 1 0",
            phi0="tanh 0.5 0.1", eta_star="constant 0.1", forcing="random-smooth 0.3",
            method="rk45", dt=inf, tol=inf, saves=11, seed=7, blowup_ceiling=inf)
        default = ScenarioConfig()
        same = [f.name for f in dataclasses.fields(cfg)
                if getattr(cfg, f.name) == getattr(default, f.name)]
        # the basis is H-orthonormal, so normalization has one admissible value
        assert same == ["normalization"]
        assert parse_config(serialize_config(cfg)) == cfg

    # the second case is a line that every config echo written before the
    # key was removed still carries; configparser lowercases a key and also
    # takes ":" for "=", and the line is found as it reads it
    @pytest.mark.parametrize("section, line", [
        ("model", "bogus = 1"), ("regularization", "mollify_forcing = false"),
        ("model", "Bogus = 1"), ("model", "bogus: 1")],
        ids=["bogus", "removed", "upper_case", "colon"])
    def test_unknown_key_reports_line(self, section, line):
        text = serialize_config(get_scenario("zero"))
        text = text.replace(f"[{section}]", f"[{section}]\n{line}")
        key = re.split("[=:]", line, maxsplit=1)[0].strip().lower()
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        lineno = text.splitlines().index(line) + 1
        assert f"line {lineno}: unknown key {key!r} in [{section}]" in str(err.value)

    def test_an_old_config_echo_parses_once_the_removed_line_is_dropped(self):
        # an echo written while the key existed carried it after eps
        for name in scenario_names():
            text = serialize_config(get_scenario(name))
            lines = text.splitlines()
            at = lines.index("[regularization]") + 2
            old = "\n".join(lines[:at] + ["mollify_forcing = false"] + lines[at:]) + "\n"
            with pytest.raises(ConfigError) as err:
                parse_config(old)
            assert f"line {at + 1}: unknown key 'mollify_forcing'" in str(err.value)
            kept = [line for line in old.splitlines() if not line.startswith("mollify_forcing")]
            assert parse_config("\n".join(kept) + "\n") == get_scenario(name)

    def test_bad_value_reports_location(self):
        text = serialize_config(get_scenario("zero")).replace("k = 1.0", "k = fast")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "k" in str(err.value)

    @pytest.mark.parametrize("kw, message", [
        ({"modes": 0}, "need at least one mode"),
        ({"dims": 3}, "domain dims must be 1 or 2"),
        ({"gamma": -1.0}, "model gamma must be nonnegative"),
        ({"dims": 2}, "domain needs one length per dimension"),
        ({"lengths": (0.0,)}, "domain lengths must be positive"),
        ({"modes": 16, "quadrature": 31}, r"quadrature must supply at least 2\*modes points"),
        ({"t_final": 0.0}, "model t_final must be positive"),
        ({"method": "euler"}, "unknown integrator method 'euler'"),
        ({"potential": "sextic"}, "unknown potential variant 'sextic'"),
        ({"graph": "bogus"}, "unknown graph variant 'bogus'"),
        ({"eps": 0.0}, "regularization eps must be positive"),
        ({"dt": 0.0}, "integrator dt and tol must be positive"),
        ({"tol": -1.0}, "integrator dt and tol must be positive"),
        ({"saves": 1}, "integrator saves must be at least 2"),
        ({"seed": -1}, "seed must be nonnegative"),
        # a value of the wrong type does not read back from its own text
        ({"modes": 2.5}, r"\[domain\] modes has the wrong type"),
        ({"seed": 1.5}, r"\[run\] seed has the wrong type"),
        ({"dims": True}, r"\[domain\] dims has the wrong type"),
        ({"quadrature": 40.0}, r"\[domain\] quadrature has the wrong type"),
        ({"lengths": [1.0]}, r"\[domain\] lengths has the wrong type"),
        ({"ell": "1.0"}, r"\[model\] ell has the wrong type"),
        # NaN and inf keep the number check's wording
        ({"ell": float("nan")}, r"\[model\] ell must be a finite number, got nan"),
        ({"lengths": (float("inf"),)}, r"\[domain\] lengths must be a finite number, got inf"),
    ], ids=["modes", "dims", "gamma", "lengths-count", "lengths-zero", "quadrature-low",
            "t_final", "method", "potential", "graph", "eps", "dt", "tol", "saves", "seed",
            "modes-float", "seed-float", "dims-bool",
            "quadrature-float", "lengths-list", "ell-str", "ell-nan", "lengths-inf"])
    def test_a_config_is_validated_when_it_is_made(self, kw, message):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(**kw)

    def test_inf_allowed_where_it_means_no_bound(self):
        edits = [("integrator", "dt", "inf"), ("integrator", "tol", "inf"),
                 ("run", "blowup_ceiling", "inf")]
        cfg = parse_config(edited_config("zero", edits))
        assert cfg.dt == cfg.tol == cfg.blowup_ceiling == float("inf")

    def test_benchmark_config_parses_and_builds(self, monkeypatch):
        # the benchmark's 2D config text is fixed; a config-format change
        # that breaks it fails here first
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        cfg = parse_config(workloads.FIELD_2D_CONFIG.format(seed=1))
        params, _, _ = build_problem(cfg)
        assert (cfg.dims, params.basis.n) == (2, 64)

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config("[cooling]\nrate = 1\n")

    def test_obstacle_rejects_out_of_range_data(self):
        cfg = dataclasses.replace(get_scenario("obstacle_sign"), phi0="constant 1.5")
        from phasemono.config import build_problem
        with pytest.raises(ConfigError):
            build_problem(cfg)

    # each random field of a built problem, read from build_problem's outputs
    RANDOM_FIELDS = {
        "eta0": lambda params, initial: initial.eta0.coeffs,
        "phi0": lambda params, initial: initial.phi0.coeffs,
        "eta_star": lambda params, initial: params.eta_star.coeffs,
        "forcing": lambda params, initial: params.forcing.coeffs,
        "graph_weight": lambda params, initial: params.graph.weight,
    }

    @pytest.mark.parametrize("name", RANDOM_FIELDS)
    def test_each_random_field_follows_the_seed(self, name):
        # at decay 10, mode 0 holds nearly all of a field's norm, so seeds 1
        # and 2 differ only in the small higher modes (by about 4e-5 for the
        # weight) and both give a positive weight
        base = dataclasses.replace(ScenarioConfig(), graph="weighted_power",
                                   **{name: "random-smooth 0.5 10"})

        def drawn(seed):
            params, initial, _ = build_problem(dataclasses.replace(base, seed=seed))
            return self.RANDOM_FIELDS[name](params, initial)

        assert np.array_equal(drawn(1), drawn(1))
        assert not np.array_equal(drawn(1), drawn(2))

    def test_a_negative_random_weight_is_refused(self):
        # seed 0 draws the weight's mode 0 negative
        cfg = dataclasses.replace(ScenarioConfig(), graph="weighted_power",
                                  graph_weight="random-smooth 0.5 10", seed=0)
        with pytest.raises(ConfigError, match="weight must be nonnegative"):
            build_problem(cfg)


class TestRun:
    def test_heat_decay_certifies_exact_rate(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["run", "--scenario", "heat_decay", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["energy"]["gronwall_ok"] is True
        # |eta(T)|_H = e^{-k lambda_1 T} |eta(0)|_H for the decoupled mode
        import math
        expected = math.exp(-1.0) * math.sqrt(math.pi / 2.0)
        assert abs(report["trajectory"]["final_eta_h"] - expected) <= 1e-4
        # the config echo round-trips to the parsed config that was run
        assert parse_config(report["config"]) == get_scenario("heat_decay")

    @pytest.mark.parametrize("scenario", ["heat_decay", "tanh_front"])
    def test_report_carries_the_run_counters(self, tmp_path, scenario):
        out = tmp_path / "run"
        assert cli.main(["run", "--scenario", scenario, "--out", str(out)]) == 0
        block = json.loads((out / "report.json").read_text())["trajectory"]
        stats = solve(*build_problem(get_scenario(scenario))).stats
        for key in stats:
            assert block[key] == stats[key], key

    def test_the_outputs_name_the_energy_report_figures(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["run", "--scenario", "tanh_front", "--out", str(out)]) == 0
        params, initial, schedule = build_problem(get_scenario("tanh_front"))
        rep = energy_monitor(solve(params, initial, schedule), params)
        header = (out / "plot.csv").read_text().splitlines()[0]
        assert header.split(",") == list(rep.series)
        energy = json.loads((out / "report.json").read_text())["energy"]
        assert sorted(energy) == sorted(f.name for f in dataclasses.fields(rep)
                                        if f.name != "series")

    def test_zero_scenario_all_zero_outputs(self, tmp_path):
        out = tmp_path / "zero"
        assert cli.main(["run", "--scenario", "zero", "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().strip().splitlines()
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert np.all(data[:, 1:] == 0.0)

    def test_reproducible_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["run", "--scenario", "regular_sign",
                             "--out", str(out), "--seed", "7"]) == 0
        for fname in ("trajectory.csv", "plot.csv", "report.json"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nk = -1\n")
        assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("edits", [
        [("run", "blowup_ceiling", "-1")],
        [("run", "blowup_ceiling", "nan")],
        [("domain", "lengths", "nan")],
        [("regularization", "eps", "nan")],
        [("model", "t_final", "nan")],
        [("model", "k", "inf")],
        [("integrator", "dt", "nan")],
        [("graph", "variant", "weighted_power"), ("graph", "q", "2")],
        [("graph", "variant", "stefan"), ("graph", "alpha1", "-1")],
    ], ids=lambda edits: ",".join(f"{k}={v}" for _, k, v in edits))
    def test_inadmissible_numbers_exit_as_config_errors(self, tmp_path, capsys, edits):
        path = tmp_path / "bad.cfg"
        path.write_text(edited_config("zero", edits))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "blow-up" not in err and "Traceback" not in err

    def test_v_normalization_exits_as_config_error(self, tmp_path, capsys):
        path = tmp_path / "v.cfg"
        path.write_text(edited_config("zero", [("domain", "normalization", "v")]))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "H-orthonormal" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edits", [
        [("initial", "phi0", "constant nan")],
        [("initial", "eta0", "cosine nan 2")],
        [("initial", "forcing", "constant nan")],
        [("initial", "eta_star", "constant inf")],
        [("graph", "variant", "weighted_power"), ("graph", "weight", "constant nan")],
        [("initial", "phi0", "csv missing.csv")],
        [("initial", "phi0", "csv .")],
        [("initial", "eta0", "random-smooth 0.5 -10")],
        [("initial", "eta0", "random-smooth 0.5 -1")],
        [("initial", "eta0", "random-smooth 0.5 inf")],
        [("initial", "eta0", "zero 5")],
        [("initial", "phi0", "constant 0.3 0.1")],
        [("initial", "phi0", "constant")],
        [("initial", "phi0", "cosine 0.8 1 1")],
        [("initial", "phi0", "tanh 0.9")],
        [("initial", "phi0", "tanh 0.9 0.12 0.5 7")],
        [("initial", "eta0", "random-smooth 0.5 0.35 9")],
        [("initial", "phi0", "csv a.csv b")],
        [("initial", "phi0", "csv decreasing.csv")],
        [("initial", "phi0", "csv repeated.csv")],
        [("initial", "phi0", "csv nan.csv")],
    ], ids=lambda edits: ",".join(f"{k}={v}" for _, k, v in edits))
    def test_bad_profiles_exit_as_config_errors(self, tmp_path, capsys, monkeypatch,
                                                edits):
        # a non-finite profile, a csv profile that cannot be read or whose x
        # column is not strictly increasing, a random field whose spectrum
        # grows or whose decay is not finite, or a profile with an argument
        # count outside its grammar
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.csv").write_text("0.0,0.1\n1.0,0.2\n")
        (tmp_path / "decreasing.csv").write_text("1.0,1.0\n0.0,0.0\n")
        (tmp_path / "repeated.csv").write_text("0.0,0.0\n0.0,0.5\n1.0,1.0\n")
        (tmp_path / "nan.csv").write_text("0.0,0.0\nnan,0.5\n1.0,1.0\n")
        path = tmp_path / "bad.cfg"
        path.write_text(edited_config("regular_sign", edits))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "blow-up" not in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_empty_csv_profile_is_refused_without_a_warning(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.csv").write_text("")
        path = tmp_path / "bad.cfg"
        path.write_text(edited_config("regular_sign", [("initial", "phi0", "csv empty.csv")]))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: bad profile 'csv empty.csv': empty.csv holds no rows" in err
        assert "UserWarning" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_random_smooth_decay_runs(self, tmp_path, capsys):
        # a decay this large leaves only mode 0, and forms no overflow
        path = tmp_path / "huge.cfg"
        path.write_text(edited_config("regular_sign",
                                      [("initial", "eta0", "random-smooth 0.5 1e308")]))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_config_exit_code(self, tmp_path):
        assert cli.main(["run", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("argv, text, message", [
        (["run", "--config", "{cfg}"], edited_config("zero", [("domain", "lengths", "")]),
         "bad value for lengths: empty length list"),
        (["run", "--config", "{cfg}"], "[model\nk = 1.0\n", "config syntax error"),
        (["run", "--config", "{cfg}", "--scenario", "zero"], serialize_config(ScenarioConfig()),
         "give either --config or --scenario, not both"),
        (["sweep", "--scenario", "tanh_front", "--axis", "n", "--values", " , "], None,
         "--values is empty"),
    ], ids=["empty-lengths", "syntax", "config-and-scenario", "empty-values"])
    def test_refused_inputs_exit_2_naming_the_rule(self, tmp_path, capsys, argv, text,
                                                   message):
        cfg = tmp_path / "in.cfg"
        if text is not None:
            cfg.write_text(text)
        argv = [a.format(cfg=cfg) for a in argv]
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err

    def test_blowup_exit_code(self, tmp_path):
        cfg = dataclasses.replace(get_scenario("tanh_front"), method="rk4", dt=0.05)
        path = tmp_path / "unstable.cfg"
        path.write_text(serialize_config(cfg))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 4

    def test_a_failed_run_leaves_no_earlier_output(self, tmp_path):
        # a config that cannot be read leaves --out as it was; a run that
        # fails once --out is made leaves none of an earlier run's outputs
        out = tmp_path / "o"
        outputs = ("trajectory.csv", "plot.csv", "report.json", "timing.json")
        assert cli.main(["run", "--scenario", "tanh_front", "--out", str(out)]) == 0
        missing = tmp_path / "missing.cfg"
        assert cli.main(["run", "--config", str(missing), "--out", str(out)]) == 2
        assert all((out / name).exists() for name in outputs)
        path = tmp_path / "unstable.cfg"
        path.write_text(serialize_config(dataclasses.replace(
            get_scenario("tanh_front"), method="rk4", dt=0.05)))
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 4
        assert [name for name in outputs if (out / name).exists()] == []

    def test_resolvent_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # an inner resolvent root-find that gives up ends the run with exit
        # 4, not a traceback
        def give_up(self, eps, x):
            raise ResolventError("resolvent root-find hit the 200-iteration cap")

        monkeypatch.setattr(SubdiffBetaHat, "resolvent", give_up)
        code = cli.main(["run", "--scenario", "regular_sign", "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err

    def test_resolvent_cap_in_the_solve_exit_code(self, tmp_path, capsys, monkeypatch):
        # the logarithmic well's Newton root-find gives up inside the
        # right-hand side: exit 4 with the map named, and no table written
        monkeypatch.setattr(monotone, "RESOLVENT_MAX_ITER", 1)
        out = tmp_path / "o"
        code = cli.main(["run", "--scenario", "log_sign", "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "logarithmic resolvent hit the 1-iteration cap" in err
        assert "Traceback" not in err
        assert not list(out.glob("*"))

    def test_huge_state_exits_as_blow_up(self, tmp_path, capsys):
        # a datum of 1e12 is over the blow-up ceiling of 1e8: the run stops
        # at t = 0, before the quartic-well resolvent is evaluated
        cfg = dataclasses.replace(get_scenario("regular_sign"), phi0="constant 1e12")
        path = tmp_path / "huge.cfg"
        path.write_text(serialize_config(cfg))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "blow-up" in err
        assert "Traceback" not in err

    def test_datum_whose_squares_overflow_exits_at_t_0(self, tmp_path, capsys):
        # the envelope budget of a datum of 1e200 overflows to inf without a
        # warning, and the solve stops it before its first step
        cfg = dataclasses.replace(get_scenario("contraction_base"), phi0="constant 1e200")
        path = tmp_path / "huge.cfg"
        path.write_text(serialize_config(cfg))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "numerical failure: blow-up detected in phi at t = 0 (" in err
        assert "RuntimeWarning" not in err and "Traceback" not in err

    def test_problem_too_large_for_memory_exits_as_config_error(self, tmp_path, capsys,
                                                               monkeypatch):
        # a basis of a million modes asks for terabytes; the allocation is
        # faked, never made
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.6 TiB for an array with shape "
                              "(2000000, 1000000) and data type float64")

        monkeypatch.setattr(spectral, "build_basis", too_large)
        code = cli.main(["run", "--scenario", "zero", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: the problem does not fit in memory: Unable to allocate "
            "14.6 TiB for an array with shape (2000000, 1000000) and data type float64\n")

    def test_phase_timings(self, tmp_path):
        out = tmp_path / "o"
        assert cli.main(["run", "--scenario", "zero", "--out", str(out)]) == 0
        timing = json.loads((out / "timing.json").read_text())
        keys = ("wall_clock_seconds", "build_s", "solve_s", "monitor_s", "write_s")
        assert set(timing) == {*keys, "write_parts"}
        assert all(timing[k] >= 0.0 for k in keys)
        # the whole run, its writes included
        assert timing["wall_clock_seconds"] >= sum(timing[k] for k in keys[1:]) - 1e-6
        # the zero scenario's tables are far below the split threshold, so
        # this process formats them after the solve
        assert timing["write_parts"] == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--scenario", "zero"],
        ["sweep", "--scenario", "tanh_front", "--axis", "n", "--values", "8 16"],
        ["graph-selftest"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_exit_code(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "run_selftest", lambda: [])
        code = cli.main([*argv, "--out", "/dev/null/x"])
        assert code == 2
        err = capsys.readouterr().err
        assert "output error" in err and "/dev/null/x" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, name", [
        *((["run", "--scenario", "zero"], name)
          for name in ("trajectory.csv", "plot.csv", "report.json", "timing.json")),
        *((["sweep", "--scenario", "tanh_front", "--axis", "n", "--values", "8 16"], name)
          for name in ("sweep.json", "sweep.csv")),
        (["graph-selftest"], "selftest.json"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_a_write_failing_part_way_leaves_no_file(self, tmp_path, capsys, monkeypatch,
                                                     argv, name):
        # the first write to the file puts half its bytes on disk, then fails
        # as a full disk would
        monkeypatch.setattr(cli, "run_selftest", lambda: [])
        real_open, written = Path.open, []

        class HalfWritten:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                written.append(self.f.write(data[:len(data) // 2]))
                self.f.flush()
                raise OSError(28, "No space left on device")

        def open_(path, *args, **kwargs):
            f = real_open(path, *args, **kwargs)
            return HalfWritten(f) if path.name == f"{name}.part" else f

        monkeypatch.setattr(Path, "open", open_)
        out = tmp_path / "o"
        assert cli.main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"output error: cannot write {out / name}: ")
        assert "No space left on device" in err
        assert written and written[0] > 0
        assert not (out / name).exists()
        assert not (out / f"{name}.part").exists()

    def test_threads_option_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--scenario", "zero", "--out", str(tmp_path / "o"),
                      "--threads", "2"])
        assert exc.value.code == 2

    def test_invariant_failure_exit_code(self, tmp_path, monkeypatch):
        import dataclasses

        real_monitor = cli.energy_monitor

        def doctored(traj, params):
            rep = real_monitor(traj, params)
            return dataclasses.replace(rep, gronwall_ok=False)

        monkeypatch.setattr(cli, "energy_monitor", doctored)
        code = cli.main(["run", "--scenario", "zero", "--out", str(tmp_path / "o")])
        assert code == 3

    def test_method_override(self, tmp_path):
        out = tmp_path / "rk"
        assert cli.main(["run", "--scenario", "zero", "--out", str(out),
                         "--method", "rk4"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["trajectory"]["method"] == "rk4"
        assert "method = rk4" in report["config"]


def csv_reference(header, table):
    """The CSV text of a table, each float by repr, one row at a time."""
    return "".join([",".join(header) + "\n"]
                   + [",".join(map(repr, row)) + "\n" for row in table.tolist()])


def failing_formatter(monkeypatch, in_parent):
    """Make cli._csv_lines raise in this process or only in a forked one."""
    parent, real = os.getpid(), cli._csv_lines

    def lines(rows):
        if (os.getpid() == parent) == in_parent:
            raise RuntimeError("formatter failed")
        return real(rows)

    monkeypatch.setattr(cli, "_csv_lines", lines)


@pytest.fixture
def needs_fork():
    if not hasattr(os, "fork"):
        pytest.skip("the split writer needs os.fork")


def config_2d(tmp_path, **overrides):
    """A 32-mode 2D run: 101 saves of 1 + 2*32*32 + 4 columns, 207353 cells,
    over the split threshold."""
    cfg = dataclasses.replace(get_scenario("regular_sign"), **{
        "dims": 2, "lengths": (1.0, 1.0), "modes": 32, "quadrature": None,
        "phi0": "cosine 0.5 1 1", "eta0": "random-smooth 0.3", "eta_star": "zero",
        "t_final": 0.01, "dt": 1e-4, "saves": 101, **overrides})
    path = tmp_path / "2d.cfg"
    path.write_text(serialize_config(cfg))
    return cfg, path


def count_forks(monkeypatch, refuse=False):
    """Count the calls of os.fork in this process, checking that each finds
    no other child alive; with ``refuse``, each raises OSError."""
    calls, real = [], os.fork

    def fork():
        assert_no_child()
        calls.append(1)
        if refuse:
            raise OSError("fork refused")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def write_parts(out):
    return json.loads((out / "timing.json").read_text())["write_parts"]


class TestTableWriter:
    rng = np.random.default_rng(4)
    # above the split threshold; magnitudes from 1e-30 to 1e30, signed zeros
    # and extremes exercise repr's fixed and exponent forms
    big = rng.standard_normal((131, 1001)) * 10.0 ** rng.integers(-30, 30, (131, 1001))
    big[0, :6] = (0.0, -0.0, 1e16, 1e-5, 5e-324, -1.7976931348623157e308)
    header = [f"c{i}" for i in range(big.shape[1])]
    # 1.1 MB of rows, more than a pipe of 64 KiB holds
    long = rng.standard_normal((20000, 7))

    @pytest.fixture(autouse=True)
    def bounded(self):
        """Fail a test still running after 60 s: this process waits on a full
        pipe, so a child that stops reading it would hang the test."""
        if not hasattr(signal, "SIGALRM"):
            yield
            return

        def hang(signum, frame):
            pytest.fail("the run hangs on its child")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.fixture(scope="class")
    def big_text(self):
        return csv_reference(self.header, self.big)

    @pytest.fixture(scope="class")
    def reference_2d(self, tmp_path_factory):
        """trajectory.csv of the 2D run, built as one table in this process."""
        cfg, _ = config_2d(tmp_path_factory.mktemp("ref"))
        params, initial, schedule = build_problem(cfg)
        traj = solve(params, initial, schedule)
        basis, m, eta = params.basis, params.basis.total_modes, traj.eta
        header = ["t", *(f"phi_{i}" for i in range(m)), *(f"theta_{i}" for i in range(m)),
                  "eta_h", "eta_v", "phi_h", "phi_v"]
        return csv_reference(header, np.column_stack((
            traj.times, traj.phi, traj.theta,
            spectral.h_norm(basis, eta), spectral.v_norm(basis, eta),
            spectral.h_norm(basis, traj.phi), spectral.v_norm(basis, traj.phi))))

    def test_a_large_table_forks_once(self, tmp_path, needs_fork, monkeypatch, big_text):
        assert self.big.size >= cli._SPLIT_CELLS
        forks = count_forks(monkeypatch)
        path = tmp_path / "t.csv"
        assert cli._write_csv(path, self.header, self.big) == 2
        assert len(forks) == 1
        assert path.read_text() == big_text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]  # no part file

    def test_a_small_table_never_forks(self, tmp_path, needs_fork, monkeypatch):
        forks, table = count_forks(monkeypatch), self.big[:5]
        assert table.size < cli._SPLIT_CELLS
        path = tmp_path / "t.csv"
        assert cli._write_csv(path, self.header, table) == 1
        assert not forks
        assert path.read_text() == csv_reference(self.header, table)

    @pytest.mark.parametrize("shape", ["short_rows", "long"])
    def test_the_child_writes_every_row(self, tmp_path, needs_fork, monkeypatch, shape):
        # one write a row, more bytes than the pipe holds for "long"; this
        # process formats no row, and holds the pipe's write end and no file
        table, header = {"short_rows": (self.big[:7, :3], self.header[:3]),
                         "long": (self.long, self.header[:7])}[shape]
        monkeypatch.setattr(cli, "_SPLIT_CELLS", 1)
        failing_formatter(monkeypatch, in_parent=True)
        forks = count_forks(monkeypatch)
        path = tmp_path / "t.csv"
        fds = open_fds() if Path("/proc/self/fd").is_dir() else None
        with cli._TableWriter(path, header, len(table), lambda t, lo, hi: t[lo:hi]) as writer:
            assert writer.forks
            for n in range(1, len(table) + 1):
                writer.ready(n, table)
            assert fds is None or open_fds() == fds + 1
            assert writer.write(table) == 2
        assert len(forks) == 1
        assert path.read_text() == csv_reference(header, table)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_a_dead_child_never_hangs_the_run(self, tmp_path, needs_fork, monkeypatch):
        # the child fails on its first rows; this process, which would block
        # for good on a full pipe that the child no longer reads, must find
        # the pipe closed and name the file
        monkeypatch.setattr(cli, "_SPLIT_CELLS", 1)
        failing_formatter(monkeypatch, in_parent=False)
        path, header = tmp_path / "t.csv", self.header[:7]
        with pytest.raises(OSError, match=re.escape(
                f"cannot write {path}: the process formatting its rows exited with code 1")):
            with cli._TableWriter(path, header, len(self.long),
                                  lambda t, lo, hi: t[lo:hi]) as writer:
                assert writer.forks
                for n in range(1, len(self.long) + 1):
                    writer.ready(n, self.long)
                writer.write(self.long)
        assert not any(tmp_path.iterdir())  # no table or part file

    def test_fork_refused_writes_in_one_process(self, tmp_path, needs_fork, monkeypatch,
                                                big_text):
        forks = count_forks(monkeypatch, refuse=True)
        path = tmp_path / "t.csv"
        assert cli._write_csv(path, self.header, self.big) == 1
        assert len(forks) == 1
        assert path.read_text() == big_text

    def test_child_failure_exits_2_and_leaves_nothing(self, tmp_path, capsys, needs_fork,
                                                      monkeypatch):
        # under a threshold of one cell even the zero scenario's table forks
        monkeypatch.setattr(cli, "_SPLIT_CELLS", 1)
        failing_formatter(monkeypatch, in_parent=False)
        out = tmp_path / "o"
        assert cli.main(["run", "--scenario", "zero", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error") and "trajectory.csv" in err
        assert "Traceback" not in err
        assert not any(out.iterdir())   # no trajectory.csv or part file

    @pytest.mark.parametrize("failing", ["rows", "formatter"])
    def test_parent_failure_reaps_the_child(self, tmp_path, needs_fork, monkeypatch, failing):
        # this process fails building the rows, or while the child formats
        # them (here for a minute): the child is killed, not waited for
        parent, real = os.getpid(), cli._csv_lines

        def rows(table, lo, hi):
            if failing == "rows":
                raise RuntimeError("rows failed")
            return table[lo:hi]

        def lines(rows):
            if os.getpid() != parent:
                time.sleep(60)
            return real(rows)

        monkeypatch.setattr(cli, "_csv_lines", lines)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="failed"):
            with cli._TableWriter(tmp_path / "t.csv", self.header, len(self.big),
                                  rows) as writer:
                assert writer.forks
                writer.ready(1, self.big)
                raise RuntimeError("the solve failed")
        assert time.monotonic() - start < 30
        assert not any(tmp_path.iterdir())

    def test_pending_output_printed_once(self, tmp_path, capfd, needs_fork, monkeypatch):
        # a child that flushed its copy of this process's buffers on the way
        # out would print the line again
        forks = count_forks(monkeypatch)
        _, path = config_2d(tmp_path)
        print("before the run", end="")
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        out = capfd.readouterr().out
        assert out.startswith("before the run") and out.count("before the run") == 1
        assert out.count("run: ") == 1
        assert len(forks) == 1

    def test_2d_run_outputs_do_not_depend_on_the_fork(self, tmp_path, monkeypatch,
                                                      reference_2d):
        _, path = config_2d(tmp_path)
        split = hasattr(os, "fork")
        outs = []
        for sub in ("a", "b", "no_fork"):
            if sub == "no_fork":
                monkeypatch.delattr(os, "fork", raising=False)
            out = tmp_path / sub
            assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
            assert write_parts(out) == (2 if split and sub != "no_fork" else 1)
            outs.append(out)
        assert (outs[0] / "trajectory.csv").read_text() == reference_2d
        for fname in ("trajectory.csv", "plot.csv", "report.json"):
            first = (outs[0] / fname).read_bytes()
            assert all((out / fname).read_bytes() == first for out in outs[1:]), fname

    def test_refused_fork_falls_back_to_one_process(self, tmp_path, needs_fork, monkeypatch,
                                                   reference_2d):
        forks = count_forks(monkeypatch, refuse=True)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(config_2d(tmp_path)[1]),
                         "--out", str(out)]) == 0
        assert len(forks) == 1 and write_parts(out) == 1
        assert (out / "trajectory.csv").read_text() == reference_2d

    def test_blow_up_mid_solve_leaves_nothing(self, tmp_path, capsys, needs_fork, monkeypatch):
        # rk4 at h = 2.5e-4 is unstable on the top modes and blows up at
        # t = 0.00625, after about 12 of the 101 saves have been queued
        forks = count_forks(monkeypatch)
        _, path = config_2d(tmp_path, method="rk4", dt=2.5e-4, t_final=0.05)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "blow-up" in err and "Traceback" not in err
        assert len(forks) == 1
        assert not any(out.iterdir())   # no trajectory.csv or part file

    def test_the_fork_precedes_the_solve_and_saves_are_queued(self, tmp_path, needs_fork,
                                                              monkeypatch, reference_2d):
        forks, real_solve, real_ready = count_forks(monkeypatch), cli.solve, cli._TableWriter.ready
        queued = []     # (rows ready, rows sent) after each save

        def ready(self, n, *source):
            real_ready(self, n, *source)
            queued.append((n, self._sent))

        def solve(*args, on_save=None):
            assert len(forks) == 1 and on_save is not None
            traj = real_solve(*args, on_save=on_save)
            assert queued == [(n, n) for n in range(1, 102)]
            return traj

        monkeypatch.setattr(cli._TableWriter, "ready", ready)
        monkeypatch.setattr(cli, "solve", solve)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(config_2d(tmp_path)[1]),
                         "--out", str(out)]) == 0
        assert len(forks) == 1 and write_parts(out) == 2
        assert (out / "trajectory.csv").read_text() == reference_2d

    def test_the_child_formats_at_a_lower_priority(self, tmp_path, needs_fork, monkeypatch,
                                                   big_text):
        # the child fails unless it runs niced
        parent, priority = os.getpid(), os.getpriority(os.PRIO_PROCESS, 0)
        if priority >= 19:
            pytest.skip("this process already runs at the least priority")
        real = cli._csv_lines

        def lines(rows):
            if os.getpid() != parent and os.getpriority(os.PRIO_PROCESS, 0) <= priority:
                raise RuntimeError("the child formats at the parent's priority")
            return real(rows)

        monkeypatch.setattr(cli, "_csv_lines", lines)
        path = tmp_path / "t.csv"
        assert cli._write_csv(path, self.header, self.big) == 2
        assert path.read_text() == big_text
        assert os.getpriority(os.PRIO_PROCESS, 0) == priority

    def test_many_saves_fork_once(self, tmp_path, needs_fork, monkeypatch):
        # 2000 saves of a 64-mode 1D run, 133 columns each: one fork,
        # however many saves; plot.csv, 2000 rows of 10 cells, none
        cfg = dataclasses.replace(get_scenario("tanh_front"),
                                  modes=64, quadrature=None, saves=2000)
        path = tmp_path / "long.cfg"
        path.write_text(serialize_config(cfg))
        forks = count_forks(monkeypatch)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert len(forks) == 1 and write_parts(out) == 2
        monkeypatch.delattr(os, "fork")
        alone = tmp_path / "alone"
        assert cli.main(["run", "--config", str(path), "--out", str(alone)]) == 0
        assert (out / "trajectory.csv").read_bytes() == (alone / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("scenario", ["zero", "tanh_front"])
    def test_small_runs_never_fork(self, tmp_path, needs_fork, monkeypatch, scenario):
        forks = count_forks(monkeypatch)
        out = tmp_path / "o"
        assert cli.main(["run", "--scenario", scenario, "--out", str(out)]) == 0
        assert not forks
        assert write_parts(out) == 1


def bench_tracing(monkeypatch):
    """The benchmark's tracing module, imported from the source checkout."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


class TestSweep:
    def test_n_ladder(self, tmp_path):
        out = tmp_path / "s"
        code = cli.main(["sweep", "--scenario", "tanh_front", "--axis", "n",
                        "--values", "8 16 32", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text())
        diffs = payload["consecutive_total"]
        assert diffs[1] < diffs[0]
        assert (out / "sweep.csv").exists()

    def test_undefined_rate_written_as_null(self, tmp_path):
        out = tmp_path / "s"
        assert cli.main(["sweep", "--scenario", "tanh_front", "--axis", "n",
                         "--values", "8 16", "--out", str(out)]) == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads((out / "sweep.json").read_text(), parse_constant=refuse)
        assert payload["rate"] is None

    @pytest.mark.parametrize("axis, scenario, values, message", [
        ("n", "tanh_front", "8 x", "--values"),
        ("n", "tanh_front", "8", "two distinct mode counts, all positive"),
        ("n", "tanh_front", "8 8", "two distinct mode counts, all positive"),
        ("n", "tanh_front", "8 8 16", "two distinct mode counts, all positive"),
        ("eps", "obstacle_sign", "0.1 0.01 0.01", "two distinct eps values, all positive"),
        ("eps", "obstacle_sign", "0.1", "two distinct eps values, all positive"),
        ("eps", "obstacle_sign", "0.1 0", "two distinct eps values, all positive"),
        ("eps", "obstacle_sign", "0.1 inf", "two distinct eps values, all positive"),
        ("eps", "obstacle_sign", "nan 0.1 0.01", "two distinct eps values, all positive"),
    ])
    def test_malformed_ladder_exit_code(self, tmp_path, capsys, axis, scenario,
                                        values, message):
        code = cli.main(["sweep", "--scenario", scenario, "--axis", axis,
                         "--values", values, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "sweep.json").exists()

    @pytest.mark.parametrize("axis, scenario, values", [
        ("n", "tanh_front", "8 16 32"),
        ("eps", "obstacle_sign", "1e-1 1e-2"),
        ("delta", "contraction_base", "0.01 0.005"),
    ], ids=("n", "eps", "delta"))
    def test_ladder_deterministic(self, tmp_path, axis, scenario, values):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["sweep", "--scenario", scenario, "--axis", axis,
                             "--values", values, "--out", str(out)]) == 0
        for name in ("sweep.json", "sweep.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        # sweep.csv holds every list of sweep.json as a column, blank-padded
        payload = json.loads((a / "sweep.json").read_text())
        lines = (a / "sweep.csv").read_text().splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        assert sorted(header) == sorted(k for k, v in payload.items() if isinstance(v, list))
        assert len(set(header)) == len(header)
        depth = max(len(payload[k]) for k in header)
        assert len(rows) == depth
        for i, key in enumerate(header):
            column = [str(v) for v in payload[key]]
            assert [row[i] for row in rows] == column + [""] * (depth - len(column)), key

    @pytest.mark.parametrize("axis, scenario, values, figures", [
        ("n", "tanh_front", "8 16 32", ("rate", "decreasing")),
        ("eps", "obstacle_sign", "1e-1 1e-2", ("rate", "decreasing")),
        ("eps", "regular_sign", "1e-1 1e-2", ("rate", "decreasing")),
        ("delta", "contraction_base", "0.01 0.005", ("slope", "c_spread")),
    ], ids=("n", "eps-obstacle", "eps-regular", "delta"))
    def test_the_outputs_name_the_sweep_report_figures(self, tmp_path, monkeypatch, axis,
                                                       scenario, values, figures):
        ladder = cli._SWEEPS[axis][1]
        built, reports = getattr(cli, ladder), []

        def kept(*args):
            reports.append(built(*args))
            return reports[-1]

        monkeypatch.setattr(cli, ladder, kept)
        out = tmp_path / "s"
        assert cli.main(["sweep", "--scenario", scenario, "--axis", axis,
                         "--values", values, "--out", str(out)]) == 0
        [rep] = reports
        # only the obstacle well's eps ladder adds the overshoot column
        assert ("overshoot" in rep.columns) == (scenario == "obstacle_sign")
        payload = json.loads((out / "sweep.json").read_text())
        assert sorted(payload) == sorted([*rep.columns, *figures,
                                          "axis", "config", "tool_version"])
        header = (out / "sweep.csv").read_text().splitlines()[0]
        assert header.split(",") == list(rep.columns)

    def test_delta_sweep_requires_matched_coefficients(self, tmp_path):
        code = cli.main(["sweep", "--scenario", "regular_sign", "--axis", "delta",
                         "--values", "0.01 0.005", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_member_failure_identified(self, tmp_path, capsys):
        # at this step 8 modes are stable and 32 and 64 blow up, 64 at an
        # earlier time: the first member that blows up is named
        cfg = dataclasses.replace(get_scenario("tanh_front"), method="rk4", dt=0.05)
        path = tmp_path / "unstable.cfg"
        path.write_text(serialize_config(cfg))
        code = cli.main(["sweep", "--config", str(path), "--axis", "n",
                         "--values", "8 32 64", "--out", str(tmp_path / "o")])
        assert code == 4
        assert "sweep failure: ladder member 32 failed: blow-up" in capsys.readouterr().err

    def test_a_failed_sweep_leaves_no_earlier_output(self, tmp_path):
        out = tmp_path / "o"
        assert cli.main(["sweep", "--scenario", "obstacle_sign", "--axis", "eps",
                         "--values", "1e-1 1e-2", "--out", str(out)]) == 0
        assert (out / "sweep.json").exists() and (out / "sweep.csv").exists()
        # at this step the 32-mode member blows up
        path = tmp_path / "unstable.cfg"
        path.write_text(serialize_config(dataclasses.replace(
            get_scenario("tanh_front"), method="rk4", dt=0.05)))
        assert cli.main(["sweep", "--config", str(path), "--axis", "n",
                         "--values", "8 32", "--out", str(out)]) == 4
        assert not (out / "sweep.json").exists() and not (out / "sweep.csv").exists()

    def test_n_sweep_needs_no_base_problem(self, tmp_path):
        # eta0's mode 6 lies outside a 4-mode basis but inside every
        # member's: the n ladder takes only the config's schedule, so the
        # sweep gives the numbers of the same ladder from an 8-mode config
        payloads = {}
        for modes in (4, 8):
            cfg = dataclasses.replace(get_scenario("tanh_front"), modes=modes,
                                      eta0="cosine 0.3 6")
            path = tmp_path / f"m{modes}.cfg"
            path.write_text(serialize_config(cfg))
            out = tmp_path / f"o{modes}"
            assert cli.main(["sweep", "--config", str(path), "--axis", "n",
                             "--values", "8 16", "--out", str(out)]) == 0
            payloads[modes] = json.loads((out / "sweep.json").read_text())
            assert payloads[modes].pop("config") == serialize_config(cfg)
        assert payloads[4] == payloads[8]
        assert (tmp_path / "o4" / "sweep.csv").read_bytes() == \
            (tmp_path / "o8" / "sweep.csv").read_bytes()

    def test_member_build_failure_identified(self, tmp_path, capsys):
        # regular_sign's phi0 is "cosine 0.5 2", which a 2-mode basis lacks;
        # the base problem builds, and the member that does not is named
        code = cli.main(["sweep", "--scenario", "regular_sign", "--axis", "n",
                         "--values", "2 4", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ladder member 2" in err and "cosine mode 2" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "sweep.json").exists()

    def test_member_too_large_for_memory_exits_as_config_error(self, tmp_path, capsys,
                                                              monkeypatch):
        build = spectral.build_basis

        def too_large(dims, lengths, n, m_quad=None):
            if n > 64:
                raise MemoryError()
            return build(dims, lengths, n, m_quad)

        monkeypatch.setattr(spectral, "build_basis", too_large)
        code = cli.main(["sweep", "--scenario", "tanh_front", "--axis", "n",
                         "--values", "8 1000000", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: ladder member 1000000 does not fit in memory\n")
        assert not (tmp_path / "o" / "sweep.json").exists()

    def test_delta_member_blow_up_exit_code(self, tmp_path, capsys):
        code = cli.main(["sweep", "--scenario", "contraction_base", "--axis", "delta",
                         "--values", "0.01 1e9", "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "ladder member" in err and "1000000000.0" in err
        assert "Traceback" not in err

    def test_delta_member_over_the_ceiling_exits_at_t_0(self, tmp_path, capsys):
        code = cli.main(["sweep", "--scenario", "contraction_base", "--axis", "delta",
                         "--values", "1e300 0.01", "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert ("sweep failure: ladder member 1e+300 failed: blow-up detected in phi "
                "of stack row 1 at t = 0 (") in err
        assert "RuntimeWarning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("values", ["0.01 0", "0.01 -0.01", "0.01", "0.01 0.01 0.005",
                                        "inf 0.01", "nan 0.01 0.02"])
    def test_inadmissible_delta_ladder_exit_code(self, tmp_path, capsys, values):
        code = cli.main(["sweep", "--scenario", "contraction_base", "--axis", "delta",
                         "--values", values, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "two distinct deltas, all positive" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "sweep.json").exists()

    def test_one_mode_delta_sweep_exit_code(self, tmp_path, capsys):
        cfg = dataclasses.replace(get_scenario("contraction_base"), modes=1, quadrature=None,
                                  eta0="constant 0.1", phi0="constant 0.3", eta_star="zero")
        path = tmp_path / "one_mode.cfg"
        path.write_text(serialize_config(cfg))
        code = cli.main(["sweep", "--config", str(path), "--axis", "delta",
                         "--values", "0.01 0.005", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "at least 2 modes" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "sweep.json").exists()

    def test_inadmissible_delta_member_exit_code(self, tmp_path, capsys):
        # the base datum stays in the obstacle's domain, the 0.01 member
        # leaves it: a member that cannot be built exits 2, as on the other
        # axes and in run
        path = tmp_path / "obstacle.cfg"
        path.write_text(edited_config("contraction_base", [
            ("potential", "variant", "obstacle"), ("potential", "c0", "1.0"),
            ("initial", "phi0", "cosine 0.995 1")]))
        code = cli.main(["sweep", "--config", str(path), "--axis", "delta",
                         "--values", "0.01 0.005", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ladder member 0.01 failed: initial order parameter leaves" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "sweep.json").exists()

    @pytest.mark.parametrize("values", ["1e-30 1e-31", "0.01 0.010000000000000002"])
    def test_delta_ladder_that_rounds_away_exit_code(self, tmp_path, capsys, values):
        # both deltas of the second ladder give phi0 the same mode-1 coefficient
        code = cli.main(["sweep", "--scenario", "contraction_base", "--axis", "delta",
                         "--values", values, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "own mode-1 coefficient" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "sweep.json").exists()

    def test_traced_n_sweep(self, tmp_path, monkeypatch):
        # the n ladder solves each member on its own, through estimates.solve
        tracing = bench_tracing(monkeypatch)
        tracer = tracing.Tracer()
        bindings = [(owner, attr, vars(owner)[attr])
                    for owner, attr, _ in tracer._targets()]
        with tracing.installed(tracer):
            assert cli.main(["sweep", "--scenario", "tanh_front", "--axis", "n",
                             "--values", "8 16 32 64", "--out", str(tmp_path / "o")]) == 0
        assert tracer.stats["estimates.galerkin_convergence"].calls == 1
        assert tracer.stats["dynamics.solve"].calls == 4
        assert all(vars(owner)[attr] is original for owner, attr, original in bindings)

    def test_traced_eps_sweep(self, tmp_path, monkeypatch):
        # the benchmark's tracer patches module bindings, among them
        # estimates.solve: the ladder's members are solved as one stack, in
        # the scenario's steps
        tracing = bench_tracing(monkeypatch)
        tracer = tracing.Tracer()
        bindings = [(owner, attr, vars(owner)[attr])
                    for owner, attr, _ in tracer._targets()]
        with tracing.installed(tracer):
            assert cli.main(["sweep", "--scenario", "obstacle_sign", "--axis", "eps",
                             "--values", "1e-1 1e-2 1e-3 1e-4",
                             "--out", str(tmp_path / "o")]) == 0
        cfg = get_scenario("obstacle_sign")
        assert tracer.stats["estimates.yosida_convergence"].calls == 1
        assert tracer.stats["dynamics.solve"].calls == 1
        assert tracer.counters["eps_ladder_steps"] == round(cfg.t_final / cfg.dt) == 300
        assert all(vars(owner)[attr] is original for owner, attr, original in bindings)

    def test_traced_delta_sweep(self, tmp_path, monkeypatch):
        # the benchmark's tracer counts the solves of a contraction sweep and
        # the distinct data they receive, read from the coefficient arrays
        tracing = bench_tracing(monkeypatch)
        tracer = tracing.Tracer()
        bindings = [(owner, attr, vars(owner)[attr])
                    for owner, attr, _ in tracer._targets()]
        with tracing.installed(tracer):
            assert cli.main(["sweep", "--scenario", "contraction_base", "--axis", "delta",
                             "--values", "0.01 0.005", "--out", str(tmp_path / "o")]) == 0
        assert tracer.stats["dynamics.solve"].calls == 1
        assert tracer.counters["contraction_solves"] == 1
        assert tracer.counters["contraction_distinct"] == 1
        assert all(vars(owner)[attr] is original for owner, attr, original in bindings)

    def test_eps_member_blow_up_names_its_eps(self, tmp_path, capsys, monkeypatch):
        # the stacked ladder binds one eps per row: a Yosida map that blows
        # up below eps = 5e-3 sends the rows of 1e-3 and 1e-4 over the
        # ceiling at the same step, and the first of them is named
        yosida = monotone.NonlocalSign._yosida

        def unstable(self, eps, v):
            return yosida(self, eps, v) * np.where(eps < 5e-3, 1e12, 1.0)

        monkeypatch.setattr(monotone.NonlocalSign, "_yosida", unstable)
        code = cli.main(["sweep", "--scenario", "obstacle_sign", "--axis", "eps",
                         "--values", "1e-1 1e-2 1e-3 1e-4", "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "sweep failure: ladder member 0.001 failed: blow-up" in err
        assert "stack row 2" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "sweep.json").exists()

    def test_delta_sweep(self, tmp_path):
        out = tmp_path / "d"
        code = cli.main(["sweep", "--scenario", "contraction_base", "--axis", "delta",
                         "--values", "0.01 0.005 0.0025", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["slope"] == pytest.approx(1.0, abs=0.15)
        for key in ("pair_dissipation_eta_min", "pair_dissipation_phi_min"):
            assert len(payload[key]) == 3
            assert min(payload[key]) >= -1e-9, key

    def test_negative_pair_dissipation_exit_code(self, tmp_path, capsys, monkeypatch):
        # a decreasing Yosida kernel is not monotone: the pairing of two
        # solutions' selections against their difference goes negative
        def decreasing(self, eps, x):
            return -np.minimum(np.maximum(x / eps, -1.0), 1.0)

        monkeypatch.setattr(ScalarSign, "_yosida", decreasing)
        out = tmp_path / "d"
        code = cli.main(["sweep", "--scenario", "contraction_base", "--axis", "delta",
                         "--values", "0.01 0.005", "--out", str(out)])
        assert code == 3
        payload = json.loads((out / "sweep.json").read_text())
        assert min(payload["pair_dissipation_eta_min"]) < -1e-9
        assert (out / "sweep.csv").exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        failures = [line for line in err.splitlines() if line.startswith(
            "invariant failure: pair dissipation of (zeta, eta) went negative (")]
        assert [line.rsplit(" ", 1)[1] for line in failures] == ["0.01", "0.005"]


class TestOtherCommands:
    def test_scenarios_list(self, capsys):
        assert cli.main(["scenarios", "list"]) == 0
        printed = capsys.readouterr().out
        for name in scenario_names():
            assert name in printed

    def test_scenarios_show_round_trips(self, capsys):
        assert cli.main(["scenarios", "show", "heat_decay"]) == 0
        printed = capsys.readouterr().out
        assert parse_config(printed) == get_scenario("heat_decay")

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenarios_show_prints_the_run_echo(self, tmp_path, capsys, name):
        assert cli.main(["scenarios", "show", name]) == 0
        printed = capsys.readouterr().out
        assert cli.main(["run", "--scenario", name, "--out", str(tmp_path)]) == 0
        assert printed == json.loads((tmp_path / "report.json").read_text())["config"]

    def test_scenarios_show_needs_a_name(self, capsys):
        assert cli.main(["scenarios", "show"]) == 2
        assert capsys.readouterr().err == "config error: scenario name required\n"

    def test_unknown_scenario(self, tmp_path, capsys):
        for argv in (["run", "--scenario", "nope", "--out", str(tmp_path)],
                     ["scenarios", "show", "nope"]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err.startswith(
                "config error: unknown scenario 'nope'; available: "), argv

    def test_readme_command_lines_parse(self):
        # every command line of README's usage block parses as written, its
        # sweep values too, so a renamed flag or axis choice fails here;
        # nothing is run
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = [shlex.split(line)[1:] for line in readme.read_text().splitlines()
                 if line.startswith("    phasemono ")]
        assert len(lines) == 8
        for argv in lines:
            args = cli._build_parser().parse_args(argv)
            if args.command == "sweep":
                cli._parse_values(args.values, cli._SWEEPS[args.axis][0])

    def test_a_failed_selftest_leaves_no_earlier_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_selftest", lambda: [])
        assert cli.main(["graph-selftest", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "selftest.json").exists()

        def give_up():
            raise ResolventError("resolvent root-find hit the 200-iteration cap")

        monkeypatch.setattr(cli, "run_selftest", give_up)
        assert cli.main(["graph-selftest", "--out", str(tmp_path)]) == 4
        assert "numerical failure" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_selftest_passes(self, selftest_run):
        # exit 0 means every row passed; the property tests name failing rows
        assert selftest_run.code == 0
        payload = selftest_run.payload
        assert set(payload) == {"tool_version", "results"}
        assert all(set(r) == {"suite", "variant", "property", "passed", "worst", "detail"}
                   for r in payload["results"])
