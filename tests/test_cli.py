"""Config parsing, CLI subcommands, output formats and exit codes."""

import json

import numpy as np
import pytest

from phasemono import cli
from phasemono.config import ConfigError, parse_config, serialize_config, with_overrides
from phasemono.scenarios import get_scenario, scenario_names, scenario_text


class TestConfig:
    @pytest.mark.parametrize("name", scenario_names())
    def test_round_trip_is_identity(self, name):
        cfg = get_scenario(name)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_unknown_key_reports_line(self):
        text = scenario_text("zero").replace("[model]", "[model]\nbogus = 1")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "bogus" in str(err.value)
        assert "line" in str(err.value)

    def test_bad_value_reports_location(self):
        text = scenario_text("zero").replace("k = 1.0", "k = fast")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "k" in str(err.value)

    def test_validation_failures(self):
        cfg = get_scenario("zero")
        for kw in ({"gamma": -1.0}, {"modes": 0}, {"method": "euler"},
                   {"potential": "sextic"}, {"dims": 3}):
            with pytest.raises(ConfigError):
                with_overrides(cfg, **kw)

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config("[cooling]\nrate = 1\n")

    def test_obstacle_rejects_out_of_range_data(self):
        cfg = with_overrides(get_scenario("obstacle_sign"), phi0="constant 1.5")
        from phasemono.config import build_problem
        with pytest.raises(ConfigError):
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

    def test_missing_config_exit_code(self, tmp_path):
        assert cli.main(["run", "--out", str(tmp_path / "o")]) == 2

    def test_blowup_exit_code(self, tmp_path):
        cfg = with_overrides(get_scenario("tanh_front"), method="rk4", dt=0.05)
        path = tmp_path / "unstable.cfg"
        path.write_text(serialize_config(cfg))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 4

    def test_resolvent_failure_exit_code(self, tmp_path, capsys):
        # the quartic-well resolvent root-find cannot meet its absolute
        # tolerance at |phi| = 1e12 and gives up at its iteration cap
        cfg = with_overrides(get_scenario("regular_sign"), phi0="constant 1e12")
        path = tmp_path / "huge.cfg"
        path.write_text(serialize_config(cfg))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err

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

    def test_eps_ladder_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["sweep", "--scenario", "obstacle_sign", "--axis", "eps",
                             "--values", "1e-1 1e-2", "--out", str(out)]) == 0
        assert (a / "sweep.json").read_bytes() == (b / "sweep.json").read_bytes()

    def test_delta_sweep_requires_matched_coefficients(self, tmp_path):
        code = cli.main(["sweep", "--scenario", "regular_sign", "--axis", "delta",
                         "--values", "0.01 0.005", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_member_failure_identified(self, tmp_path, capsys):
        cfg = with_overrides(get_scenario("tanh_front"), method="rk4", dt=0.05)
        path = tmp_path / "unstable.cfg"
        path.write_text(serialize_config(cfg))
        code = cli.main(["sweep", "--config", str(path), "--axis", "n",
                         "--values", "8 32", "--out", str(tmp_path / "o")])
        assert code == 4
        assert "ladder member" in capsys.readouterr().err

    def test_delta_sweep(self, tmp_path):
        out = tmp_path / "d"
        code = cli.main(["sweep", "--scenario", "contraction_base", "--axis", "delta",
                         "--values", "0.01 0.005 0.0025", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["slope"] == pytest.approx(1.0, abs=0.15)


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

    def test_unknown_scenario(self, tmp_path):
        assert cli.main(["run", "--scenario", "nope", "--out", str(tmp_path)]) == 2

    def test_selftest_passes(self, tmp_path, capsys):
        code = cli.main(["graph-selftest", "--out", str(tmp_path / "st")])
        assert code == 0
        payload = json.loads((tmp_path / "st" / "selftest.json").read_text())
        assert all(r["passed"] for r in payload["results"])
