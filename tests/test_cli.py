import csv
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from laxkit import cli
from laxkit import lattice as lat
from laxkit import liouville as lv


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestConfig:
    def test_invalid_mode_rejected(self):
        with pytest.raises(cli.ConfigError, match="invalid mode"):
            cli.RunConfig.from_dict({"mode": "nope"})

    def test_missing_mode_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig.from_dict({})

    def test_bad_seed_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig.from_dict({"mode": "verify-poisson", "seed": "x"})

    @pytest.mark.parametrize("seed", [-1, True, 1.0])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(cli.ConfigError, match="seed must be a non-negative integer"):
            cli.RunConfig.from_dict({"mode": "verify-poisson", "seed": seed})

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mode": "verify-charges"})
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: seed must be" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_suite_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert cli.main(["suite", "--out", str(out), "--seed", "-1"]) == 2
        assert "config error: seed must be" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_tolerance_scale_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig.from_dict({"mode": "verify-poisson", "tolerance_scale": -1})

    def test_bad_params_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig.from_dict({"mode": "verify-poisson", "params": [1, 2]})

    def test_cli_exit_code_2_on_bad_config(self, tmp_path):
        path = write_config(tmp_path, {"mode": "bogus"})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_cli_exit_code_2_on_unreadable_config(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2

    def test_infinite_tolerance_scale_rejected(self, tmp_path):
        # JSON Infinity would scale every tolerance to inf and pass every check
        path = write_config(tmp_path, {"mode": "verify-poisson",
                                       "tolerance_scale": float("inf")})
        assert "Infinity" in path.read_text()
        with pytest.raises(cli.ConfigError, match="finite and positive"):
            cli.RunConfig.from_dict(json.loads(path.read_text()))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("scale", ["inf", "nan", "-1", "0"])
    def test_suite_tolerance_scale_validated(self, tmp_path, scale, capsys):
        out = tmp_path / "s"
        assert cli.main(["suite", "--out", str(out), "--tolerance-scale", scale]) == 2
        assert "config error: tolerance_scale must be finite and positive" in (
            capsys.readouterr().err
        )
        assert not (out / "suite_report.json").exists()

    @pytest.mark.parametrize("payload", [
        {"mode": "verify-charges", "params": {"sizes": []}},
        {"mode": "lattice-sim", "params": {"N": 0}},
        {"mode": "verify-poisson", "params": {"samples": "x"}},
        {"mode": "lattice-defect-sim", "params": {"N": 5, "defect_site": 5}},
        {"mode": "hetero-bt", "params": {"nz": 2}},
    ])
    def test_malformed_counts_are_config_errors(self, tmp_path, payload, capsys):
        path = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()


    @pytest.mark.parametrize("payload", [
        {"mode": "lattice-sim", "params": {"dt": "x"}},
        {"mode": "lattice-sim", "params": {"probes": ["x"]}},
        {"mode": "lattice-sim", "params": {"probes": []}},
        {"mode": "lattice-sim", "params": {"drift_window": [1e-10]}},
        {"mode": "lattice-defect-sim", "params": {"theta": "0.1+"}},
        {"mode": "lattice-defect-sim", "params": {"ratio_low": None}},
        {"mode": "verify-zero-curvature", "params": {"mu_probes": ["x"]}},
        {"mode": "verify-poisson", "params": {"lambda_probes": ["x"], "mu_probes": [0.1]}},
        {"mode": "verify-poisson", "params": {"mu_probes": 0.1}},
        {"mode": "liouville-evolve", "params": {"L": "nan"}},
        {"mode": "monodromy-check", "params": {"amplitude": True}},
        {"mode": "bt-evolve", "params": {"y_seed": [0.1]}},
        {"mode": "hetero-bt", "params": {"Theta": "inf"}},
    ])
    def test_malformed_numbers_are_config_errors(self, tmp_path, payload, capsys):
        path = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        key = next(iter(payload["params"]))
        assert f"config error: {key} must be" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_probe_lists_of_unequal_length_are_config_errors(self, tmp_path, capsys):
        # zip would drop the probes 1.0 and 1.5 without a word
        path = write_config(tmp_path, {"mode": "verify-poisson", "params": {
            "samples": 1, "lambda_probes": [0.5, 1.0, 1.5], "mu_probes": [0.2]}})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error: lambda_probes and mu_probes must be of equal length" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("payload", [
        # the coarse run (2 dt) would end at 1.002, the fine one at 0.999
        {"mode": "lattice-sim", "params": {"dt": 0.003, "t_end": 1.0}},
        {"mode": "lattice-defect-sim", "params": {"dt_coarse": 0.03, "t_end": 1.0}},
        {"mode": "liouville-evolve", "params": {"dt": 0.003, "t_end": 0.5}},
        {"mode": "bt-evolve", "params": {"dt": 0.003, "t_end": 0.4}},
    ])
    def test_t_end_off_the_step_grid_is_config_error(self, tmp_path, payload, capsys):
        path = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error: t_end must be a whole multiple of every step" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out" / "report.json").exists()

    def test_numeric_strings_still_parse(self, tmp_path):
        # complex parameters arrive from JSON as strings
        path = write_config(tmp_path, {"mode": "verify-zero-curvature",
                                       "params": {"samples": 2, "mu_probes": ["0.1+0.2j", 0.3]}})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


class TestRun:
    def test_verify_poisson_passes(self, tmp_path):
        path = write_config(tmp_path, {"mode": "verify-poisson", "seed": 7})
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is True
        assert report["mode"] == "verify-poisson"
        assert all(r["value"] <= 1e-10 for r in report["records"])

    def test_report_echoes_config_and_anchors(self, tmp_path):
        path = write_config(tmp_path, {"mode": "verify-charges", "seed": 3,
                                       "params": {"samples": 20}})
        cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["seed"] == 3
        assert report["config"]["params"] == {"samples": 20}
        assert all(r["anchor"] for r in report["records"])

    def test_determinism_byte_identical(self, tmp_path):
        path = write_config(tmp_path, {"mode": "verify-charges", "seed": 11})
        cli.main(["run", "--config", str(path), "--out", str(tmp_path / "a")])
        cli.main(["run", "--config", str(path), "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    def test_lattice_sim_fixed_point_flat_series(self, tmp_path):
        path = write_config(
            tmp_path,
            {"mode": "lattice-sim", "seed": 1,
             "params": {"N": 4, "dt": 0.02, "t_end": 0.52, "amplitude": 0.0,
                        "ratio_low": 0.0, "trace_ratio_low": 0.0,
                        "drift_window": [0.0, 1.0]}},
        )
        cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        with open(tmp_path / "out" / "series.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        c2_re = header.index("c2_re")
        values = [float(r[c2_re]) for r in data]
        assert max(values) - min(values) < 1e-14
        assert len(data) >= 25

    def test_series_csv_is_crlf(self, tmp_path):
        path = write_config(
            tmp_path,
            {"mode": "lattice-sim", "seed": 1,
             "params": {"N": 4, "dt": 0.02, "t_end": 0.2, "amplitude": 0.1,
                        "ratio_low": 0.0, "trace_ratio_low": 0.0}},
        )
        cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        raw = (tmp_path / "out" / "series.csv").read_bytes()
        assert b"\r\n" in raw

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, {"mode": "verify-charges", "seed": 1})
        cli.main(["run", "--config", str(path), "--seed", "5", "--out", str(tmp_path / "o")])
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["config"]["seed"] == 5

    def test_explicit_probe_lists(self, tmp_path):
        path = write_config(
            tmp_path,
            {"mode": "verify-poisson", "seed": 3,
             "params": {"samples": 10, "lambda_probes": [0.5, 1.0],
                        "mu_probes": [-0.3, 0.2]}},
        )
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_liouville_blowup_reports_failure(self, tmp_path, monkeypatch):
        # phi = i b, pi = 0 is annihilated by the wide Laplacian, so the grid
        # follows psi'' = 8 e^psi with psi = -2i phi exactly: psi = 2b - 2 log
        # cos(2 e^b t), a pole at t* = pi e^{-b} / 4 (0.785 at b = 0)
        b = 0.0
        t_star = np.pi * np.exp(-b) / 4.0
        t_end = 1.0
        assert t_star < t_end

        def constant_field(L, n, rng, amplitude=0.2):
            return lv.FieldConfig(L, 1j * b * np.ones(n), np.zeros(n))

        monkeypatch.setattr(lv, "random_config", constant_field)
        path = write_config(
            tmp_path,
            {"mode": "liouville-evolve", "seed": 1,
             "params": {"points": 32, "dt": 5e-3, "t_end": t_end}},
        )
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aborted"] is True

    def test_liouville_stage_overflow_reports_failure(self, tmp_path):
        # max Im phi = 12.09 at grid index 0 at this seed: the local pole
        # time pi e^{-12.09} / 4 ~ 4e-6 is far below dt, so the input of RK
        # stage 2 of the first step is past the blow-up threshold there
        # before any accepted step can be checked
        path = write_config(
            tmp_path,
            {"mode": "liouville-evolve", "seed": 3,
             "params": {"points": 32, "dt": 5e-3, "t_end": 40.0, "amplitude": 2.5}},
        )
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aborted"] is True
        [record] = [r for r in report["records"] if r["name"] == "blow-up"]
        assert record["anchor"] == (
            "above the blow-up threshold at RK stage 2 of step 1 (t = 0.0025), pi[0]"
        )

    def test_monodromy_overflow_reports_failure(self, tmp_path, capsys):
        # at amplitude 2 the ninth seed-0 field drives the ordered cell
        # product of the monodromy out of double range
        path = write_config(tmp_path, {"mode": "monodromy-check", "params": {"amplitude": 2}})
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aborted"] is True
        [record] = [r for r in report["records"] if r["name"] == "blow-up"]
        assert record["anchor"] == "overflow: monodromy integration lost normalization"
        assert record["passed"] is False

    def test_hetero_pole_reports_failure(self, tmp_path, capsys):
        # c = -2, Theta = 0 puts the pole of the vanishing free field on
        # z + zbar = 1/4 inside the default rectangle; the small free field
        # of the mode moves it only slightly, to (z[9], zbar) = (0.1125, 0.15)
        path = write_config(tmp_path, {"mode": "hetero-bt", "params": {"c": -2.0, "Theta": 0.0}})
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aborted"] is True
        [record] = report["records"]
        assert record["name"] == "blow-up"
        assert record["anchor"] == (
            "pole in the zbar sweep at RK stage 4 of step 12 (t = 0.15), phi~ at z[9]"
        )
        assert "Traceback" not in capsys.readouterr().err

    def test_bt_evolve_non_finite_reports_failure(self, tmp_path, capsys):
        # past t = 0.9 the grid x in [-0.9, 0.9] keeps no causal point, and
        # the run would only abort on its edge stencils (near t = 2.8175,
        # see test_backlund); the mode rejects such a t_end up front
        path = write_config(tmp_path, {"mode": "bt-evolve",
                                       "params": {"t_end": 3.0, "seed_offset": 2.0}})
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error: need t_end < 0.9" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("mode", ["liouville-evolve", "lattice-sim", "bt-evolve"])
    def test_step_above_t_end_is_config_error(self, tmp_path, mode, capsys):
        path = write_config(tmp_path, {"mode": mode, "params": {"dt": 1.0, "t_end": 0.5}})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error: need 0 < dt <= t_end" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_coarse_step_above_t_end_is_config_error(self, tmp_path):
        # dt fits, but the coarse companion run at 2 dt would not
        path = write_config(tmp_path, {"mode": "liouville-evolve",
                                       "params": {"dt": 0.3, "t_end": 0.5}})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_suite_subcommand_via_main(self, tmp_path):
        assert cli.main(["suite", "--out", str(tmp_path / "s"), "--seed", "0",
                         "--tolerance-scale", "1.0"]) == 0

    def test_singular_trajectory_reports_failure(self, tmp_path):
        # huge amplitude blows up quickly and must exit 1, not crash
        path = write_config(
            tmp_path,
            {"mode": "lattice-sim", "seed": 2,
             "params": {"N": 6, "dt": 0.02, "t_end": 5.0, "amplitude": 3.0}},
        )
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aborted"] is True


class TestSuite:
    def test_full_suite_passes(self, tmp_path):
        report = cli.suite(tmp_path / "suite", seed=0)
        assert report.passed
        data = json.loads((tmp_path / "suite" / "suite_report.json").read_text())
        assert data["passed"] is True
        names = {r["name"] for r in data["records"]}
        assert "determinism" in names
        timing = json.loads((tmp_path / "suite" / "timing.json").read_text())
        runs = list(cli.MODES) + ["determinism-1", "determinism-2"]
        assert list(timing["modes"]) == runs
        assert sum(timing["modes"].values()) <= timing["elapsed_s"]
        for name in runs:
            assert (tmp_path / "suite" / name / "report.json").exists()
            assert (tmp_path / "suite" / name / "timing.json").exists()

    def test_reports_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        # the same battery under two clocks ticking 1 s and 250 s per read:
        # every report is byte-identical, and timing.json holds the ticks
        monkeypatch.setattr(cli, "MODES", ("verify-charges", "verify-poisson"))
        for tick in (1.0, 250.0):
            clock = itertools.count(0.0, tick)
            monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
            cli.suite(tmp_path / str(tick), seed=3)
            timing = json.loads((tmp_path / str(tick) / "timing.json").read_text())
            # the battery reads the clock 2 times, each of its 4 runs 2 times
            assert timing["elapsed_s"] == 9 * tick
            assert set(timing["modes"].values()) == {tick}
            run_timing = json.loads((tmp_path / str(tick) / "verify-poisson" / "timing.json")
                                    .read_text())
            assert run_timing == {"elapsed_s": tick}
        reports = [path.relative_to(tmp_path / "1.0") for path in (tmp_path / "1.0").rglob("*")
                   if path.is_file() and path.name != "timing.json"]
        assert "suite_report.json" in map(str, reports) and len(reports) == 5
        for path in reports:
            assert (tmp_path / "1.0" / path).read_bytes() == (
                tmp_path / "250.0" / path).read_bytes()

    def test_mutation_is_detected(self, tmp_path, monkeypatch):
        # flip a sign in the bulk equations of motion: conservation and
        # zero-curvature checks must fail
        original = lat.bulk_eom

        def broken(s):
            d = original(s)
            return lat.LatticeDerivative(d.a, d.a_bar, -d.v)

        monkeypatch.setattr(lat, "bulk_eom", broken)
        cfg = cli.RunConfig("verify-zero-curvature", seed=0, params={"samples": 10})
        report = cli.run(cfg, tmp_path / "mutated")
        assert not report.passed
        failed = {r.name for r in report.records if not r.passed}
        assert "zero-curvature-bulk" in failed
        assert "hamiltonian-flow-consistency" in failed
