import csv
import itertools
import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from laxkit import cli
from laxkit import lattice as lat
from laxkit import liouville as lv


# (name, tolerance, criterion, power-of-ten bound) of every record of the
# seed-0 battery, and the lattice modes' criteria: a loosened bound shows
# in the diff of this table
RECORD_TABLE = json.loads((Path(__file__).parent / "suite_records.json").read_text())


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    """``laxkit suite`` at battery seed 0, run once for the tests that read it."""
    out = tmp_path_factory.mktemp("suite")
    return cli.suite(out, seed=0), out


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
        # not UTF-8, and JSON that is not an object with an override given
        for body, flags in ((b'\xff\xfe{"mode": "verify-poisson"}', []),
                            (b"[1, 2]", ["--seed", "1"]),
                            (b'"x"', ["--tolerance-scale", "2"])):
            path, out = tmp_path / "cfg.json", tmp_path / "out"
            path.write_bytes(body)
            assert cli.main(["run", "--config", str(path), "--out", str(out), *flags]) == 2
            assert not out.exists()

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
        {"mode": "lattice-sim", "params": {"probes": [2.0, None]}},
        {"mode": "lattice-defect-sim", "params": {"theta": "0.1+"}},
        {"mode": "lattice-defect-sim", "params": {"amplitude": None}},
        {"mode": "verify-zero-curvature", "params": {"mu_probes": ["x"]}},
        {"mode": "verify-poisson", "params": {"lambda_probes": ["x"], "mu_probes": [0.1]}},
        {"mode": "verify-poisson", "params": {"mu_probes": 0.1}},
        {"mode": "liouville-evolve", "params": {"L": "nan"}},
        {"mode": "monodromy-check", "params": {"amplitude": True}},
        {"mode": "bt-evolve", "params": {"y_seed": [0.1]}},
        {"mode": "hetero-bt", "params": {"Theta": "inf"}},
        # numbers outside the model: no grid, no coupling, a probe on the pole
        {"mode": "liouville-evolve", "params": {"L": 0}},
        {"mode": "liouville-evolve", "params": {"L": -1}},
        {"mode": "monodromy-check", "params": {"L": 0}},
        {"mode": "bt-evolve", "params": {"L": 0}},
        {"mode": "hetero-bt", "params": {"c": 0}},
        {"mode": "verify-poisson", "params": {"lambda_probes": [0.5], "mu_probes": [0.5]}},
    ])
    def test_malformed_numbers_are_config_errors(self, tmp_path, payload, capsys):
        path = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        key = next(iter(payload["params"]))
        assert f"config error: {key} must be" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("mode, key", [
        ("verify-poisson", "sampels"),
        # the lattice criteria are constants now, not params
        *((mode, key) for mode in ("lattice-sim", "lattice-defect-sim")
          for key in ("drift_window", "ratio_low", "ratio_high", "trace_ratio_low",
                      "candidate_attempts", "dt_coarse")),
    ])
    def test_unknown_params_are_config_errors(self, tmp_path, mode, key, capsys):
        path = write_config(tmp_path, {"mode": mode, "params": {"samples": 3, key: 1.0}
                                       if mode == "verify-poisson" else {key: 1.0}})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: unknown params {key!r} for mode {mode}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_unknown_config_keys_are_config_errors(self, tmp_path, capsys):
        # a misspelt "params" would run 100 samples on the defaults
        path = write_config(tmp_path, {"mode": "verify-poisson", "parmas": {"samples": 3}})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: unknown config keys 'parmas'" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("mode, key", [
        (mode, key) for mode, keys in cli.PARAMS.items() for key in keys])
    def test_every_accepted_param_is_read(self, tmp_path, mode, key, capsys):
        # a key the mode accepts but never reads would be ignored silently
        path = write_config(tmp_path, {"mode": mode, "params": {key: "not a number"}})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {key} must be" in capsys.readouterr().err
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
        # dt fits, the coarse run (2 dt) would end at 0.48
        {"mode": "lattice-defect-sim", "params": {"dt": 0.02, "t_end": 0.5}},
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


class TestDecade:
    @pytest.mark.parametrize("value, bound", [
        (0.0, 0.0), (1e-15, 1e-15), (np.nextafter(1e-15, 1.0), 1e-14),
        (np.nextafter(1e-15, 0.0), 1e-15), (2.4493442355466893e-14, 1e-13), (1.0, 1.0),
        (3.0, 10.0), (5e-324, 1e-323), (1.5e308, math.inf)])
    def test_next_power_of_ten_at_or_above(self, value, bound):
        assert cli._decade(float(value)) == bound

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1e-15])
    def test_nan_inf_and_negatives_unchanged(self, value):
        got = cli._decade(value)
        assert got == value or (math.isnan(got) and math.isnan(value))

    def test_never_lowers_and_is_the_smallest_power(self):
        rng = np.random.default_rng(4)
        for value in 10.0 ** rng.uniform(-320, 300, 2000):
            bound = cli._decade(float(value))
            k = round(math.log10(bound))
            assert bound == float(f"1e{k}") and float(f"1e{k - 1}") < value <= bound

    @pytest.mark.parametrize("value, passed", [
        (2.45e-14, True), (5e-14, True), (5.5e-14, False), (math.nan, False)])
    def test_roundoff_record_passes_on_its_value(self, value, passed):
        report = cli.Report("verify-poisson", {})
        report.add_roundoff("quadratic-exchange-bulk", "", value, 5e-14)
        rec = report.records[0]
        assert rec.passed is passed and rec.criterion == "max" and rec.tolerance == 5e-14
        assert rec.value == 1e-13 or (math.isnan(rec.value) and math.isnan(value))

    def test_tolerance_between_powers_of_ten(self, tmp_path):
        # the seed-0 residuals lie below 5e-14 but above 1e-14: each record
        # reads 1e-13, above its tolerance, and passes as its value does
        path = write_config(tmp_path, {"mode": "verify-poisson", "tolerance_scale": 5e-4})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        records = json.loads((tmp_path / "out" / "report.json").read_text())["records"]
        bulk, field = (r for r in records if r["name"] != "quadratic-exchange-defect")
        for rec in (bulk, field):
            assert rec["value"] == 1e-13 > rec["tolerance"] == 5e-14 and rec["passed"]


class TestRun:
    @pytest.mark.parametrize("bad_draw", [1, 6])
    def test_nan_draw_fails_the_record(self, tmp_path, monkeypatch, bad_draw):
        # a running max from 0.0 drops a nan; the record must read nan and
        # fail.  The draws' residuals come from one call per chain length on
        # a stack of states, so the poisoned call sets a nan in the row of
        # the bad draw's state: the first of each draw's two drawn states
        drawn, poisoned_rows = [], []
        draw, residual = lat.random_state, lat.zero_curvature_residual

        def recording(n, rng, *args, **kwargs):
            drawn.append(draw(n, rng, *args, **kwargs))
            return drawn[-1]

        def poisoned(s, j, mu):
            bad = drawn[2 * (bad_draw - 1)]
            rows = [bad.N == s.N and np.array_equal(bad.a, a) for a in s.a]
            poisoned_rows.extend(np.flatnonzero(rows))
            out = residual(s, j, mu)
            out[rows] = np.nan
            return out

        monkeypatch.setattr(lat, "random_state", recording)
        monkeypatch.setattr(lat, "zero_curvature_residual", poisoned)
        report = cli.run(cli.RunConfig("verify-zero-curvature", params={"samples": 8}), tmp_path)
        assert len(drawn) == 16 and len(poisoned_rows) == 1
        rec = next(r for r in report.records if r.name == "zero-curvature-bulk")
        assert np.isnan(rec.value) and not rec.passed and not report.passed
        assert all(r.passed for r in report.records if r is not rec)
        # strict JSON: the bare NaN token is rejected
        written = json.loads((tmp_path / "report.json").read_text(),
                             parse_constant=lambda token: pytest.fail(f"{token} in report.json"))
        assert written["passed"] is False
        assert next(r for r in written["records"] if r["name"] == rec.name)["value"] == "nan"

    def test_non_finite_values_are_strict_json(self):
        report = cli.Report("m", {"scale": float("inf"), "grid": (1.0, float("-inf"))})
        report.add("a", "anchor", np.inf, 1.0, criterion="min")
        report.add("b", "anchor", 0.5, 1.0)
        written = json.loads(report.to_json(),
                             parse_constant=lambda token: pytest.fail(f"{token} in the report"))
        assert written["config"] == {"scale": "inf", "grid": [1.0, "-inf"]}
        assert [r["value"] for r in written["records"]] == ["inf", 0.5]
        assert written["records"][0]["passed"] is True

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

    def test_lattice_sim_fixed_point_flat_series(self, tmp_path, monkeypatch):
        # a fixed point has no drift, below the window of a usable candidate
        monkeypatch.setattr(cli, "DRIFT_WINDOW", (0.0, 1.0))
        path = write_config(
            tmp_path,
            {"mode": "lattice-sim", "seed": 1,
             "params": {"N": 4, "dt": 0.02, "t_end": 0.52, "amplitude": 0.0}},
        )
        cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        with open(tmp_path / "out" / "series.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        c2_re = header.index("c2_re")
        values = [float(r[c2_re]) for r in data]
        assert max(values) - min(values) < 1e-14
        assert len(data) >= 25

    def test_series_csv_bytes_are_csv_writers(self, tmp_path):
        header = ["t", "c0_re", "c0_im"]
        rows = [[0.0, -0.0, 5e-324], [1e-300, -2.5e-17, 0.1],
                [1.7976931348623157e308, -1e22, 1e16], [math.inf, -math.inf, math.nan],
                [1.0, 2.0, 3.0]]
        cli.write_csv(tmp_path / "fast.csv", header, rows)
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_series_csv_is_crlf(self, tmp_path):
        path = write_config(
            tmp_path,
            {"mode": "lattice-sim", "seed": 1,
             "params": {"N": 4, "dt": 0.02, "t_end": 0.2, "amplitude": 0.1}},
        )
        cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        raw = (tmp_path / "out" / "series.csv").read_bytes()
        assert b"\r\n" in raw

    @pytest.mark.parametrize("action", ["error", "always"])
    def test_monodromy_overflow_is_a_blow_up(self, tmp_path, action):
        # exp(-2i phi) of the first config leaves double range at amplitude
        # 1000: a blow-up report and exit 1, with numpy warnings as errors
        # (as CI runs the batteries) and without, where none may be printed
        path = write_config(tmp_path, {"mode": "monodromy-check", "params": {"amplitude": 1000}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1 and caught == []
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aborted"] is True
        blow_up = [r for r in report["records"] if r["name"] == "blow-up"]
        assert [r["anchor"] for r in blow_up] == [
            "overflow: overflow encountered in exp at config 1 of 10"]

    @pytest.mark.parametrize("action", ["error", "always"])
    @pytest.mark.parametrize("mode, params, anchor", [
        # e^theta of the Backlund rapidity
        ("bt-evolve", {"theta": "1e5"}, "overflow encountered in exp"),
        # a log of 0 in the exact solution's phi at this period
        ("bt-evolve", {"L": 1e300}, "divide by zero encountered in log"),
        ("hetero-bt", {"Theta": 1e4}, "overflow encountered in exp"),
        # e^theta of the defect, before its march
        ("lattice-defect-sim", {"theta": "800"}, "overflow encountered in exp"),
        ("verify-poisson", {"lambda_probes": ["800"], "mu_probes": ["0"]},
         "overflow encountered in sinh"),
        ("verify-zero-curvature", {"mu_probes": ["800"]}, "overflow encountered in exp"),
    ])
    def test_float_error_outside_a_march_is_a_blow_up(self, tmp_path, action, mode, params,
                                                      anchor):
        # numpy overflow or division by zero outside any march: one blow-up
        # record and exit 1, with numpy warnings as errors and without, where
        # none may be printed
        path = write_config(tmp_path, {"mode": mode, "params": params})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1 and caught == []
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aborted"] is True
        blow_up = [r for r in report["records"] if r["name"] == "blow-up"]
        assert [r["anchor"] for r in blow_up] == [f"floating-point: {anchor}"]

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

    @pytest.mark.parametrize("seed, params, counts", [
        # a fixed point drifts by 0: every run is regular, all below the window
        (1, {"N": 4, "dt": 0.02, "t_end": 0.52, "amplitude": 0.0}, (0, 20, 0)),
        (0, {"amplitude": 5.0, "t_end": 1.0}, (20, 0, 0)),
    ])
    def test_failed_search_counts_why_candidates_were_rejected(self, tmp_path, seed, params,
                                                               counts):
        path = write_config(tmp_path, {"mode": "lattice-sim", "seed": seed, "params": params})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aborted"] is True
        [rec] = report["records"]
        assert (rec["name"], rec["value"], rec["tolerance"]) == ("singular-trajectory", 1.0, 0.0)
        aborted, below, above = counts
        assert rec["anchor"] == (
            "no regular configuration found at these parameters: of 20 candidates, "
            f"{aborted} aborted, {below} had a fine drift below [1e-10, 0.005] and {above} one "
            "above it or a coarse drift that is not finite or above 0.5")
        fates = json.loads((tmp_path / "out" / "candidates.json").read_text())["candidates"]
        assert [sum(f["verdict"] == v for f in fates)
                for v in ("aborted", "below window", "above window")] == list(counts)

    def test_candidate_fates_are_written_beside_the_report(self, tmp_path):
        # seed 7 draws four defect candidates: two abort, one drifts above
        # the window and the last is accepted
        path = write_config(tmp_path, {"mode": "lattice-defect-sim", "seed": 7})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        fates = json.loads((tmp_path / "out" / "candidates.json").read_text())["candidates"]
        assert [f["verdict"] for f in fates] == ["aborted", "above window", "aborted", "accepted"]
        assert fates[0] == {
            "verdict": "aborted", "t": 3.4625, "step": 693, "stage": 2,
            "reason": "field above the ceiling", "field": "a_bar", "index": 5,
            "record": "field above the ceiling at RK stage 2 of step 693 (t = 3.4625), a_bar[5]"}
        assert fates[1]["fine_drift"] == pytest.approx(1.948, abs=5e-4)
        assert fates[2]["record"] == (
            "field above the ceiling at RK stage 4 of step 437 (t = 4.37), z_bar[0]")
        low, high = cli.DRIFT_WINDOW
        assert low <= fates[3]["fine_drift"] <= high
        assert fates[3]["coarse_drift"] <= 100.0 * high


class TestSuite:
    def test_full_suite_passes(self, battery):
        report, out = battery
        assert report.passed
        data = json.loads((out / "suite_report.json").read_text())
        assert data["passed"] is True
        names = {r["name"] for r in data["records"]}
        assert "determinism" in names
        timing = json.loads((out / "timing.json").read_text())
        runs = list(cli.MODES) + ["determinism"]
        assert list(timing["modes"]) == runs
        assert sum(timing["modes"].values()) <= timing["elapsed_s"]
        # the RK4 steps of each run, the fine and coarse runs of each
        # candidate counted apart: one lattice candidate takes 1000 + 500
        assert timing["steps"] == {**dict.fromkeys(runs, 0), "lattice-sim": 1500,
                                   "lattice-defect-sim": 1500, "liouville-evolve": 375,
                                   "bt-evolve": 672, "hetero-bt": 384}
        assert list(timing["steps"]) == runs
        for name in runs:
            assert (out / name / "report.json").exists()
            run_timing = json.loads((out / name / "timing.json").read_text())
            assert list(run_timing) == ["elapsed_s"]

    def test_record_bounds_are_pinned(self, battery):
        report, _ = battery
        assert [[r.name, r.tolerance, r.criterion] for r in report.records] == [
            row[:3] for row in RECORD_TABLE["records"]]
        pinned = {name: getattr(cli, name) for name in RECORD_TABLE["constants"]}
        assert {k: list(v) if isinstance(v, tuple) else v for k, v in pinned.items()} == (
            RECORD_TABLE["constants"])

    def test_roundoff_records_are_powers_of_ten(self, battery):
        report, _ = battery
        bounds = {row[0] for row in RECORD_TABLE["records"] if row[3]}
        values = {r.name: r.value for r in report.records if r.name in bounds}
        assert len(values) == len(bounds) == 16
        for value in values.values():
            assert value == 0.0 or value == float(f"1e{round(math.log10(value))}")

    def test_reports_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        # the same battery under two clocks ticking 1 s and 250 s per read:
        # every report is byte-identical, and timing.json holds the ticks
        monkeypatch.setattr(cli, "MODES", ("verify-charges", "verify-poisson"))
        for tick in (1.0, 250.0):
            clock = itertools.count(0.0, tick)
            monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
            cli.suite(tmp_path / str(tick), seed=3)
            timing = json.loads((tmp_path / str(tick) / "timing.json").read_text())
            # the battery reads the clock 2 times, each of its 3 runs 2 times
            assert timing["elapsed_s"] == 7 * tick
            assert set(timing["modes"].values()) == {tick}
            run_timing = json.loads((tmp_path / str(tick) / "verify-poisson" / "timing.json")
                                    .read_text())
            assert run_timing == {"elapsed_s": tick}
        reports = [path.relative_to(tmp_path / "1.0") for path in (tmp_path / "1.0").rglob("*")
                   if path.is_file() and path.name != "timing.json"]
        assert "suite_report.json" in map(str, reports) and len(reports) == 4
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

    def test_flipped_bracket_table_is_detected(self, tmp_path, monkeypatch):
        # flip the sign of {a, v} (and of {v, a}) in the bracket table: the
        # bracket flow reads the table, so it no longer reproduces the
        # equations of motion
        monkeypatch.setitem(lat._TABLE_RULES, ("a", "v"), lambda a, abar, v: -(a * v))
        monkeypatch.setitem(lat._TABLE_RULES, ("v", "a"), lambda a, abar, v: a * v)
        cfg = cli.RunConfig("verify-zero-curvature", seed=0, params={"samples": 10})
        report = cli.run(cfg, tmp_path / "mutated")
        failed = {r.name for r in report.records if not r.passed}
        assert failed == {"hamiltonian-flow-consistency"}
