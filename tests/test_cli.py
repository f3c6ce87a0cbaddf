import csv
import itertools
import json
import math
import multiprocessing
import re
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laxkit import cli
from laxkit import lattice as lat
from laxkit import lattice_defect as ld
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

    def test_tolerance_scale_past_double_range_rejected(self):
        # an integer float() cannot convert: no OverflowError may escape
        with pytest.raises(cli.ConfigError, match="finite and positive"):
            cli.RunConfig.from_dict({"mode": "verify-poisson", "tolerance_scale": 10**400})

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
        assert not (tmp_path / "out").exists()


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
        {"mode": "lattice-sim", "params": {"probes": [0]}},
        {"mode": "lattice-defect-sim", "params": {"probes": [2.0, 0.0]}},
        # more work than cli._MAX_COUNT allows: 5e299 steps, 1e302 steps (whole
        # to count_steps, which cannot tell above 2^53), t_end / dt overflowing,
        # and counts of 1e300
        {"mode": "lattice-sim", "params": {"dt": 1e-300}},
        {"mode": "liouville-evolve", "params": {"dt": 0.01, "t_end": 1e300}},
        {"mode": "lattice-defect-sim", "params": {"dt": 1e-300, "t_end": 1e300}},
        {"mode": "verify-poisson", "params": {"samples": 1e300}},
        {"mode": "liouville-evolve", "params": {"points": 1e300}},
        {"mode": "lattice-sim", "params": {"N": 1e300}},
        {"mode": "monodromy-check", "params": {"configs": 1e300}},
        {"mode": "verify-charges", "params": {"sizes": [1e300]}},
        {"mode": "hetero-bt", "params": {"nz": 10**7 + 1}},
        # counts each within cli._MAX_COUNT whose product is not within
        # cli._MAX_ENTRIES (cli.BOUNDS): grids of 4e14 and 1.9e7 points, 8e7 Magnus
        # cells, and marches that keep 251 to 1001 states of 2e5 to 3e7
        # entries each
        {"mode": "hetero-bt", "params": {"nz": 10**7, "nzbar": 10**7}},
        {"mode": "hetero-bt", "params": {"nzbar": 10**5}},
        {"mode": "monodromy-check", "params": {"points": 10**7}},
        {"mode": "lattice-sim", "params": {"N": 10**7}},
        {"mode": "lattice-defect-sim", "params": {"N": 10**5}},
        {"mode": "liouville-evolve", "params": {"points": 10**5}},
        {"mode": "bt-evolve", "params": {"points": 10**5}},
        # draws, chains and traces that no run could hold or finish: 10^7
        # draws of 3.3-4 KB each, and traces of 10^5 sites at 10^10
        # coefficient products each
        {"mode": "verify-poisson", "params": {"samples": 10**7}},
        {"mode": "verify-zero-curvature", "params": {"samples": 10**7}},
        {"mode": "verify-charges", "params": {"samples": 10**7}},
        {"mode": "defect-charges", "params": {"samples": 10**7}},
        {"mode": "verify-charges", "params": {"sizes": [100000]}},
        # a spectral probe whose e^p or e^-p is 0 or not finite
        {"mode": "verify-zero-curvature", "params": {"mu_probes": ["-800"]}},
        {"mode": "verify-zero-curvature", "params": {"mu_probes": [0.1, "800+1j"]}},
        {"mode": "verify-poisson", "params": {"lambda_probes": ["800"], "mu_probes": ["0"]}},
        {"mode": "verify-poisson", "params": {"mu_probes": ["-1e300"], "lambda_probes": ["0"]}},
        # probes each inside the bound whose separation overflows sinh in the r-matrix
        {"mode": "verify-poisson", "params": {"lambda_probes": ["709"], "mu_probes": ["-709"]}},
        # integers past double range, which float() cannot convert
        {"mode": "lattice-sim", "params": {"N": 10**400}},
        {"mode": "lattice-sim", "params": {"amplitude": 10**400}},
        {"mode": "hetero-bt", "params": {"c": -10**400}},
    ])
    def test_malformed_numbers_are_config_errors(self, tmp_path, payload, capsys):
        path = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        key = next(iter(payload["params"]))
        assert f"config error: {key} must be" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, params", [
        ("verify-zero-curvature", {"mu_probes": [0.1, "-800"]}),
        ("verify-poisson", {"lambda_probes": [0.1, "-800"], "mu_probes": [0.2, 0.3]}),
    ])
    def test_spectral_probe_out_of_exp_range_is_named(self, tmp_path, mode, params, capsys):
        # u = e^p underflows to 0 at p = -800: the config error names that probe
        path = write_config(tmp_path, {"mode": mode, "params": params})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        key = next(iter(params))
        assert f"config error: {key} must be spectral points p with e^p and e^-p finite" in err
        assert err.rstrip().endswith("got the probe (-800+0j)") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

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
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, key", [
        (mode, key) for mode, table in cli.PARAMS.items() for key, spec in table.items()
        if spec.kind in (cli.COUNT, cli.SIZES)])
    def test_count_range_is_read_to_its_ends(self, mode, key):
        # the least and the most value of a count, or of each of the sizes,
        # are read; one past either end is a config error that names the
        # count.  Read as one value: the mode's bounds (BOUNDS) stop most
        # counts' most value when read with the other params
        spec = cli.PARAMS[mode][key]

        def read(value):
            return cli._read_value(key, spec, [value] if spec.kind == cli.SIZES else value)

        for value in (spec.least, spec.most):
            assert read(value) == ([value] if spec.kind == cli.SIZES else value)
        for value in (spec.least - 1, spec.most + 1):
            with pytest.raises(cli.ConfigError, match=rf"^{key} must be an integer in "
                                                      rf"\[{spec.least}, {spec.most}\]; got"):
                read(value)

    # (mode, the count stepped past the mode's bound, the params held): every
    # count a bound names, a charge battery's other count at one chain
    BOUND_STEPS = [
        ("lattice-sim", "N", {}), ("lattice-defect-sim", "N", {}),
        ("verify-poisson", "samples", {}), ("verify-zero-curvature", "samples", {}),
        ("verify-charges", "samples", {"sizes": [2]}), ("verify-charges", "sizes", {"samples": 1}),
        ("liouville-evolve", "points", {}), ("monodromy-check", "points", {}),
        ("bt-evolve", "points", {}), ("hetero-bt", "nz", {}), ("hetero-bt", "nzbar", {}),
        ("defect-charges", "samples", {"sizes": [3]}), ("defect-charges", "sizes", {"samples": 1}),
        ("lattice-sim", "probes", {}), ("lattice-defect-sim", "probes", {}),
    ]

    def test_every_mode_declares_its_bound(self):
        assert tuple(cli.BOUNDS) == tuple(cli.PARAMS) == cli.MODES and len(cli.MODES) == 10
        assert sorted(cli._HANDLERS) == sorted(cli.MODES)
        assert sorted({mode for mode, _, _ in self.BOUND_STEPS}) == sorted(cli.MODES)
        for mode in cli.MODES:  # the defaults, the battery's configs
            key, _, entries = cli.BOUNDS[mode](cli._read_params(mode, {}))
            assert key in cli.PARAMS[mode] and entries <= cli._MAX_ENTRIES

    @pytest.mark.parametrize("mode, key, held", BOUND_STEPS)
    def test_one_step_past_a_bound_is_a_config_error(self, mode, key, held):
        # the least value of the count, within its range, whose arrays pass
        # cli._MAX_ENTRIES: read through _read_params, it is a config error
        # that names the count and the entries past the bound, and one less
        # is read, its entries within the bound
        spec = cli.PARAMS[mode][key]

        def read(value):
            if key in ("sizes", "probes"):  # distinct probes, which print apart
                value = [value] if key == "sizes" else [1 + k / 1000 for k in range(value)]
            return cli._read_params(mode, {**held, key: value})

        def fails(value):
            try:
                read(value)
            except cli.ConfigError:
                return True
            return False

        # read(low) passes, read(high) fails; a list of probes is read entry
        # by entry, and 1000 of them already fail at the defaults
        low, high = spec.least, 1000 if key == "probes" else spec.most
        assert not fails(low) and fails(high)
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if fails(mid) else (mid, high)
        assert cli.BOUNDS[mode](read(low))[2] <= cli._MAX_ENTRIES
        with pytest.raises(cli.ConfigError) as err:
            read(high)
        got = re.fullmatch(rf"{key} must be small enough for .* to fit in {cli._MAX_ENTRIES} "
                           rf"entries; got ({key} = .*|\d+ {key}), (\d+) entries", str(err.value))
        assert got and int(got[2]) > cli._MAX_ENTRIES

    def test_probe_monitors_bound_the_probes(self):
        # a lattice mode's probe monitors hold 4 N entries per probe and kept
        # state: at the defaults, 1001 states of 8 sites, 312 probes fit in
        # cli._MAX_ENTRIES and 313 do not, and the error counts the probes
        def probes(count):
            return [1 + k / 1000 for k in range(count)]

        for mode in ("lattice-sim", "lattice-defect-sim"):
            assert cli.BOUNDS[mode](cli._read_params(mode, {"probes": probes(312)}))[2] == (
                1001 * 4 * 8 * 312)
            with pytest.raises(cli.ConfigError, match=r"got 313 probes, 10026016 entries$"):
                cli.RunConfig(mode, params={"probes": probes(313)})

    @pytest.mark.parametrize("probes", [[2.0, 2.0000001, 3.0], [2.0, 2.0]])
    def test_probes_that_print_alike_are_config_errors(self, tmp_path, probes, capsys):
        # each probe names its series.csv columns trace_u{u:g}: two probes
        # that print alike would share them, the later trace silently
        # replacing the earlier one, so the error names both
        for mode in ("lattice-sim", "lattice-defect-sim"):
            path = write_config(tmp_path, {"mode": mode, "params": {"probes": probes}})
            assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert (f"config error: probes must print apart as series.csv columns; 2.0 and "
                    f"{probes[1]!r} both name trace_u2\n") in err and "Traceback" not in err
            assert not (tmp_path / "out").exists()

    def test_readme_param_table_is_the_declared_one(self):
        # README "Command line" lists every param of every mode with the kind
        # and default cli.PARAMS declares, in its order; a default worked out
        # from other params is described in words
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n### Params\n", 1)[1].split("\n#", 1)[0]
        rows = [[cell.strip() for cell in line.split("|")[1:-1]]
                for line in section.splitlines() if line.startswith("| `")]
        assert [(mode, key, kind, default if default.startswith("`") else None)
                for mode, key, kind, default, _ in rows] == [
            (f"`{mode}`", f"`{key}`", spec.kind,
             None if spec.default is None else f"`{json.dumps(spec.default)}`")
            for mode, table in cli.PARAMS.items() for key, spec in table.items()]

    def test_probe_lists_of_unequal_length_are_config_errors(self, tmp_path, capsys):
        # zip would drop the probes 1.0 and 1.5 without a word
        path = write_config(tmp_path, {"mode": "verify-poisson", "params": {
            "samples": 1, "lambda_probes": [0.5, 1.0, 1.5], "mu_probes": [0.2]}})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error: lambda_probes and mu_probes must be of equal length" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

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
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, sizes, counts", [
        ("verify-charges", [2, 3, 4, 5, 6], [2, 2, 1, 1, 1]),
        ("defect-charges", [3, 4, 5, 6], [2, 2, 2, 1]),
    ])
    def test_charge_batteries_draw_samples_chains(self, tmp_path, monkeypatch, mode, sizes,
                                                  counts):
        # 7 chains over the default sizes, the first 7 % len(sizes) sizes one more
        drawn, draw = [], lat.random_state
        monkeypatch.setattr(lat, "random_state", lambda n, rng: drawn.append(n) or draw(n, rng))
        cli.run(cli.RunConfig(mode, params={"samples": 7}), tmp_path / "out")
        assert drawn == [n for n, k in zip(sizes, counts) for _ in range(k)]
        # fewer samples than sizes would leave a size undrawn
        path = write_config(tmp_path, {"mode": mode, "params": {"samples": 1}})
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "bad")]) == 2
        assert not (tmp_path / "bad").exists()

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        # the mode does not run: no report, and the file is left as it was
        path = write_config(tmp_path, {"mode": "verify-poisson", "params": {"samples": 3}})
        afile = tmp_path / "afile"
        afile.write_text("kept")
        assert cli.main(["run", "--config", str(path), "--out", str(afile)]) == 2
        err = capsys.readouterr().err
        assert f"config error: --out must name a directory; cannot make {str(afile)!r}" in err
        assert "Traceback" not in err and afile.read_text() == "kept"

    def test_suite_out_naming_a_file_is_config_error(self, tmp_path, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(cli, "_tally_run", lambda *args: ran.append(args))
        afile = tmp_path / "afile"
        afile.write_text("kept")
        assert cli.main(["suite", "--out", str(afile)]) == 2
        err = capsys.readouterr().err
        assert f"config error: --out must name a directory; cannot make {str(afile)!r}" in err
        assert "Traceback" not in err and ran == [] and afile.read_text() == "kept"

    def test_suite_run_directory_naming_a_file_is_config_error(self, tmp_path, monkeypatch,
                                                                capsys):
        # every run directory is made before the first run starts: no mode runs
        ran = []
        monkeypatch.setattr(cli, "_tally_run", lambda *args: ran.append(args))
        afile = tmp_path / "out" / "verify-poisson"
        afile.parent.mkdir()
        afile.write_text("kept")
        assert cli.main(["suite", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot make the run directory {str(afile)!r}: " in err
        assert "--out" not in err and "[pass]" not in err and "Traceback" not in err
        assert ran == [] and afile.read_text() == "kept"

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

    @pytest.mark.parametrize("scale", [1e80, 1e-80])
    @pytest.mark.parametrize("mode", ["verify-charges", "defect-charges"])
    def test_out_of_range_draw_keeps_its_own_anchor(self, tmp_path, monkeypatch, mode, scale):
        # the third of 12 chains of 6 sites leads with a product of v_j past
        # double range (inf, or 0 and a lower leading power): the battery
        # traces the 12 as one stack first, and ends with the anchor of that
        # chain's own trace
        draw, draw_defect = lat.random_state, ld.random_defect
        states, defects, stacked = [], [], []

        def scaled(n, rng):
            s = draw(n, rng)
            states.append(s.replace(v=s.v * scale) if len(states) == 2 else s)
            return states[-1]

        monkeypatch.setattr(lat, "random_state", scaled)
        monkeypatch.setattr(ld, "random_defect",
                            lambda n, rng: defects.append(draw_defect(n, rng)) or defects[-1])
        for module, name in ((lat, "charges_from_trace"), (ld, "defect_charges_from_trace")):
            monkeypatch.setattr(module, name, lambda s, *rest, trace=getattr(module, name):
                                stacked.append(s.a.ndim == 2) or trace(s, *rest))
        report = cli.run(cli.RunConfig(mode, params={"sizes": [6], "samples": 12}), tmp_path)
        assert stacked == [True] + [False] * 3
        args = (states[2], defects[2]) if defects else (states[2],)
        with pytest.raises(OverflowError) as alone:
            (ld.defect_charges_from_trace if defects else lat.charges_from_trace)(*args)
        assert "in draw" not in str(alone.value)
        rec = report.records[-1]
        assert report.aborted and rec.name == "blow-up" and rec.anchor == f"overflow: {alone.value}"

    @pytest.mark.parametrize("mode", ["verify-charges", "defect-charges"])
    def test_chunks_keep_the_draws_and_the_report(self, tmp_path, monkeypatch, mode):
        # chunks of one chain, traced chain by chain, of 7 chains of 6 sites,
        # and the default chunks, which hold the 20 chains whole: the same
        # draws in the same order, and the same report
        draw, trace_chunk = lat.random_state, cli._trace_chunk
        runs = []
        for entries in (1, 7 * (18 + cli._CHAIN_EXTRA[mode]), cli._CHUNK_ENTRIES):
            drawn, chunks = [], []
            monkeypatch.setattr(cli, "_CHUNK_ENTRIES", entries)
            monkeypatch.setattr(lat, "random_state",
                                lambda n, rng: drawn.append(draw(n, rng)) or drawn[-1])
            monkeypatch.setattr(cli, "_trace_chunk", lambda trace, draws, stacks:
                                chunks.append(len(draws)) or trace_chunk(trace, draws, stacks))
            report = cli.run(cli.RunConfig(mode, params={"sizes": [6], "samples": 20}), tmp_path)
            runs.append((chunks, report.to_json(), [s.a.tobytes() for s in drawn]))
        assert [chunks for chunks, *_ in runs] == [[1] * 20, [7, 7, 6], [20]]
        assert runs[0][1:] == runs[1][1:] == runs[2][1:]

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
        # u = e^mu = 1.2e-308 at mu = -709, inside the probe bound: 1 / (u v^2) in the
        # site-matrix partials
        ("verify-zero-curvature", {"mu_probes": ["-709"]},
         "overflow encountered in divide at mu_probes [(-709+0j)]"),
        ("hetero-bt", {"Theta": 1e4}, "overflow encountered in exp"),
        # e^theta of the defect, before its march
        ("lattice-defect-sim", {"theta": "800"}, "overflow encountered in exp"),
        # u = e^lambda = 8.2e307 in the site matrices of the exchange relations
        ("verify-poisson", {"lambda_probes": ["709"], "mu_probes": ["0"]},
         "overflow encountered in multiply at lambda_probes [(709+0j)] and mu_probes [0j]"),
        ("verify-zero-curvature", {"mu_probes": ["709"]},
         "overflow encountered in multiply at mu_probes [(709+0j)]"),
        # A_{j+1} L in the time-Lax commutator
        ("verify-zero-curvature", {"mu_probes": [300]},
         "overflow encountered in matmul at mu_probes [(300+0j)]"),
    ])
    def test_float_error_outside_a_march_is_a_blow_up(self, tmp_path, action, mode, params,
                                                      anchor):
        # numpy overflow or division by zero outside any march: one blow-up
        # record and exit 1, with numpy warnings as errors and without, where
        # none may be printed.  A verify mode evaluates its identities over
        # all draws at once and names the configured probes, the draws that
        # can overflow, in an "overflow:" anchor
        path = write_config(tmp_path, {"mode": mode, "params": params})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1 and caught == []
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aborted"] is True
        blow_up = [r for r in report["records"] if r["name"] == "blow-up"]
        kind = "overflow" if mode.startswith("verify-") else "floating-point"
        assert [r["anchor"] for r in blow_up] == [f"{kind}: {anchor}"]

    @pytest.mark.parametrize("mode, identity", [
        ("verify-poisson", "check_quadratic_algebra"),
        ("verify-zero-curvature", "zero_curvature_residual")])
    def test_verify_float_error_without_probes_keeps_its_anchor(self, tmp_path, monkeypatch,
                                                                 mode, identity):
        # no probe to name: the numpy message alone, as in every other mode
        def overflowing(*args):
            raise FloatingPointError("overflow encountered in matmul")

        monkeypatch.setattr(lat, identity, overflowing)
        report = cli.run(cli.RunConfig(mode, params={"samples": 2}), tmp_path)
        assert report.aborted and [r.anchor for r in report.records] == [
            "floating-point: overflow encountered in matmul"]

    @staticmethod
    def _assert_kappa_blow_up(tmp_path, action, capsys, L, kappa):
        # a bt-evolve run at period 2 L: a blow-up that names kappa and L, and exit 1
        path = write_config(tmp_path, {"mode": "bt-evolve", "params": {"L": L}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1 and caught == []
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aborted"] is True
        assert [(r["name"], r["anchor"]) for r in report["records"]] == [(
            "blow-up", f"overflow: kappa**2 is out of double range at kappa = {kappa} "
                       f"(L = 2 pi / kappa = {L:g})")]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["error", "always"])
    def test_exact_solution_overflow_names_kappa_and_L(self, tmp_path, action, capsys):
        # kappa = 2 pi / L = 6.3e300: kappa**2 in the exact solution's phi
        # leaves double range
        self._assert_kappa_blow_up(tmp_path, action, capsys, 1e-300, "6.28319e+300")

    @pytest.mark.parametrize("action", ["error", "always"])
    def test_exact_solution_underflow_names_kappa_and_L(self, tmp_path, action, capsys):
        # kappa = 2 pi / L = 6.3e-300: kappa**2 underflows to 0, and the
        # exact solution's phi would take the log of 0
        self._assert_kappa_blow_up(tmp_path, action, capsys, 1e300, "6.28319e-300")

    @pytest.mark.parametrize("action", ["error", "always"])
    @pytest.mark.parametrize("probes", [[2.0, 1e200], [1e-200]])
    @pytest.mark.parametrize("mode", ["lattice-sim", "lattice-defect-sim"])
    def test_probe_trace_overflow_is_a_blow_up(self, tmp_path, action, probes, mode):
        # tr T(u) holds u^N and u^-N terms, which leave double range at these
        # probes from t = 0: a blow-up that names the probe, and exit 1
        path = write_config(tmp_path, {"mode": mode, "params": {"probes": probes, "t_end": 0.5}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1 and caught == []
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aborted"] is True
        assert report["records"][-1]["name"] == "blow-up"
        assert report["records"][-1]["anchor"] == (
            f"overflow: tr T(u) at probe u = {probes[-1]:g} is not finite from t = 0 "
            f"in the fine run")
        assert not (tmp_path / "out" / "series.csv").exists()

    @pytest.mark.parametrize("run_name, states, t", [("fine", 101, 0.025), ("coarse", 51, 0.05)])
    def test_probe_trace_names_its_first_non_finite_time(self, tmp_path, monkeypatch, run_name,
                                                         states, t):
        original = lat.monodromy_value

        def late_nan(stack, probes):
            m = original(stack, probes)
            if len(m) == states:  # the run at dt or at 2 dt only
                m[5:, 1] = np.nan  # the second probe, from the sixth kept state on
            return m

        monkeypatch.setattr(lat, "monodromy_value", late_nan)
        cfg = cli.RunConfig("lattice-sim", params={"t_end": 0.5})
        report = cli.run(cfg, tmp_path / "out")
        assert report.aborted
        assert report.records[-1].anchor == (
            f"overflow: tr T(u) at probe u = 3 is not finite from t = {t:g} in the "
            f"{run_name} run")

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
        # of the mode turns it into a point pole, a zero of R at (0.1172,
        # 0.1361), inside the cell from (z[9], zbar[10]) = (0.1125, 0.125)
        path = write_config(tmp_path, {"mode": "hetero-bt", "params": {"c": -2.0, "Theta": 0.0}})
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aborted"] is True
        [record] = report["records"]
        assert record["name"] == "blow-up"
        assert record["anchor"] == (
            "pole of e^{i phi~} after step 9 (t = 0.1125), cell at z[9], zbar[10]"
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
        # the runs may overlap in worker processes: each lies within the battery
        assert max(timing["modes"].values()) <= timing["elapsed_s"]
        # the RK4 steps of each run, the fine and coarse runs of each
        # candidate counted apart: one lattice candidate takes 1000 + 500
        assert timing["steps"] == {**dict.fromkeys(runs, 0), "lattice-sim": 1500,
                                   "lattice-defect-sim": 1500, "liouville-evolve": 375,
                                   "bt-evolve": 672}
        assert list(timing["steps"]) == runs
        for name in runs:
            assert (out / name / "report.json").exists()
            run_timing = json.loads((out / name / "timing.json").read_text())
            assert list(run_timing) == ["elapsed_s"]
        # each run's start from the battery's: the run lies within the battery
        assert list(timing["started_s"]) == runs
        for name in runs:
            assert 0.0 <= timing["started_s"][name]
            assert timing["started_s"][name] + timing["modes"][name] <= timing["elapsed_s"]

    def test_pool_order_holds_every_run_longest_first(self):
        # a mode missing from the pool order could never run on the pool
        assert sorted(cli.POOL_ORDER) == sorted(cli.MODES + ("determinism",))
        assert len(set(cli.POOL_ORDER)) == len(cli.POOL_ORDER)
        assert cli.POOL_ORDER[0] == "bt-evolve"

    def test_record_bounds_are_pinned(self, battery):
        report, _ = battery
        assert [[r.name, r.tolerance, r.criterion] for r in report.records] == [
            row[:3] for row in RECORD_TABLE["records"]]
        pinned = {name: getattr(cli, name) for name in RECORD_TABLE["constants"]}
        assert {k: list(v) if isinstance(v, tuple) else v for k, v in pinned.items()} == (
            RECORD_TABLE["constants"])

    def test_tolerance_scale_scales_the_max_bounds_but_a_margin(self, tmp_path):
        # tolerance_scale multiplies the tolerance of every "max" record but
        # darboux-variant-selection, a margin between two residuals, and of
        # no "min" record: refinement ratios, discrimination and negative
        # controls keep their floors
        table = {row[0]: row[1:3] for row in RECORD_TABLE["records"]}
        for mode in ("hetero-bt", "monodromy-check", "defect-charges"):
            report = cli.run(cli.RunConfig(mode, tolerance_scale=2.0), tmp_path / mode)
            assert len(report.records) == sum(name.startswith(f"{mode}/") for name in table)
            for r in report.records:
                tolerance, criterion = table[f"{mode}/{r.name}"]
                scale = 2.0 if criterion == "max" and r.name != "darboux-variant-selection" else 1.0
                assert (r.criterion, r.tolerance) == (criterion, scale * tolerance)

    def test_roundoff_records_are_powers_of_ten(self, battery):
        report, _ = battery
        bounds = {row[0] for row in RECORD_TABLE["records"] if row[3]}
        values = {r.name: r.value for r in report.records if r.name in bounds}
        assert len(values) == len(bounds) == 17
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
            # the battery reads the clock 2 times, and in process each of its
            # 3 runs 2 times more; a forked worker reads its own copy
            reads = 2 if timing["workers"] else 8
            assert timing["elapsed_s"] == (reads - 1) * tick and next(clock) == reads * tick
            assert set(timing["modes"].values()) == {tick}
            if not timing["workers"]:  # a run starts at its first read
                assert timing["started_s"] == {"verify-charges": tick, "verify-poisson": 3 * tick,
                                               "determinism": 5 * tick}
            run_timing = json.loads((tmp_path / str(tick) / "verify-poisson" / "timing.json")
                                    .read_text())
            assert run_timing == {"elapsed_s": tick}
        reports = [path.relative_to(tmp_path / "1.0") for path in (tmp_path / "1.0").rglob("*")
                   if path.is_file() and path.name != "timing.json"]
        assert "suite_report.json" in map(str, reports) and len(reports) == 4
        for path in reports:
            assert (tmp_path / "1.0" / path).read_bytes() == (
                tmp_path / "250.0" / path).read_bytes()

    def test_pooled_runs_write_the_files_of_in_process_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        cli.suite(tmp_path / "suite", seed=0)
        assert json.loads((tmp_path / "suite" / "timing.json").read_text())["workers"] == 2
        for mode in cli.MODES:
            cli.run(cli.RunConfig(mode, seed=0), tmp_path / "run" / mode)
            files = sorted(path.name for path in (tmp_path / "run" / mode).iterdir()
                           if path.name != "timing.json")
            assert "report.json" in files
            for name in files:
                assert (tmp_path / "suite" / mode / name).read_bytes() == (
                    tmp_path / "run" / mode / name).read_bytes()

    def test_one_and_two_cpus_write_the_same_battery(self, tmp_path, monkeypatch):
        timings = {}
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_cpus", lambda cpus=cpus: cpus)
            cli.suite(tmp_path / str(cpus), seed=0)
            timings[cpus] = json.loads((tmp_path / str(cpus) / "timing.json").read_text())
        assert timings[1]["workers"] == 0 and timings[2]["workers"] == 2
        assert timings[1]["steps"] == timings[2]["steps"]
        assert all(timing["peak_rss_mb"] > 0 for timing in timings.values())
        files = sorted(path.relative_to(tmp_path / "1") for path in (tmp_path / "1").rglob("*")
                       if path.is_file() and path.name != "timing.json")
        assert len(files) == 17  # 11 reports, 3 series, 2 candidate lists, the suite report
        assert files == sorted(path.relative_to(tmp_path / "2") for path in
                               (tmp_path / "2").rglob("*")
                               if path.is_file() and path.name != "timing.json")
        for path in files:
            assert (tmp_path / "1" / path).read_bytes() == (tmp_path / "2" / path).read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_raising_run_leaves_no_process(self, tmp_path, monkeypatch, cpus):
        def broken(cfg, report, outdir):
            raise ValueError("broken handler")

        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        monkeypatch.setitem(cli._HANDLERS, "hetero-bt", broken)
        with pytest.raises(ValueError, match="broken handler"):
            cli.suite(tmp_path / "suite", seed=0)
        assert multiprocessing.active_children() == []

    def test_a_replaced_run_keeps_the_runs_in_process(self, tmp_path, monkeypatch):
        # a tracer wraps cli.run and records into this process only
        calls, original = [], cli.run

        def traced(config, outdir):
            calls.append(Path(outdir).name)
            return original(config, outdir)

        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        monkeypatch.setattr(cli, "run", traced)
        cli.suite(tmp_path / "suite", seed=0)
        assert calls == list(cli.MODES) + ["determinism"]
        assert json.loads((tmp_path / "suite" / "timing.json").read_text())["workers"] == 0

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


# -- the CLI contract: every config ends in a report or a config error ----------


def complexes(lo, hi):
    """A float in [lo, hi], or a complex string of two such, e.g. "0.1-0.2j"."""
    part = st.floats(lo, hi)
    return part | st.builds(lambda re, im: f"{re!r}{im:+}j", part, part)


# how far above its least value a drawn count goes: a config may ask for
# counts and marches of up to 10^7, far more work than a test can run
COUNT_SPAN = 4
PROBE = complexes(-cli._PROBE_BOUND, cli._PROBE_BOUND)


def declared(spec):
    """A value of the kind ``spec`` declares, in its range: a count, or each
    of the sizes, at most COUNT_SPAN above its least value; spectral probes
    over their whole bound; a real or complex param, or each of a real list,
    at most twice its default in each part, a real one not negative."""
    count = st.integers(spec.least, spec.least + COUNT_SPAN)
    if spec.kind == cli.COUNT:
        return count
    if spec.kind == cli.SIZES:
        return st.lists(count, min_size=1, max_size=3)
    if spec.kind == cli.PROBES:
        return st.lists(PROBE, max_size=2)
    scale = 2.0 * abs(max(spec.default) if spec.kind == cli.REALS else spec.default)
    if spec.kind == cli.COMPLEX:
        return complexes(-scale, scale)
    real = st.floats(0.0, scale)
    return real if spec.kind == cli.REAL else st.lists(real, min_size=1, max_size=2)


# (dt, t_end) of a march of at most 8 steps at the coarse step 2 dt
STEPS = st.builds(lambda step, k: (step / 2, step * k), st.sampled_from((0.01, 0.025, 0.05)),
                  st.integers(1, 8))
BAD_STEPS = ((1e300, 0.1), (-0.01, 0.1), (0.0, 0.1), (0.03, 0.1), (0.1, 1e-300),
             (None, 0.1), (0.01, "x"), (1e-300, 0.1), (1e-300, 1e300))
LISTS = (cli.REALS, cli.PROBES, cli.SIZES)
# numbers at the edges of double range and past it, and values no param takes
EXTREMES = (1e300, -1e300, 1e-300, -1e-300, 0.0, "1e+300j", "1e-300-1e+300j", 10**400)
MALFORMED = (None, True, "x", {}, -1, 2.5, math.nan, math.inf, "nan+1j")


@st.composite
def contract_configs(draw):
    """A config of one of the ten modes: each param absent or drawn from
    its declared kind and range, the time params a march of at most 16
    steps, then at most one param, the seed or the tolerance scale extreme
    or malformed."""
    mode = draw(st.sampled_from(cli.MODES))
    table = cli.PARAMS[mode]
    params = draw(st.fixed_dictionaries({}, optional={
        k: declared(spec) for k, spec in table.items() if spec.kind != cli.TIME}))
    if "lambda_probes" in table and "mu_probes" in params:
        # verify-poisson pairs each lambda probe with a mu probe
        count = len(params["mu_probes"])
        params["lambda_probes"] = draw(st.lists(PROBE, min_size=count, max_size=count))
    if "dt" in table:
        params["dt"], params["t_end"] = draw(STEPS)
    config = {"mode": mode, "params": params}
    if draw(st.booleans()):
        config["seed"] = draw(st.integers(0, 2**32))
    kind = draw(st.sampled_from(("bounded", "extreme", "malformed")))
    if kind != "bounded":
        key = draw(st.sampled_from(tuple(table) + ("seed", "tolerance_scale")))
        if key in table and table[key].kind == cli.TIME:
            params["dt"], params["t_end"] = draw(st.sampled_from(BAD_STEPS))
            return config
        pool = MALFORMED if kind == "malformed" else EXTREMES
        value = draw(st.sampled_from(pool))
        if kind == "extreme" and key in table and table[key].kind in LISTS:
            value = [value]
        if key in ("seed", "tolerance_scale"):
            config[key] = value
        else:
            params[key] = value
    return config


def contract_settings():
    """The loaded profile under ``--hypothesis-profile cli-contract`` (see
    conftest.py), else tier-1's budget: a few fixed examples."""
    if settings.get_current_profile_name() == "cli-contract":
        return settings()
    return settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestContract:
    @contract_settings()
    @given(config=contract_configs())
    @example(config={"mode": "bt-evolve", "params": {"L": 1e-300, "dt": 0.05, "t_end": 0.1}})
    @example(config={"mode": "lattice-defect-sim",
                     "params": {"probes": [1e-300], "dt": 0.025, "t_end": 0.1}})
    @example(config={"mode": "hetero-bt", "params": {"c": "1e+300j"}})
    def test_every_config_ends_in_a_report_or_a_config_error(self, config):
        # exit 0 or 1 with a strict-JSON report.json, or exit 2 with no
        # --out directory; no exception escapes, numpy warnings as errors;
        # a record whose value is nan comes with a blow-up record, or its
        # own anchor names what was not finite
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            path = write_config(Path(tmp), config)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = cli.main(["run", "--config", str(path), "--out", str(out)])
            if code == 2:
                assert not out.exists()
            else:
                assert code in (0, 1)
                report = json.loads((out / "report.json").read_text(),
                                    parse_constant=lambda token: pytest.fail(token))
                assert report["passed"] is (code == 0)
                records = report["records"]
                if any(r["value"] == "nan" for r in records):
                    assert any(r["name"] == "blow-up" for r in records) or all(
                        "not finite" in r["anchor"] for r in records if r["value"] == "nan")
