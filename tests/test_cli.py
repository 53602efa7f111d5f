"""CLI harness: schema, determinism, exit codes, and config handling."""

import csv
import dataclasses
import json
import math
import re
import statistics
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsnr import (
    ChannelConfig,
    RngStream,
    abs_squared,
    add,
    ber_by_variant,
    mse_by_variant,
    sample_bcg,
    sample_noise,
)
from blindsnr import cli, core
from blindsnr.cli import CSV_COLUMNS, ConfigError, SweepConfig, main, run_sweep
from blindsnr.em import em_fit_rows, em_init_rows
from blindsnr.sure import search_rows

from conftest import reference_blind, reference_genie


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSchemaAndRows:
    def test_header_and_families(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["sweep-snr", "--trials", "40", "--dim", "64",
                     "--snr-db", "0,10", "--seed", "3", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            header = fh.readline().strip()
        assert header == ",".join(CSV_COLUMNS)
        rows = read_rows(out)
        # 2 snr points x 3 families x 4 quantities
        assert len(rows) == 24
        assert {r["family"] for r in rows} == {"blind", "em", "genie"}
        assert {r["quantity"] for r in rows} == {"n0", "es", "snr", "mse"}

    def test_truth_columns(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["sweep-snr", "--trials", "20", "--snr-db", "0",
              "--seed", "1", "--out", str(out)])
        rows = read_rows(out)
        for r in rows:
            if r["quantity"] == "mse":
                assert r["truth"] == ""  # no analytic reference
            elif r["quantity"] == "snr":
                assert float(r["truth"]) == pytest.approx(1.0)
            elif r["quantity"] == "n0":
                assert float(r["truth"]) == pytest.approx(1.0)

    def test_stddev_finite_and_positive(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["sweep-snr", "--trials", "30", "--snr-db=-10,10",
              "--seed", "2", "--out", str(out)])
        for r in read_rows(out):
            val = float(r["stddev"])
            assert np.isfinite(val) and val >= 0.0

    def test_single_trial_flags_degenerate_stddev(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["sweep-snr", "--trials", "1", "--snr-db", "0",
              "--estimators", "blind", "--out", str(out)])
        for r in read_rows(out):
            assert float(r["stddev"]) == 0.0
            assert json.loads(r["extra"])["degenerate_stddev"] is True

    def test_low_snr_noise_estimate_accurate(self, tmp_path):
        # low-SNR exactness of the noise estimate, seen through the CLI.
        # At -10 dB with D=64 the distributional bias alone is ~6%, so the
        # 2% check is run where the limit argument actually applies.
        out = tmp_path / "s.csv"
        main(["sweep-snr", "--trials", "400", "--snr-db=-20", "--dim", "1024",
              "--estimators", "blind", "--seed", "5", "--out", str(out)])
        rows = [r for r in read_rows(out) if r["quantity"] == "n0"]
        assert abs(float(rows[0]["mean"]) - 1.0) <= 0.02


class TestDeterminism:
    def test_identical_config_identical_bytes(self, tmp_path):
        args = ["sweep-snr", "--trials", "25", "--snr-db", "0,10", "--seed", "9"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestBoundsGrid:
    def test_condition_flag_and_violations(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main(["bounds", "--trials", "50", "--dim", "64",
                     "--p", "0.1,0.45", "--snr-db", "0", "--seed", "4",
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        ok_flags = {r["p"]: json.loads(r["extra"])["condition_p_ok"] for r in rows}
        assert ok_flags["0.1"] is True and ok_flags["0.45"] is False
        for r in rows:
            assert json.loads(r["extra"])["violation"] is False
        # bounds columns empty when the certificate does not apply
        na = [r for r in rows if r["p"] == "0.45" and r["quantity"] == "lower_bound_n0"]
        assert na[0]["mean"] == ""

    def test_sparse_limit_collapse(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["bounds", "--trials", "1", "--dim", "64", "--p", "1e-9",
              "--snr-db", "0", "--out", str(out)])
        rows = {r["quantity"]: r for r in read_rows(out)}
        lower = float(rows["lower_bound_n0"]["mean"])
        upper = float(rows["upper_bound_n0"]["mean"])
        median = float(rows["median_exact"]["mean"])
        assert upper - lower <= 1e-9
        # both ends sit within ~p/log2 of median/log2 at p = 1e-9
        assert lower == pytest.approx(median / np.log(2.0), rel=5e-9)


class TestChannelCsv:
    def test_mse_rows(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["channel-mse", "--trials", "60", "--dim", "128",
                     "--snr-db", "0", "--seed", "6", "--out", str(out)])
        assert code == 0
        rows = {r["family"]: r for r in read_rows(out)}
        assert set(rows) == {"perfect_csi", "ml", "beaches_known_n0",
                             "beaches_blind", "beaches_em"}
        assert float(rows["perfect_csi"]["mean"]) == 0.0
        ml = float(rows["ml"]["mean"])
        se = 1.0 / np.sqrt(60 * 8 * 128)
        assert abs(ml - 1.0) <= 4 * se
        assert float(rows["beaches_blind"]["mean"]) <= ml

    def test_ber_rows(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["channel-ber", "--trials", "120", "--dim", "128",
              "--snr-db", "10", "--seed", "8", "--out", str(out)])
        rows = {r["family"]: float(r["mean"]) for r in read_rows(out)}
        assert rows["perfect_csi"] <= rows["ml"]
        for v in rows.values():
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("command", ["channel-mse", "channel-ber"])
    def test_stddev_is_the_spread_of_per_trial_values(self, tmp_path, command):
        # each trial recomputed alone, as a one-trial run on that trial's draws
        out = tmp_path / "c.csv"
        trials = 5
        assert main([command, "--trials", str(trials), "--dim", "16", "--users", "3",
                     "--paths", "2", "--snr-db=0,10", "--seed", "13",
                     "--out", str(out)]) == 0
        cfg = ChannelConfig(antennas=16, users=3, paths_per_user=2)
        one, key = ((mse_by_variant, "channel_mse") if command == "channel-mse"
                    else (ber_by_variant, "ber"))
        rows = read_rows(out)
        assert len(rows) == 10
        for r in rows:
            variant = r["family"]
            values = [one(cfg, (variant,), float(r["snr_db"]), 1,
                          TrialStream(RngStream(13, stream_id=0), t))[variant][key]
                      for t in range(trials)]
            assert float(r["mean"]) == pytest.approx(statistics.fmean(values), rel=1e-12)
            assert float(r["stddev"]) == pytest.approx(statistics.stdev(values), rel=1e-12)
        assert any(float(r["stddev"]) > 0.0 for r in rows)

    @pytest.mark.parametrize("command", ["channel-mse", "channel-ber"])
    def test_single_trial_flags_degenerate_stddev(self, tmp_path, command):
        out = tmp_path / "c.csv"
        assert main([command, "--trials", "1", "--dim", "16", "--users", "2",
                     "--snr-db=0,10", "--out", str(out)]) == 0
        for r in read_rows(out):
            assert float(r["stddev"]) == 0.0
            assert json.loads(r["extra"])["degenerate_stddev"] is True


class TrialStream:
    """A stream whose trial 0 draws what trial ``t`` of ``base`` draws."""

    def __init__(self, base, t):
        self.base, self.t = base, t

    def substream(self, index):
        return self.base.substream(self.t + index)


# Inputs that exit 2 before any CSV is written: (argv, config file text).
BAD_INPUTS = {
    "unknown-config-key": (["sweep-snr"], "trails=7\n"),
    "non-boolean-summary": (["sweep-snr"], "summary=maybe\n"),
    "non-integer-dim": (["sweep-dim", "--dim", "64.9,32", "--snr-db", "0"], None),
    "negative-seed": (["sweep-snr", "--seed", "-1"], None),
    "nan-snr": (["sweep-snr", "--snr-db=nan"], None),
    "p-above-one": (["bounds", "--p", "0.1,1.5"], None),
    "infinite-n0": (["sweep-snr", "--n0", "inf"], None),
    "no-estimators": (["sweep-snr", "--estimators", ","], None),
    "dim-list-outside-sweep-dim": (["sweep-snr", "--dim", "32,64"], None),
    "p-list-outside-sweep-p": (["sweep-snr", "--p", "0.1,0.2"], None),
    "snr-overflow": (["sweep-snr", "--snr-db", "4000"], None),
    "observation-power-overflow": (["sweep-snr", "--n0", "1e300", "--snr-db", "70"], None),
    "channel-n0-overflow": (["channel-mse", "--snr-db=-4000"], None),
    "active-power-overflow": (["sweep-snr", "--p", "1e-320", "--snr-db", "0"], None),
    # ran with finite rows before the headroom rule; 2^10 x dim 64 x the
    # entry power 1e306 exceeds DBL_MAX
    "entry-power-headroom": (["sweep-snr", "--n0", "1e300", "--snr-db", "50"], None),
    # wrote snr,inf,nan: a draw's receive power over its blind noise
    # estimate overflows
    "blind-snr-overflow": (["sweep-snr", "--n0", "1e-300", "--snr-db", "3080", "--dim", "8",
                            "--estimators", "blind"], None),
}

# A value other than the default for each setting of the settings table.
SETTING_VALUES = {"trials": "12", "dim": "16,32", "p": "0.2,0.4", "n0": "2.5",
                  "snr_db": "-3,7", "seed": "17", "out": "elsewhere.csv",
                  "estimators": "blind,genie", "users": "3", "paths": "4",
                  "summary": "true"}


class TestConfigAndExitCodes:
    def test_invalid_trials_exits_two(self, tmp_path):
        assert main(["sweep-snr", "--trials", "0",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_bad_flag_after_successful_call_exits_two(self, tmp_path, capsys):
        # the parser is built once per process; a later call still rejects
        assert main(["sweep-snr", "--trials", "2", "--snr-db", "0",
                     "--estimators", "blind", "--out", str(tmp_path / "x.csv")]) == 0
        assert main(["sweep-snr", "--no-such-flag"]) == 2
        assert "--no-such-flag" in capsys.readouterr().err

    def test_sweep_p_requires_list(self, tmp_path):
        assert main(["sweep-p", "--trials", "5",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_unwritable_output_exits_one(self):
        code = main(["sweep-snr", "--trials", "2", "--snr-db", "0",
                     "--estimators", "blind",
                     "--out", "/nonexistent-dir/x.csv"])
        assert code == 1

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("trials=10\nsnr_db=0\nseed=5\nestimators=blind\n"
                       "# comment line\nout=" + str(tmp_path / "from_file.csv") + "\n")
        out = tmp_path / "override.csv"
        code = main(["sweep-snr", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert out.exists()
        rows = read_rows(out)
        assert rows[0]["trials"] == "10"

    def test_summary_written_and_passing(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["sweep-snr", "--trials", "15", "--snr-db", "0",
                     "--estimators", "blind", "--summary", "--out", str(out)])
        assert code == 0
        doc = json.loads((tmp_path / "s.csv.summary.json").read_text())
        assert doc["all_passed"] is True
        assert all(a["passed"] for a in doc["assertions"])

    def test_em_family_needs_dim_two(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["sweep-snr", "--trials", "10", "--dim", "1", "--p", "1.0",
                     "--snr-db=0,10", "--seed", "2", "--out", out]) == 2
        assert "em family needs dim >= 2" in capsys.readouterr().err
        assert main(["sweep-dim", "--trials", "3", "--dim", "4,1", "--snr-db", "0",
                     "--out", out]) == 2
        assert main(["sweep-p", "--trials", "3", "--dim", "1", "--p", "0.5",
                     "--estimators", "em", "--out", out]) == 2
        assert main(["sweep-dim", "--trials", "3", "--dim", "4,0", "--snr-db", "0",
                     "--estimators", "blind", "--out", out]) == 2
        # without the em family dim 1 is a valid sweep
        assert main(["sweep-snr", "--trials", "3", "--dim", "1", "--snr-db", "0",
                     "--estimators", "blind,genie", "--out", out]) == 0
        assert main(["sweep-dim", "--trials", "3", "--dim", "1,2", "--snr-db", "0",
                     "--estimators", "blind,genie", "--out", out]) == 0

    @pytest.mark.parametrize("command", ["channel-mse", "channel-ber"])
    def test_channel_needs_dim_two(self, tmp_path, capsys, command):
        # both channel experiments run beaches_em, which needs two antennas
        out = tmp_path / "x.csv"
        assert main([command, "--dim", "1", "--users", "1", "--paths", "1",
                     "--trials", "2", "--snr-db", "0", "--out", str(out)]) == 2
        assert "beaches_em" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,config", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_bad_input_exits_two_without_csv(self, tmp_path, capsys, argv, config):
        out = tmp_path / "x.csv"
        if config is not None:
            (tmp_path / "exp.cfg").write_text(config)
            argv = argv + ["--config", str(tmp_path / "exp.cfg")]
        assert main(argv + ["--trials", "2", "--out", str(out)]) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_estimate_exits_two(self, tmp_path, capsys):
        # the model's powers are in range, but a draw's blind SNR estimate,
        # its receive power over its median noise estimate, overflows
        out = tmp_path / "x.csv"
        assert main(["sweep-snr", "--n0", "1e-300", "--p", "0.5", "--snr-db", "3079",
                     "--dim", "3", "--estimators", "blind", "--trials", "100",
                     "--out", str(out)]) == 2
        assert "an estimate at these powers overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", list(cli._SETTINGS))
    def test_config_file_and_flag_give_same_config(self, tmp_path, key):
        # the dim and p lists, users and paths under subcommands that read them
        command = {"dim": "sweep-dim", "p": "bounds", "users": "channel-mse",
                   "paths": "channel-mse"}.get(key, "sweep-snr")

        def config(*argv):
            return cli._build_config(cli._build_parser().parse_args([command, *argv]))

        value = SETTING_VALUES[key]
        (tmp_path / "exp.cfg").write_text(f"{key}={value}\n")
        flag = "--" + key.replace("_", "-")
        from_file = config("--config", str(tmp_path / "exp.cfg"))
        assert from_file == config(flag if key == "summary" else f"{flag}={value}")
        parse, field, _ = cli._SETTINGS[key]
        assert getattr(from_file, field) == parse(value)
        assert getattr(from_file, field) != getattr(SweepConfig("sweep_snr"), field)

    def test_one_field_per_setting(self):
        # the experiment, then one SweepConfig field per setting, no two alike
        fields = sorted(f.name for f in dataclasses.fields(SweepConfig))
        assert fields == sorted(["experiment", *(f for _, f, _ in cli._SETTINGS.values())])

    def test_entry_power_headroom_boundary(self, tmp_path):
        # at p = 1 and 0 dB the entry power is 2 n0, so dim 64 admits
        # n0 below DBL_MAX / (2^10 * 64 * 2), about 1.37e303
        limit = sys.float_info.max / (cli._HEADROOM * 64 * 2)
        argv = ["sweep-snr", "--trials", "3", "--dim", "64", "--p", "1", "--snr-db", "0",
                "--summary", "--out", str(tmp_path / "s.csv")]
        assert main(argv + ["--n0", repr(limit * 0.99)]) == 0
        assert all(math.isfinite(float(r[k])) for r in read_rows(tmp_path / "s.csv")
                   for k in ("mean", "stddev"))
        assert main(argv + ["--n0", repr(limit * 1.01)]) == 2

    def test_config_file_run_writes_flag_run_bytes(self, tmp_path):
        (tmp_path / "exp.cfg").write_text("trials=8\ndim=16\np=0.2\nn0=2\nsnr_db=-5,5\n"
                                          "seed=4\nestimators=blind,em\n")
        from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert main(["sweep-snr", "--config", str(tmp_path / "exp.cfg"),
                     "--out", str(from_file)]) == 0
        assert main(["sweep-snr", "--trials", "8", "--dim", "16", "--p", "0.2", "--n0", "2",
                     "--snr-db=-5,5", "--seed", "4", "--estimators", "blind,em",
                     "--out", str(from_flags)]) == 0
        assert from_file.read_bytes() == from_flags.read_bytes()

    def test_sweep_config_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(experiment="nope")
        for bad in ({"snr_points_db": ()}, {"snr_points_db": (0.0, math.nan)},
                    {"estimators": ("blind", "oracle")}, {"estimators": ()},
                    {"seed": -1}, {"n0": math.inf}, {"p_points": (0.1, 1.5)},
                    {"p_points": (0.0,)},
                    {"dim_points": (32, 64)}, {"p_points": (0.1, 0.2)},
                    {"snr_points_db": (4000.0,)}, {"snr_points_db": (-4000.0,)},
                    {"n0": 1e300, "snr_points_db": (70.0,)},
                    {"p_points": (1e-320,), "snr_points_db": (0.0,)}):
            with pytest.raises(ConfigError):
                SweepConfig(experiment="sweep_snr", **bad)
        for experiment, bad in (("sweep_p", {"dim_points": (32, 64)}),
                                ("sweep_dim", {"dim_points": (32, 64), "p_points": (0.1, 0.2)}),
                                ("channel_mse", {"p_points": (0.1, 0.2)}),
                                ("sweep_p", {"p_points": (0.1, 1e-320), "snr_points_db": (0.0,)}),
                                ("channel_mse", {"snr_points_db": (-4000.0,)}),
                                ("channel_mse", {"snr_points_db": (-3080.0,)}),
                                ("channel_ber", {"snr_points_db": (4000.0,)})):
            with pytest.raises(ConfigError):
                SweepConfig(experiment=experiment, **bad)
        # the channel's shape is checked before its noise power
        with pytest.raises(ConfigError, match="users must lie"):
            SweepConfig(experiment="channel_ber", dim_points=(128,), users=0)
        # one-entry lists, and lists where they are read, stay valid
        SweepConfig(experiment="sweep_snr", dim_points=(32,), p_points=(0.2,))
        SweepConfig(experiment="sweep_dim", dim_points=(32, 64))
        SweepConfig(experiment="bounds_grid", p_points=(0.1, 0.2))


# The settings each subcommand's runner reads; every other setting exits 2.
SWEEP_READS = ("trials", "dim", "p", "n0", "snr_db", "seed", "out", "estimators", "summary")
READS = {
    "sweep-snr": SWEEP_READS,
    "sweep-p": SWEEP_READS,
    "sweep-dim": SWEEP_READS,
    "bounds": tuple(key for key in SWEEP_READS if key != "estimators"),
    "channel-mse": ("trials", "dim", "snr_db", "seed", "out", "users", "paths", "summary"),
    "channel-ber": ("trials", "dim", "snr_db", "seed", "out", "users", "paths", "summary"),
}
UNREAD = [(command, key) for command, reads in READS.items()
          for key in cli._SETTINGS if key not in reads]
# a run that writes a CSV, and a value of each unread setting that such a
# run would take if it read it
READ_ARGV = {"sweep-snr": [], "sweep-p": ["--p", "0.05,0.2"],
             "sweep-dim": ["--dim", "8,16"], "bounds": [],
             "channel-mse": ["--dim", "16", "--users", "2"],
             "channel-ber": ["--dim", "16", "--users", "2"]}
UNREAD_VALUES = {"n0": "2.5", "p": "0.3", "estimators": "genie", "users": "3", "paths": "4"}
UNREAD_FIELDS = {"n0": 2.5, "p_points": (0.3,), "estimators": ("genie",), "users": 3,
                 "paths_per_user": 4}


class TestSettingsEachSubcommandReads:
    @pytest.mark.parametrize("command,key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unread_setting_exits_two_without_csv(self, tmp_path, capsys, command, key,
                                                  source):
        out, value = tmp_path / "x.csv", UNREAD_VALUES[key]
        argv = [command, *READ_ARGV[command], "--trials", "2", "--snr-db", "0",
                "--out", str(out)]
        if source == "flag":
            argv += ["--" + key, value]
        else:
            (tmp_path / "exp.cfg").write_text(f"seed=3\n{key}={value}\n")
            argv += ["--config", str(tmp_path / "exp.cfg")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (f"unrecognized arguments: --{key} {value}" if source == "flag"
                else f"exp.cfg:2: {command} does not read {key!r}") in err
        assert not out.exists()
        # the same run without the setting writes its CSV
        assert main(argv[:-2]) == 0
        assert out.exists()

    @pytest.mark.parametrize("command,key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
    def test_library_config_rejects_unread_field(self, command, key):
        experiment = cli._SUBCOMMANDS[command][0]
        field = cli._SETTINGS[key][1]
        fields = {"sweep-p": {"p_points": (0.05, 0.2)},
                  "sweep-dim": {"dim_points": (8, 16)}}.get(command, {})
        # an unread field at its default is no setting
        default = getattr(SweepConfig(experiment, **fields), field)
        SweepConfig(experiment, **fields, **{field: default})
        with pytest.raises(ConfigError, match=f"does not read {key}"):
            SweepConfig(experiment, **fields, **{field: UNREAD_FIELDS[field]})

    @pytest.mark.parametrize("command", list(READS))
    def test_help_lists_exactly_the_settings_read(self, capsys, command):
        assert main([command, "--help"]) == 0
        offered = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        assert offered == {"--help", "--config",
                           *("--" + key.replace("_", "-") for key in READS[command])}


class TestOtherSweeps:
    def test_sweep_p(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["sweep-p", "--trials", "20", "--p", "0.05,0.2",
                     "--snr-db", "0", "--estimators", "blind",
                     "--out", str(out)])
        assert code == 0
        assert {r["p"] for r in read_rows(out)} == {"0.05", "0.2"}

    def test_sweep_dim(self, tmp_path):
        out = tmp_path / "d.csv"
        code = main(["sweep-dim", "--trials", "20", "--dim", "32,128",
                     "--snr-db", "0", "--estimators", "blind",
                     "--out", str(out)])
        assert code == 0
        assert {r["dim"] for r in read_rows(out)} == {"32", "128"}

    @pytest.mark.parametrize("command,runner,fields,argv", [
        ("sweep-snr", run_sweep, {"estimators": ("blind",)}, ["--estimators", "blind"]),
        ("sweep-p", run_sweep, {"p_points": (0.05, 0.2), "estimators": ("blind",)},
         ["--p", "0.05,0.2", "--estimators", "blind"]),
        ("sweep-dim", run_sweep, {"dim_points": (8, 16), "estimators": ("blind",)},
         ["--dim", "8,16", "--estimators", "blind"]),
        ("bounds", cli.run_bounds_grid, {}, []),
        ("channel-mse", cli.run_channel, {}, []),
        ("channel-ber", cli.run_channel, {}, [])],
        ids=["sweep-snr", "sweep-p", "sweep-dim", "bounds", "channel-mse", "channel-ber"])
    def test_library_entry_point_matches_cli(self, tmp_path, command, runner, fields, argv):
        # without --dim, the library and the CLI take the same default dim
        lib, flags = tmp_path / "lib.csv", tmp_path / "cli.csv"
        cfg = SweepConfig(experiment=cli._SUBCOMMANDS[command][0], trials=3,
                          snr_points_db=(0.0,), seed=11, **fields)
        cli.write_csv(runner(cfg), str(lib))
        assert main([command, *argv, "--trials", "3", "--snr-db", "0",
                     "--seed", "11", "--out", str(flags)]) == 0
        assert lib.read_bytes() == flags.read_bytes()

    @pytest.mark.parametrize("argv", [["sweep-p", "--p", "0.1,0.2"],
                                      ["sweep-dim", "--dim", "8,16"]],
                             ids=["sweep-p", "sweep-dim"])
    def test_snr_db_is_one_value_where_the_run_reads_one(self, tmp_path, capsys, argv):
        # sweep-p and sweep-dim run one SNR point, so a list of them is
        # rejected rather than cut to its first point
        out = tmp_path / "x.csv"
        assert main(argv + ["--trials", "2", "--snr-db=0,10", "--out", str(out)]) == 2
        assert not out.exists()
        assert "snr_db" in capsys.readouterr().err
        # sweep-snr runs every point, so it rejects a list with an overflowing one
        assert main(["sweep-snr", "--trials", "2", "--snr-db=0,4000",
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestStats:
    def test_plain_rows_use_numpy_arithmetic(self):
        scales = [[1e-300], [1.0], [3e5], [1e100]]
        table = np.random.default_rng(4).standard_normal((4, 11)) * scales
        mean, std = cli._stats(table)
        for k, row in enumerate(table):
            assert (mean[k], std[k]) == (row.mean(), row.std(ddof=1))

    def test_huge_rows_are_rescaled_exactly(self):
        table = np.array([[1e300, 2e300, 4e300], [1.7e308, -1.7e308, 1.0e308],
                          [2.0 ** 401, 0.0, -(2.0 ** 401)]])
        mean, std = cli._stats(table)
        assert np.isfinite(mean).all() and np.isfinite(std).all()
        for k, row in enumerate(table):
            # the power-of-two scaling is exact, so numpy on the scaled row
            # gives the same bits; statistics works in exact fractions
            shift = np.frexp(np.abs(row).max())[1]
            scaled = np.ldexp(row, -shift)
            assert mean[k] == np.ldexp(scaled.mean(), shift)
            assert std[k] == np.ldexp(scaled.std(ddof=1), shift)
            assert std[k] == pytest.approx(statistics.stdev(row.tolist()), rel=1e-14)

    def test_one_trial_has_zero_stddev(self):
        mean, std = cli._stats(np.array([[3.0], [1e305]]))
        assert mean.tolist() == [3.0, 1e305] and std.tolist() == [0.0, 0.0]

    def test_huge_noise_power_gives_finite_stddev(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep-snr", "--trials", "3", "--dim", "8", "--n0", "1e300",
                     "--snr-db=0", "--summary", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert all(np.isfinite(float(r["stddev"])) for r in rows)
        assert all(float(r["stddev"]) > 0.0 for r in rows if r["quantity"] == "n0")


# --- row-batched sweeps against the per-trial loop they replaced -----------

def reference_point_trials(seed, trials, params, families):
    """One model point one trial at a time, as the sweeps once ran:
    {family: {quantity: [value per trial]}}."""
    out = {f: {q: [] for q in cli._QUANTITIES} for f in families}
    ys = []
    for t in range(trials):
        stream = RngStream(seed, stream_id=t)
        s = sample_bcg(params, stream)
        n = sample_noise(params.noise_power, params.dim, stream)
        y = add(s, n)
        noise, signal, snr, mse, search, _ = reference_blind(y)
        for q, v in zip(cli._QUANTITIES, (noise.value, signal.value, snr.value, mse.value)):
            out["blind"][q].append(v)
        if "genie" in families:
            es, n0, snr_bar, e0 = reference_genie(s, n, y, search.tau_star)
            for q, v in zip(cli._QUANTITIES, (n0, es, snr_bar, e0)):
                out["genie"][q].append(v)
        ys.append(y.values)
    if "em" in families:
        ys = np.array(ys)
        z = abs_squared(ys)
        fits = em_fit_rows(z, em_init_rows(z))
        n0 = [fit.n0_em for fit in fits]
        _, sure = search_rows(ys, n0)
        em = out["em"]
        em["n0"] = n0
        em["es"] = [f.params.weight_active * (f.params.var_large - f.params.var_small)
                    for f in fits]
        em["snr"] = [f.snr_em for f in fits]
        em["mse"] = [max(v, 0.0) for v in sure.tolist()]
    return out


class TestTrialTableMatchesPerTrialLoop:
    @settings(max_examples=40, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 9),
           dim=st.integers(1, 130), n0=st.sampled_from([1e-200, 1e-3, 1.0, 2.5, 1e150]),
           points=st.lists(st.tuples(st.floats(-20.0, 40.0),
                                     st.sampled_from([0.01, 0.1, 0.5, 1.0])),
                           min_size=1, max_size=4),
           families=st.sampled_from([("blind",), ("blind", "em", "genie"),
                                     ("blind", "genie"), ("blind", "em")]),
           block_entries=st.sampled_from([None, 1, 64, 300]))
    def test_bit_identical(self, seed, trials, dim, n0, points, families, block_entries):
        if dim < 2:
            families = tuple(f for f in families if f != "em")
        cfg = SweepConfig(experiment="sweep_snr", trials=trials, dim_points=(dim,), n0=n0,
                          seed=seed, estimators=families)
        params = [cli._model_point(cfg, snr_db, p, dim) for snr_db, p in points]
        entries = core._BLOCK_ENTRIES if block_entries is None else block_entries
        with mock.patch.object(core, "_BLOCK_ENTRIES", entries):  # split into blocks
            table = cli._trial_table(cfg, params, families)
        assert table.shape == (len(points), len(families), 4, trials)
        for i, prm in enumerate(params):
            ref = reference_point_trials(seed, trials, prm, families)
            for f, family in enumerate(families):
                for q, quantity in enumerate(cli._QUANTITIES):
                    assert table[i, f, q].tolist() == ref[family][quantity], (family, quantity)
