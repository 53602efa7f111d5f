"""CLI harness: schema, determinism, exit codes, and config handling."""

import csv
import json

import numpy as np
import pytest

from blindsnr.cli import CSV_COLUMNS, ConfigError, SweepConfig, main, run_sweep_snr


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

    def test_sweep_config_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(experiment="nope")
        with pytest.raises(ConfigError):
            SweepConfig(experiment="sweep_snr", snr_points_db=())
        with pytest.raises(ConfigError):
            SweepConfig(experiment="sweep_snr", estimators=("blind", "oracle"))


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

    def test_library_entry_point_matches_cli(self, tmp_path):
        cfg = SweepConfig(experiment="sweep_snr", trials=10,
                          snr_points_db=(0.0,), estimators=("blind",),
                          output_path=str(tmp_path / "lib.csv"), seed=11)
        rows = run_sweep_snr(cfg)
        assert len(rows) == 4
        assert all(r["family"] == "blind" for r in rows)
