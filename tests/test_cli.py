"""CLI harness: schema, determinism, exit codes, and config handling."""

import csv
import json
import statistics
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindsnr import RngStream, abs_squared, add, sample_bcg, sample_noise
from blindsnr import cli
from blindsnr.cli import CSV_COLUMNS, ConfigError, SweepConfig, main, run_sweep_snr
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
        cfg = SweepConfig(experiment="sweep_snr", trials=trials, dim=dim, n0=n0,
                          seed=seed, estimators=families)
        params = [cli._model_point(cfg, snr_db, p, dim) for snr_db, p in points]
        entries = cli._BLOCK_ENTRIES if block_entries is None else block_entries
        with mock.patch.object(cli, "_BLOCK_ENTRIES", entries):  # split into blocks
            table = cli._trial_table(cfg, params, families)
        assert table.shape == (len(points), len(families), 4, trials)
        for i, prm in enumerate(params):
            ref = reference_point_trials(seed, trials, prm, families)
            for f, family in enumerate(families):
                for q, quantity in enumerate(cli._QUANTITIES):
                    assert table[i, f, q].tolist() == ref[family][quantity], (family, quantity)
