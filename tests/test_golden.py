"""Golden CSVs: every subcommand's output at a small fixed config, byte for byte.

The CSV bytes for a fixed config and seed are the behaviour contract, so a
refactor that keeps them keeps the experiments. The channel configs use
several users, several paths and two SNR points, so a change in how a
trial is drawn or in which variant sees which draw shows up here. Eight
more cases sit at the edges of the row-batched kernels: one-row channel
blocks, D = 2, a one-trial EM block of odd length, an estimator block
boundary inside a model point, a channel block boundary between trials
(blocks of 2 and 1 trials) in both channel experiments, dims 1 and 2,
and family subsets.

An intended change to the output bumps ``experiment_version`` and
re-records the files:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from blindsnr.cli import main

DATA = Path(__file__).resolve().parent / "data"

# case -> argv
GOLDEN = {
    "sweep-snr": ["sweep-snr", "--trials", "6", "--dim", "64", "--p", "0.1",
                  "--snr-db=-10,0,10", "--seed", "3"],
    "sweep-p": ["sweep-p", "--trials", "5", "--dim", "64", "--p", "0.05,0.2",
                "--snr-db", "0", "--seed", "4"],
    "sweep-dim": ["sweep-dim", "--trials", "5", "--dim", "32,128",
                  "--snr-db", "5", "--seed", "5"],
    "bounds": ["bounds", "--trials", "5", "--dim", "64", "--p", "0.1,0.45",
               "--snr-db=-10,10", "--seed", "6"],
    "channel-mse": ["channel-mse", "--trials", "3", "--dim", "64",
                    "--users", "3", "--paths", "2", "--snr-db=-10,10",
                    "--seed", "7"],
    "channel-ber": ["channel-ber", "--trials", "4", "--dim", "64",
                    "--users", "4", "--paths", "3", "--snr-db", "0,10",
                    "--seed", "8"],
    # batch edges: one-row blocks, D = 2, a one-trial EM block of odd D
    "channel-ber-one-user": ["channel-ber", "--trials", "3", "--dim", "4",
                             "--users", "1", "--paths", "1",
                             "--snr-db=-5,30", "--seed", "9"],
    "channel-mse-dim2": ["channel-mse", "--trials", "3", "--dim", "2",
                         "--users", "2", "--paths", "1", "--snr-db=-5,30",
                         "--seed", "9"],
    "sweep-snr-one-trial": ["sweep-snr", "--trials", "1", "--dim", "3",
                            "--p", "0.5", "--snr-db=-10,20", "--seed", "9"],
    # estimator block edges: a 2^18-entry block boundary inside an SNR
    # point, dims 1 and 2 without EM, and a p grid without genie
    "sweep-snr-block-edge": ["sweep-snr", "--trials", "9", "--dim", "16384",
                             "--snr-db=0,10", "--seed", "9"],
    "sweep-dim-small": ["sweep-dim", "--trials", "3", "--dim", "1,2,7",
                        "--snr-db", "0", "--estimators", "blind,genie",
                        "--seed", "2"],
    "sweep-p-blind-em": ["sweep-p", "--trials", "4", "--dim", "16",
                         "--p", "0.05,0.5,1.0", "--snr-db", "10",
                         "--estimators", "blind,em", "--seed", "10"],
    # channel block edges: 2 points x 64 users x 1024 antennas fill 2^18
    # entries per 2 trials, so 3 trials split into blocks of 2 and 1
    "channel-mse-block-edge": ["channel-mse", "--trials", "3", "--dim", "1024",
                               "--users", "64", "--paths", "1",
                               "--snr-db", "0,10", "--seed", "11"],
    "channel-ber-block-edge": ["channel-ber", "--trials", "3", "--dim", "1024",
                               "--users", "64", "--paths", "1",
                               "--snr-db", "0,10", "--seed", "12"],
}


def _write(case: str, out: Path) -> None:
    assert main([*GOLDEN[case], "--out", str(out)]) == 0


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_csv_matches_golden(case, tmp_path):
    out = tmp_path / f"{case}.csv"
    _write(case, out)
    assert out.read_bytes() == (DATA / f"{case}.csv").read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in GOLDEN:
        _write(name, DATA / f"{name}.csv")
