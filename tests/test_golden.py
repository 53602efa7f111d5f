"""Golden CSVs: every subcommand's output at a small fixed config, byte for byte.

The CSV bytes for a fixed config and seed are the behaviour contract, so a
refactor that keeps them keeps the experiments. The channel configs use
several users, several paths and two SNR points, so a change in how a
trial is drawn or in which variant sees which draw shows up here.

An intended change to the output bumps ``experiment_version`` and
re-records the files:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from blindsnr.cli import main

DATA = Path(__file__).resolve().parent / "data"

GOLDEN = {
    "sweep-snr": ["--trials", "6", "--dim", "64", "--p", "0.1",
                  "--snr-db=-10,0,10", "--seed", "3"],
    "sweep-p": ["--trials", "5", "--dim", "64", "--p", "0.05,0.2",
                "--snr-db", "0", "--seed", "4"],
    "sweep-dim": ["--trials", "5", "--dim", "32,128", "--snr-db", "5",
                  "--seed", "5"],
    "bounds": ["--trials", "5", "--dim", "64", "--p", "0.1,0.45",
               "--snr-db=-10,10", "--seed", "6"],
    "channel-mse": ["--trials", "3", "--dim", "64", "--users", "3",
                    "--paths", "2", "--snr-db=-10,10", "--seed", "7"],
    "channel-ber": ["--trials", "4", "--dim", "64", "--users", "4",
                    "--paths", "3", "--snr-db", "0,10", "--seed", "8"],
}


def _write(command: str, out: Path) -> None:
    assert main([command, *GOLDEN[command], "--out", str(out)]) == 0


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_csv_matches_golden(command, tmp_path):
    out = tmp_path / f"{command}.csv"
    _write(command, out)
    assert out.read_bytes() == (DATA / f"{command}.csv").read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in GOLDEN:
        _write(name, DATA / f"{name}.csv")
