"""Record the reference outputs the benchmark's correctness gate compares with.

    python3 bench/record.py

Rewrites ``bench/refs/*.json`` from the program under ``src``. Run it only
when an output is meant to change, and say so where the change is made.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from run import BLAS_THREADS, THREAD_VARS

os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})

import workload as wl  # noqa: E402  (the thread count must be set first)


def _write(name: str, doc: dict) -> None:
    wl.REFS.mkdir(exist_ok=True)
    with open(wl.REFS / f"{name}.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_cli(blindsnr, workload, work: Path) -> None:
    out = str(work / "out.csv")
    seeds = {}
    for seed in wl.REFERENCE_SEEDS:
        with contextlib.redirect_stdout(io.StringIO()):
            _, status = workload.invoke(blindsnr.cli, seed, out)
        if status != 0:
            raise SystemExit(f"{workload.name} seed {seed} exited with {status}")
        seeds[str(seed)] = workload.means(out)
    if len({frozenset(m) for m in seeds.values()}) != 1:
        raise SystemExit(f"{workload.name}: reference seeds give different keys")
    _write(workload.name, {"argv": list(workload.argv), "seeds": seeds})


def record_api(blindsnr, workload) -> None:
    ns = workload.namespace(blindsnr)
    params = workload.model_params(blindsnr)
    seeds = {}
    bounds = {}
    for seed in wl.REFERENCE_SEEDS:
        outputs, _ = workload.one_pass(ns, wl.draw_bank(seed, 0), params)
        seeds[str(seed)] = [wl.observation_digests(*out[1:])
                            for out in outputs[:wl.BANK_SIZE]]
        for (p, snr_db), chk in zip(wl.MODEL_POINTS, outputs[wl.BANK_SIZE:]):
            bounds[f"{p}|{snr_db}"] = wl.bounds_values(chk)
    _write(workload.name, {
        "bank": {"size": wl.BANK_SIZE, "large_every": wl.LARGE_EVERY,
                 "dims": [wl.SMALL_DIM, wl.LARGE_DIM], "n0": wl.BANK_N0,
                 "model_points": wl.MODEL_POINTS},
        "calls": list(wl.ESTIMATING_CALLS),
        "seeds": seeds, "theorem1_bounds": bounds})


def main() -> None:
    blindsnr = wl.import_blindsnr()
    with tempfile.TemporaryDirectory(dir=wl.ROOT) as tmp:
        for workload in (wl.SWEEP_SNR, wl.CHANNEL_BER):
            record_cli(blindsnr, workload, Path(tmp))
    record_api(blindsnr, wl.WORKLOADS["api-calls"])


if __name__ == "__main__":
    main()
