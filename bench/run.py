"""Run one blindsnr benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep-snr --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload api-calls --seed 1 --seconds 30 --trace 1

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` the end-to-end metrics are printed, with ``--trace 1``
the per-layer metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the provenance, the error rate,
and any failed check.

The workload runs in a child process whose BLAS and OpenMP thread count
is pinned to ``BLAS_THREADS``. Set-up time is measured here, from the
spawn of a fresh interpreter until it has imported blindsnr and finished
the workload's smallest call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_SCRIPT = BENCH_DIR / "workload.py"
WORKLOADS = ("sweep-snr", "channel-ber", "api-calls")

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SPAWNS = 11
SETUP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 150


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def _first_line(path: Path, prefix: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": _first_line(Path("/proc/cpuinfo"), "model name"),
        "blas_threads": BLAS_THREADS,
    }


def setup_once(workload: str, env: dict, work: Path) -> float:
    """Seconds from spawning a fresh interpreter to its "ready" line."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKLOAD_SCRIPT), "--setup", workload, "--work", str(work)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "ready":
                ready = perf_counter() - start
                break
        proc.stdout.read()
        status = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready is None or status != 0:
        raise RuntimeError(f"set-up process for {workload} exited with {status}")
    return ready


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "blindsnr" / "__init__.py").is_file():
        print(f"error: no blindsnr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = pinned_env()
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = None
        if not args.trace:
            setup_s = statistics.median(
                setup_once(args.workload, env, work) for _ in range(SETUP_SPAWNS))
        cmd = [sys.executable, str(WORKLOAD_SCRIPT), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work)]
        subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                       timeout=CHILD_TIMEOUT_S, check=True)
        with open(work / "result.json") as fh:
            result = json.load(fh)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {args.workload} did not finish: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    prov = {**provenance(args), **result["provenance"]}
    attempted, failed = result["attempted"], result["failed"]
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for note in result["notes"]:
        print(f"note: {note}")
    for problem in result["problems"]:
        print(f"failed check: {problem}")
    print(f"error_rate: {failed / attempted!r} ({failed} of {attempted} checks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
