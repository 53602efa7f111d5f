"""One benchmark workload in its own process, with its correctness gate.

``bench/run.py`` starts this file with BLAS threads pinned, in one of
three modes:

    workload.py --setup NAME --work DIR     import + smallest call, print "ready"
    workload.py --workload NAME --seed S --seconds T --trace 0 --work DIR
    workload.py --workload NAME --seed S --seconds T --trace 1 --work DIR

The timed mode runs a closed loop (one caller, each call waits for the
previous one) for T seconds. The traced mode runs a fixed amount of work
twice untraced and twice traced, and reports per-layer metrics. Both
modes first check the outputs at the reference inputs exactly against
``bench/refs``, and write ``DIR/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS = BENCH_DIR / "refs"

# Inputs at these seeds have recorded reference outputs. 7919 was held
# out: no run used it while the workloads were tuned.
REFERENCE_SEEDS = (0, 7919)
# The k-th CLI invocation of a run at seed S uses CLI seed S * stride + k;
# the k-th api-calls bank uses numpy seed [S, k].
SEED_STRIDE = 1_000_000

CLI_KEY_COLUMNS = ("experiment", "snr_db", "p", "dim", "family", "quantity")

# api-calls bank: most observations are short (the per-call overhead
# regime); every 16th is long (the per-element regime), so the slowest
# 1.6 % of calls, where p99 falls, are D = 4096 calls.
BANK_SIZE = 256
LARGE_EVERY = 16
SMALL_DIM = 64
LARGE_DIM = 4096
BANK_N0 = 1.0
MODEL_POINTS = tuple((p, snr_db) for p in (0.05, 0.2) for snr_db in (0.0, 10.0, 20.0))
REL_SLACK = 1e-9


def import_blindsnr():
    """Import blindsnr from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import blindsnr
    import blindsnr.cli  # the console script's module
    if Path(blindsnr.__file__).resolve().parent != (SRC / "blindsnr").resolve():
        raise SystemExit(f"error: blindsnr imported from {blindsnr.__file__}, "
                         f"not from {SRC}")
    return blindsnr


class Gate:
    """Tally of correctness checks, one per checked operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems[:3])}")
        return not problems


# A call is timed in the CPU time of this process (``process_time``), not
# in wall time: the process is single-threaded with BLAS pinned to one
# thread, so on an idle machine the two agree, but on a shared one the
# wall time also holds the spells in which the process sits descheduled
# while other tenants run, and those spells made the slowest calls (p99)
# wander from run to run. Deadlines stay in wall time.
#
# Co-tenants on a shared machine slow every call, in phases that last from
# seconds to minutes. So a timed run is cut into windows of this many
# seconds inside timed calls, each window yields every end-to-end figure,
# and the run reports the median over its windows: a phase that covers
# less than half the run does not move it, while a change to the program
# moves every window.
WINDOW_S = 2.0


def latency_us(latencies, q: float) -> float:
    """Nearest-rank percentile in microseconds. A failed call took infinite
    time; that reads as the largest finite float, to keep the JSON valid."""
    ordered = sorted(latencies)
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e6
    return min(value, sys.float_info.max)


class Windows:
    """End-to-end figures per window of timed calls, and their medians."""

    def __init__(self):
        self.rows = []   # (trials/s, calls/s, p50 us, p99 us) per closed window
        self._open()

    def _open(self):
        self.trials = 0
        self.ok_calls = 0
        self.busy = 0.0
        self.latencies = array("d")

    def _close(self):
        per_s = 1.0 / self.busy if self.busy else 0.0
        self.rows.append((self.trials * per_s, self.ok_calls * per_s,
                          latency_us(self.latencies, 0.50),
                          latency_us(self.latencies, 0.99)))
        self._open()

    def add(self, trials: int, latencies: list, ok: bool) -> None:
        """One block of calls; a failed block completes no trial and each of
        its calls misses every latency limit."""
        self.trials += trials if ok else 0
        self.ok_calls += len(latencies) if ok else 0
        self.busy += sum(latencies)
        self.latencies.extend(latencies if ok else [math.inf] * len(latencies))
        if self.busy >= WINDOW_S:
            self._close()

    def metrics(self) -> dict:
        if not self.rows:  # a run shorter than one window
            self._close()
        trials, calls, p50, p99 = (statistics.median(col) for col in zip(*self.rows))
        return {
            "trials_per_s": (trials, "1/s"),
            "calls_per_s": (calls, "1/s"),
            "call_p50_us": (p50, "us"),
            "call_p99_us": (p99, "us"),
        }


def _lap(done: list, start: float) -> float:
    """Append the time since ``start`` to ``done``; return the time now."""
    now = process_time()
    done.append(now - start)
    return now


def _raised(exc) -> list:
    return [f"raised {type(exc).__name__}: {exc}"]


# ----------------------------------------------------------------- CLI runs

class CliWorkload:
    """A blindsnr subcommand called through ``blindsnr.cli.main``."""

    def __init__(self, name, argv, trials_per_call, setup_argv, trace_calls_per_s):
        self.name = name
        self.argv = tuple(argv)
        self.trials_per_call = trials_per_call
        self.setup_argv = tuple(setup_argv)
        self.trace_calls_per_s = trace_calls_per_s
        self.ref = None

    def load_reference(self):
        with open(REFS / f"{self.name}.json") as fh:
            ref = json.load(fh)
        if tuple(ref["argv"]) != self.argv:
            raise SystemExit(f"error: {self.name} reference was recorded for "
                             f"{ref['argv']}, the workload runs {list(self.argv)}")
        self.ref = {int(seed): means for seed, means in ref["seeds"].items()}

    def invoke(self, cli, cli_seed: int, out: str):
        """One CLI call; returns (seconds, exit status or the raised error)."""
        argv = [*self.argv, "--seed", str(cli_seed), "--out", out, "--summary"]
        start = process_time()
        try:
            status = cli.main(argv)
        except Exception as exc:  # a raised error is a failed operation
            status = exc
        return process_time() - start, status

    def means(self, out: str) -> dict:
        """{key: mean} of one finished call, for recording references."""
        with open(out) as fh:
            return {"|".join(row[c] for c in CLI_KEY_COLUMNS): float(row["mean"])
                    for row in csv.DictReader(fh)}

    def check(self, status, out: str, cli_seed: int):
        """Problems with one call's outputs, and the CSV bytes."""
        if isinstance(status, Exception):
            return _raised(status), b""
        problems = [] if status == 0 else [f"exit code {status}"]
        try:
            with open(out, "rb") as fh:
                data = fh.read()
            with open(out + ".summary.json") as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            return problems + [f"unreadable output: {exc}"], b""
        if not summary.get("all_passed"):
            failed = [a["name"] for a in summary.get("assertions", ()) if not a["passed"]]
            problems.append(f"summary assertions failed: {failed}")
        means = {}
        for row in csv.DictReader(io.StringIO(data.decode())):
            key = "|".join(row[c] for c in CLI_KEY_COLUMNS)
            for col in ("mean", "stddev"):
                try:
                    value = float(row[col]) if row[col] else None
                except ValueError:
                    value = math.nan
                if value is not None and not math.isfinite(value):
                    problems.append(f"non-finite {col} {row[col]!r} at {key}")
                if col == "mean":
                    means[key] = value
        reference = self.ref.get(cli_seed)
        # extra rows and stddev changes are allowed; every reference key must
        # keep a finite mean, equal to the reference where there is one
        for key in self.ref[REFERENCE_SEEDS[0]]:
            if means.get(key) is None:
                problems.append(f"missing mean at {key}")
            elif reference is not None and means[key] != reference[key]:
                problems.append(f"mean at {key} is {means[key]!r}, "
                                f"reference {reference[key]!r}")
        return problems, data

    def checked_call(self, cli, cli_seed: int, out: str, gate: Gate):
        seconds, status = self.invoke(cli, cli_seed, out)
        problems, data = self.check(status, out, cli_seed)
        return seconds, gate.record(f"{self.name} CLI seed {cli_seed}", problems), data

    def setup_call(self, blindsnr, work: Path):
        with contextlib.redirect_stdout(io.StringIO()):
            status = blindsnr.cli.main([*self.setup_argv, "--out", str(work / "setup.csv")])
        if status != 0:
            raise SystemExit(f"error: set-up call exited with {status}")

    def reference_checks(self, blindsnr, work: Path, gate: Gate):
        for cli_seed in REFERENCE_SEEDS:
            self.checked_call(blindsnr.cli, cli_seed, str(work / "out.csv"), gate)

    def timed(self, blindsnr, seed, seconds, work, gate, notes):
        out = str(work / "out.csv")
        windows = Windows()
        unreferenced = 0
        deadline = perf_counter() + seconds
        k = 0
        while k == 0 or perf_counter() < deadline:
            cli_seed = seed * SEED_STRIDE + k
            unreferenced += cli_seed not in self.ref
            dt, ok, _ = self.checked_call(blindsnr.cli, cli_seed, out, gate)
            windows.add(self.trials_per_call, [dt], ok)
            k += 1
        if unreferenced:
            notes.append(f"{unreferenced} of {k} timed calls used CLI seeds without "
                         f"a reference: invariant checks only (exit code, "
                         f"--summary, every key present, finite values)")
        return windows.metrics()

    def trace_size(self, seconds: float) -> int:
        return max(1, round(seconds * self.trace_calls_per_s))

    def fixed_pass(self, blindsnr, seed, n, work, gate, tracer=None):
        """n checked calls; returns (seconds inside the calls, CSV bytes).

        A traced pass needs no ``tracer`` here: it patches the modules."""
        out = str(work / "out.csv")
        spent = 0.0
        outputs = []
        for k in range(n):
            dt, _, data = self.checked_call(blindsnr.cli, seed * SEED_STRIDE + k, out, gate)
            spent += dt
            outputs.append(data)
        return spent, outputs


SWEEP_SNR = CliWorkload(
    "sweep-snr",
    ("sweep-snr", "--trials", "4", "--dim", "64", "--p", "0.1", "--n0", "1",
     "--snr-db=-10,-5,0,5,10,15,20", "--estimators", "blind,em,genie"),
    trials_per_call=4 * 7,  # trials x SNR points
    setup_argv=("sweep-snr", "--trials", "1", "--dim", "64", "--p", "0.1",
                "--snr-db", "0", "--estimators", "blind,em,genie"),
    trace_calls_per_s=4.0,
)

CHANNEL_BER = CliWorkload(
    "channel-ber",
    ("channel-ber", "--trials", "1", "--dim", "128", "--users", "8",
     "--paths", "2", "--snr-db", "10,20"),
    trials_per_call=1 * 2 * 5,  # trials x SNR points x variants
    setup_argv=("channel-ber", "--trials", "1", "--dim", "128", "--users", "8",
                "--paths", "2", "--snr-db", "10"),
    trace_calls_per_s=4.0,
)


# ------------------------------------------------------------ library calls

def draw_bank(seed: int, index: int) -> list:
    """The index-th bank of observations at ``seed``, drawn with numpy only."""
    rng = np.random.default_rng([seed, index])
    bank = []
    for i in range(BANK_SIZE):
        dim = LARGE_DIM if i % LARGE_EVERY == LARGE_EVERY - 1 else SMALL_DIM
        p, snr_db = MODEL_POINTS[i % len(MODEL_POINTS)]
        active_power = 10.0 ** (snr_db / 10.0) * BANK_N0 / p
        active = rng.random(dim) < p
        s = np.where(active, rng.standard_normal(dim) + 1j * rng.standard_normal(dim), 0.0)
        n = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        bank.append(s * math.sqrt(active_power / 2.0) + n * math.sqrt(BANK_N0 / 2.0))
    return bank


def _values(v) -> np.ndarray:
    return np.asarray(getattr(v, "values", v), dtype=np.complex128)


def _digest(scalars, *arrays) -> str:
    h = hashlib.sha256(np.asarray(scalars, dtype=np.float64).tobytes())
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


ESTIMATING_CALLS = ("estimate_noise_power", "blind_report", "search_threshold")


def observation_digests(est, rep, found) -> str:
    """Digests of every public value the three estimating calls return,
    comma-joined in the order of ``ESTIMATING_CALLS``."""
    return ",".join([
        _digest((est.value, est.median_z)),
        _digest((rep.noise.value, rep.noise.median_z, rep.signal.value,
                 rep.signal.raw, rep.snr.value, rep.snr.raw, rep.mse.value,
                 rep.mse.raw_sure, rep.mse.divergence_sum, rep.search.tau_star,
                 rep.search.sure_at_tau, rep.search.n0_used),
                _values(rep.denoised)),
        _digest((found.tau_star, found.sure_at_tau, found.n0_used)),
    ])


def bounds_values(chk) -> list:
    return [chk.median_exact, chk.lower_bound_n0, chk.upper_bound_n0,
            chk.lemma2_ub, chk.lemma3_ub, chk.lemma4_lb]


def observation_invariants(arr, y, est, rep, found) -> list:
    """Checks that hold at any seed."""
    if not np.array_equal(_values(y), arr):
        return ["from_complex changed the values"]
    scalars = (est.value, rep.noise.value, rep.signal.value, rep.snr.value,
               rep.mse.value, rep.search.tau_star, rep.search.sure_at_tau,
               found.tau_star, found.sure_at_tau)
    if not all(math.isfinite(v) for v in scalars):
        return [f"non-finite value in {scalars}"]
    problems = []
    if est.value != rep.noise.value:
        problems.append(f"estimate_noise_power {est.value!r} != "
                        f"blind_report noise {rep.noise.value!r}")
    if min(est.value, rep.signal.value, rep.snr.value, rep.mse.value) < 0.0:
        problems.append("negative clipped estimate")
    r_max = float(np.abs(arr).max())
    for tau in (rep.search.tau_star, found.tau_star):
        if not 0.0 <= tau <= r_max * (1.0 + REL_SLACK):
            problems.append(f"threshold {tau!r} outside [0, max|y|]")
    # tau = 0 (the identity) is a candidate, and its risk estimate is n0
    if found.sure_at_tau > BANK_N0 * (1.0 + REL_SLACK):
        problems.append(f"search minimum {found.sure_at_tau!r} above SURE(0)")
    return problems


class ApiWorkload:
    """The README quick start, one observation at a time."""

    name = "api-calls"

    def __init__(self):
        self.ref = None
        self.ref_bounds = None

    def load_reference(self):
        with open(REFS / f"{self.name}.json") as fh:
            ref = json.load(fh)
        self.ref = {int(seed): d for seed, d in ref["seeds"].items()}
        self.ref_bounds = ref["theorem1_bounds"]

    @staticmethod
    def namespace(blindsnr, tracer=None):
        """The called names; the traced run wraps them here, at the caller."""
        fns = {"from_complex": blindsnr.ComplexVector.from_complex,
               "estimate_noise_power": blindsnr.estimate_noise_power,
               "blind_report": blindsnr.blind_report,
               "search_threshold": blindsnr.search_threshold,
               "theorem1_bounds": blindsnr.theorem1_bounds}
        if tracer is not None:
            from tracer import API_NAMES
            fns = {k: tracer.wrap(API_NAMES[k], f) for k, f in fns.items()}
        return types.SimpleNamespace(**fns)

    @staticmethod
    def model_params(blindsnr) -> list:
        return [blindsnr.BcgParams(dim=SMALL_DIM, activity_rate=p,
                                   active_power=10.0 ** (snr_db / 10.0) * BANK_N0 / p,
                                   noise_power=BANK_N0)
                for p, snr_db in MODEL_POINTS]

    @staticmethod
    def one_pass(ns, bank, params):
        """Every timed call on one bank.

        Returns (outputs, times): one output and one list of call durations
        per observation, then per model point. The output of a call that
        raises is its error.
        """
        outputs, times = [], []
        for arr in bank:
            done = []
            start = process_time()
            try:
                y = ns.from_complex(arr)
                start = _lap(done, start)
                est = ns.estimate_noise_power(y)
                start = _lap(done, start)
                rep = ns.blind_report(y)
                start = _lap(done, start)
                found = ns.search_threshold(y, BANK_N0)
                _lap(done, start)
                outputs.append((y, est, rep, found))
            except Exception as exc:  # a raised error is a failed operation
                _lap(done, start)
                outputs.append(exc)
            times.append(done)
        for prm in params:
            t0 = process_time()
            try:
                outputs.append(ns.theorem1_bounds(prm))
            except Exception as exc:  # a raised error is a failed operation
                outputs.append(exc)
            times.append([process_time() - t0])
        return outputs, times

    def check_pass(self, seed, index, bank, outputs, gate):
        """Per-item pass flags and comparable output keys for one bank."""
        reference = self.ref.get(seed) if index == 0 else None
        oks, keys = [], []
        for i, (arr, out) in enumerate(zip(bank, outputs)):
            if isinstance(out, Exception):
                problems, key = _raised(out), repr(out)
            else:
                problems = observation_invariants(arr, *out)
                key = observation_digests(*out[1:])
                if reference is not None:
                    problems += [f"{c} differs from the reference"
                                 for c, a, b in zip(ESTIMATING_CALLS, key.split(","),
                                                    reference[i].split(","))
                                 if a != b]
            oks.append(gate.record(f"{self.name} bank [{seed}, {index}] "
                                   f"observation {i}", problems))
            keys.append(key)
        for (p, snr_db), out in zip(MODEL_POINTS, outputs[len(bank):]):
            if isinstance(out, Exception):
                problems, key = _raised(out), repr(out)
            else:
                key = bounds_values(out)
                problems = []
                if key != self.ref_bounds[f"{p}|{snr_db}"]:
                    problems.append(f"{key} differs from the reference")
                if not out.lower_bound_n0 - 1e-10 <= BANK_N0 <= out.upper_bound_n0 + 1e-10:
                    problems.append("certificate does not bracket n0")
            oks.append(gate.record(f"theorem1_bounds p={p} snr_db={snr_db}", problems))
            keys.append(key)
        return oks, keys

    def setup_call(self, blindsnr, work: Path):
        y = blindsnr.ComplexVector.from_complex(draw_bank(0, 0)[0])
        blindsnr.estimate_noise_power(y)
        blindsnr.blind_report(y)
        blindsnr.search_threshold(y, BANK_N0)
        blindsnr.theorem1_bounds(self.model_params(blindsnr)[0])

    def reference_checks(self, blindsnr, work: Path, gate: Gate):
        ns = self.namespace(blindsnr)
        params = self.model_params(blindsnr)
        for seed in REFERENCE_SEEDS:
            bank = draw_bank(seed, 0)
            self.check_pass(seed, 0, bank, self.one_pass(ns, bank, params)[0], gate)

    def timed(self, blindsnr, seed, seconds, work, gate, notes):
        ns = self.namespace(blindsnr)
        params = self.model_params(blindsnr)
        windows = Windows()
        deadline = perf_counter() + seconds
        k = 0
        while k == 0 or perf_counter() < deadline:
            bank = draw_bank(seed, k)
            outputs, times = self.one_pass(ns, bank, params)
            oks, _ = self.check_pass(seed, k, bank, outputs, gate)
            for i, (ok, done) in enumerate(zip(oks, times)):
                windows.add(1 if i < len(bank) else 0, done, ok)
            k += 1
        unreferenced = k - (seed in self.ref)
        if unreferenced:
            notes.append(f"{unreferenced} of {k} timed banks have no "
                         f"reference: invariant checks only (entry values kept, "
                         f"finite values, equal noise estimates across calls, "
                         f"threshold range, search minimum <= SURE(0))")
        return windows.metrics()

    def trace_size(self, seconds: float) -> int:
        return max(1, round(seconds))

    def fixed_pass(self, blindsnr, seed, n, work, gate, tracer=None):
        """n checked banks; returns (seconds in the call loops, output keys)."""
        ns = self.namespace(blindsnr, tracer)
        params = self.model_params(blindsnr)
        spent = 0.0
        keys = []
        for k in range(n):
            bank = draw_bank(seed, k)
            start = process_time()
            outputs, _ = self.one_pass(ns, bank, params)
            spent += process_time() - start
            keys.append(self.check_pass(seed, k, bank, outputs, gate)[1])
        return spent, keys


WORKLOADS = {w.name: w for w in (SWEEP_SNR, CHANNEL_BER, ApiWorkload())}


# ------------------------------------------------------------------- modes

def provenance() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def run_timed(wl, blindsnr, seed, seconds, work):
    gate, notes = Gate(), []
    wl.reference_checks(blindsnr, work, gate)
    metrics = wl.timed(blindsnr, seed, seconds, work, gate, notes)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return gate, notes, metrics


def run_traced(wl, blindsnr, seed, seconds, work):
    """Untraced and traced passes over the same fixed work, interleaved."""
    from tracer import Tracer, layer_metrics

    gate, notes = Gate(), []
    # exact reference checks; they also warm the process up before timing
    wl.reference_checks(blindsnr, work, gate)
    n = wl.trace_size(seconds)
    spent = {"plain": 0.0, "traced": 0.0}
    outputs, tracers = [], []
    for _ in range(2):
        cpu_s, out = wl.fixed_pass(blindsnr, seed, n, work, gate)
        spent["plain"] += cpu_s
        outputs.append(out)
        with Tracer() as tracer:
            cpu_s, out = wl.fixed_pass(blindsnr, seed, n, work, gate, tracer)
        spent["traced"] += cpu_s
        outputs.append(out)
        tracers.append(tracer)
    for k in range(n):
        same = all(out[k] == outputs[0][k] for out in outputs[1:])
        gate.record(f"traced output {k} equals the untraced output",
                    [] if same else ["traced and untraced outputs differ"])
    gate.record("exact counts repeat across traced passes",
                [] if tracers[0].counts == tracers[1].counts
                else [f"{tracers[0].counts} != {tracers[1].counts}"])
    if tracers[0].missing:
        notes.append(f"names not found, so not traced: {tracers[0].missing}")
    metrics = layer_metrics(tracers, spent["traced"])
    shares = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_share"))
    gate.record("layer self shares account for the traced time",
                [] if abs(shares - 1.0) < 1e-9 else [f"shares sum to {shares!r}"])
    metrics["trace.overhead"] = (spent["traced"] / spent["plain"], "ratio")
    return gate, notes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--setup", choices=sorted(WORKLOADS))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    blindsnr = import_blindsnr()
    if args.setup:
        WORKLOADS[args.setup].setup_call(blindsnr, args.work)
        print("ready", flush=True)
        return 0

    wl = WORKLOADS[args.workload]
    wl.load_reference()
    mode = run_traced if args.trace else run_timed
    gate, notes, metrics = mode(wl, blindsnr, args.seed, args.seconds, args.work)
    result = {"attempted": gate.attempted, "failed": gate.failed,
              "problems": gate.problems, "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "provenance": provenance()}
    with open(args.work / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
