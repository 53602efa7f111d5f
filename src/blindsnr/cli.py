"""Experiment harness: reproducible sweeps written as flat CSV tables.

Each experiment emits long-format rows with a fixed, versioned column set

    experiment_version, experiment, snr_db, p, dim, trials,
    family, quantity, mean, stddev, truth, extra

where ``extra`` is a compact JSON object for free-form per-row fields
(pre-clip means, degenerate-statistics warnings, certificate flags, the
channel-noise level). SNR is configured in dB; all statistics are
computed and stored in linear units (dB conversions, where useful, ride
along inside ``extra``).

Per-trial randomness uses stream id = trial index, and aggregation runs
in trial order, so a given config always produces byte-identical output.

Exit codes: 0 success, 1 I/O error, 2 invalid configuration, 3 summary
assertion failure (with ``--summary``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import VARIANTS, ChannelConfig, ber_by_variant, mse_by_variant
from .core import BcgParams, RngStream, abs_squared, add, sample_bcg, sample_noise
from .em import em_default_init, em_fit
from .estimators import genie_estimates
from .sure import DenoiserFunction, blind_report, search_threshold
from .theory import theorem1_bounds

EXPERIMENTS = ("sweep_snr", "sweep_p", "sweep_dim", "bounds_grid",
               "channel_mse", "channel_ber")
ESTIMATOR_FAMILIES = ("blind", "em", "genie")
SCHEMA_VERSION = "1"
CSV_COLUMNS = ("experiment_version", "experiment", "snr_db", "p", "dim",
               "trials", "family", "quantity", "mean", "stddev", "truth",
               "extra")


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class SweepConfig:
    experiment: str
    trials: int = 10000
    dim: int = 64
    activity_rate: float = 0.1
    n0: float = 1.0
    snr_points_db: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    seed: int = 0
    estimators: tuple = ESTIMATOR_FAMILIES
    output_path: str = "results.csv"
    p_points: tuple = ()        # sweep_p and bounds_grid x-axis
    dim_points: tuple = ()      # sweep_dim x-axis
    users: int = 8
    paths_per_user: int = 2
    summary: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.dim < 1:
            raise ConfigError("dim must be at least 1")
        if not 0.0 < self.activity_rate <= 1.0:
            raise ConfigError("p must lie in (0, 1]")
        if not self.n0 > 0.0:
            raise ConfigError("n0 must be positive")
        if len(self.snr_points_db) == 0:
            raise ConfigError("snr-db list must be non-empty")
        bad = set(self.estimators) - set(ESTIMATOR_FAMILIES)
        if bad:
            raise ConfigError(f"unknown estimator families: {sorted(bad)}")
        if self.experiment == "sweep_p" and not self.p_points:
            raise ConfigError("sweep_p needs a comma list of p values (--p)")
        if self.experiment == "sweep_dim" and not self.dim_points:
            raise ConfigError("sweep_dim needs a comma list of dims (--dim)")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _extra(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) if obj else ""


def _row(cfg: SweepConfig, snr_db, p, dim, trials, family, quantity,
         mean, stddev, truth, extra=None) -> dict:
    return {
        "experiment_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "snr_db": snr_db,
        "p": p,
        "dim": dim,
        "trials": trials,
        "family": family,
        "quantity": quantity,
        "mean": mean,
        "stddev": stddev,
        "truth": truth,
        "extra": _extra(extra or {}),
    }


def _stats(values) -> tuple:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def _point_trials(cfg: SweepConfig, params: BcgParams):
    """Blind / EM / genie per-trial quantities at one model point."""
    out = {f: {q: [] for q in ("n0", "es", "snr", "mse")}
           for f in ESTIMATOR_FAMILIES}
    want_em = "em" in cfg.estimators
    want_genie = "genie" in cfg.estimators
    for t in range(cfg.trials):
        st = RngStream(cfg.seed, stream_id=t)
        s = sample_bcg(params, st)
        n = sample_noise(params.noise_power, params.dim, st)
        y = add(s, n)
        rep = blind_report(y)
        b = out["blind"]
        b["n0"].append(rep.noise.value)
        b["es"].append(rep.signal.value)
        b["snr"].append(rep.snr.value)
        b["mse"].append(rep.mse.value)
        if want_em:
            z = abs_squared(y)
            fit = em_fit(z, em_default_init(z))
            found = search_threshold(y, fit.n0_em)
            e = out["em"]
            e["n0"].append(fit.n0_em)
            e["es"].append(fit.params.weight_active
                           * (fit.params.var_large - fit.params.var_small))
            e["snr"].append(fit.snr_em)
            e["mse"].append(max(found.sure_at_tau, 0.0))
        if want_genie:
            rep_f = DenoiserFunction.soft(rep.search.tau_star)
            gen = genie_estimates(s, n, y, rep_f)
            gq = out["genie"]
            gq["n0"].append(gen.n0_bar)
            gq["es"].append(gen.es_bar)
            gq["snr"].append(gen.snr_bar)
            gq["mse"].append(gen.e0_bar)
    return out


def _estimator_rows(cfg: SweepConfig, snr_db: float, p: float, dim: int) -> list:
    snr = 10.0 ** (snr_db / 10.0)
    params = BcgParams(dim=dim, activity_rate=p,
                       active_power=snr * cfg.n0 / p, noise_power=cfg.n0)
    samples = _point_trials(cfg, params)
    truths = {"n0": params.noise_power, "es": params.signal_power,
              "snr": params.snr, "mse": None}
    rows = []
    for family in ESTIMATOR_FAMILIES:
        if family not in cfg.estimators:
            continue
        for quantity in ("n0", "es", "snr", "mse"):
            mean, std = _stats(samples[family][quantity])
            extra = {}
            if cfg.trials == 1:
                extra["degenerate_stddev"] = True
            rows.append(_row(cfg, snr_db, p, dim, cfg.trials, family,
                             quantity, mean, std, truths[quantity], extra))
    return rows


def run_sweep_snr(cfg: SweepConfig) -> list:
    """Estimator accuracy vs SNR at fixed (p, dim, n0)."""
    rows = []
    for snr_db in cfg.snr_points_db:
        rows.extend(_estimator_rows(cfg, float(snr_db), cfg.activity_rate, cfg.dim))
    return rows


def run_sweep_p(cfg: SweepConfig) -> list:
    """Estimator accuracy vs activity rate at the first configured SNR."""
    snr_db = float(cfg.snr_points_db[0])
    rows = []
    for p in cfg.p_points:
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"p={p} outside (0, 1]")
        rows.extend(_estimator_rows(cfg, snr_db, float(p), cfg.dim))
    return rows


def run_sweep_dim(cfg: SweepConfig) -> list:
    """Estimator accuracy vs dimension at the first configured SNR."""
    snr_db = float(cfg.snr_points_db[0])
    rows = []
    for dim in cfg.dim_points:
        if dim < 1:
            raise ConfigError(f"dim={dim} must be positive")
        rows.extend(_estimator_rows(cfg, snr_db, cfg.activity_rate, int(dim)))
    return rows


def run_bounds_grid(cfg: SweepConfig) -> list:
    """Exact power median, its noise-power certificate, and the empirical
    blind estimate on a (p, SNR) grid."""
    p_points = cfg.p_points or (cfg.activity_rate,)
    rows = []
    for p in p_points:
        for snr_db in cfg.snr_points_db:
            snr = 10.0 ** (float(snr_db) / 10.0)
            params = BcgParams(dim=cfg.dim, activity_rate=float(p),
                               active_power=snr * cfg.n0 / float(p),
                               noise_power=cfg.n0)
            chk = theorem1_bounds(params)
            ok = chk.condition_p_ok
            violation = bool(ok and not
                             (chk.lower_bound_n0 - 1e-10 <= cfg.n0
                              <= chk.upper_bound_n0 + 1e-10))
            flags = {"condition_p_ok": ok, "violation": violation}
            n0_hats = []
            for t in range(cfg.trials):
                st = RngStream(cfg.seed, stream_id=t)
                y = add(sample_bcg(params, st),
                        sample_noise(cfg.n0, cfg.dim, st))
                n0_hats.append(blind_report(y).noise.value)
            mean_hat, std_hat = _stats(n0_hats)
            rows.append(_row(cfg, snr_db, p, cfg.dim, cfg.trials, "bounds",
                             "median_exact", chk.median_exact, 0.0, None, flags))
            rows.append(_row(cfg, snr_db, p, cfg.dim, cfg.trials, "bounds",
                             "lower_bound_n0",
                             chk.lower_bound_n0 if ok else None, 0.0,
                             cfg.n0, flags))
            rows.append(_row(cfg, snr_db, p, cfg.dim, cfg.trials, "bounds",
                             "upper_bound_n0",
                             chk.upper_bound_n0 if ok else None, 0.0,
                             cfg.n0, flags))
            rows.append(_row(cfg, snr_db, p, cfg.dim, cfg.trials, "bounds",
                             "n0_hat_mean", mean_hat, std_hat, cfg.n0, flags))
    return rows


def run_channel(cfg: SweepConfig) -> list:
    """Channel MSE or uncoded BER for every denoising variant per SNR point."""
    try:
        chan = ChannelConfig(antennas=cfg.dim, users=cfg.users,
                             paths_per_user=cfg.paths_per_user)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    base = RngStream(cfg.seed, stream_id=0)
    rows = []
    for snr_db in cfg.snr_points_db:
        if cfg.experiment == "channel_mse":
            results = mse_by_variant(chan, VARIANTS, float(snr_db), cfg.trials, base)
            for variant, res in results.items():
                mse = res["channel_mse"]
                extra = {
                    "mse_db": 10.0 * math.log10(mse) if mse > 0 else None,
                    "n0": res["n0_true"],
                    "n0_est_mean": res["n0_mean"],
                }
                rows.append(_row(cfg, snr_db, None, chan.antennas, cfg.trials,
                                 variant, "channel_mse", mse, 0.0,
                                 0.0 if variant == "perfect_csi" else None,
                                 extra))
        else:
            results = ber_by_variant(chan, VARIANTS, float(snr_db), cfg.trials, base)
            for variant, res in results.items():
                extra = {"bits": res["bits"], "bit_errors": res["bit_errors"]}
                rows.append(_row(cfg, snr_db, None, chan.antennas, cfg.trials,
                                 variant, "ber", res["ber"], 0.0, None, extra))
    return rows


_DISPATCH = {
    "sweep_snr": run_sweep_snr,
    "sweep_p": run_sweep_p,
    "sweep_dim": run_sweep_dim,
    "bounds_grid": run_bounds_grid,
    "channel_mse": run_channel,
    "channel_ber": run_channel,
}


def write_csv(rows: list, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            rendered = []
            for col in CSV_COLUMNS:
                cell = _fmt(row[col])
                if "," in cell or '"' in cell:
                    cell = '"' + cell.replace('"', '""') + '"'
                rendered.append(cell)
            fh.write(",".join(rendered) + "\n")


def _summary_assertions(cfg: SweepConfig, rows: list) -> list:
    checks = []

    def by(family=None, quantity=None):
        return [r for r in rows
                if (family is None or r["family"] == family)
                and (quantity is None or r["quantity"] == quantity)]

    if cfg.experiment in ("sweep_snr", "sweep_p", "sweep_dim"):
        stds = [r["stddev"] for r in rows]
        checks.append(("stddev_finite", all(math.isfinite(s) and s >= 0 for s in stds)))
        clipped = [r["mean"] for r in rows if r["family"] in ("blind", "em")]
        checks.append(("clipped_nonnegative", all(m >= 0 for m in clipped)))
    elif cfg.experiment == "bounds_grid":
        bad = [r for r in rows if "\"violation\":true" in r["extra"]]
        checks.append(("sandwich_holds", not bad))
    elif cfg.experiment == "channel_mse":
        perfect = by("perfect_csi", "channel_mse")
        checks.append(("perfect_csi_zero", all(r["mean"] == 0.0 for r in perfect)))
        ml = {r["snr_db"]: r["mean"] for r in by("ml", "channel_mse")}
        known = {r["snr_db"]: r["mean"] for r in by("beaches_known_n0", "channel_mse")}
        checks.append(("denoiser_not_worse_than_ml",
                       all(known[s] <= ml[s] * 1.05 for s in known)))
    elif cfg.experiment == "channel_ber":
        bers = [r["mean"] for r in rows]
        checks.append(("ber_in_unit_interval", all(0.0 <= b <= 1.0 for b in bers)))
        ml = {r["snr_db"]: r["mean"] for r in by("ml", "ber")}
        perfect = {r["snr_db"]: r["mean"] for r in by("perfect_csi", "ber")}
        bits = cfg.trials * 4 * cfg.users
        slack = 3.0 * max((math.sqrt(b * (1 - b) / bits) for b in ml.values()),
                          default=0.0) + 5.0 / bits
        checks.append(("perfect_csi_not_worse_than_ml",
                       all(perfect[s] <= ml[s] + slack for s in perfect)))
    return [{"name": name, "passed": bool(ok)} for name, ok in checks]


def _parse_number_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc


_SUBCOMMANDS = {
    "sweep-snr": "sweep_snr",
    "sweep-p": "sweep_p",
    "sweep-dim": "sweep_dim",
    "bounds": "bounds_grid",
    "channel-mse": "channel_mse",
    "channel-ber": "channel_ber",
}


def _read_config_file(path: str) -> dict:
    settings = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                settings[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return settings


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindsnr",
        description="Monte-Carlo experiments for the blind estimators, "
                    "the adaptive denoiser, and the channel application.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--trials", type=int)
        cmd.add_argument("--dim", type=str, help="dimension (comma list for sweep-dim)")
        cmd.add_argument("--p", type=str, help="activity rate (comma list for sweep-p/bounds)")
        cmd.add_argument("--n0", type=float)
        cmd.add_argument("--snr-db", type=str, help="comma list of SNR points in dB")
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--out", type=str)
        cmd.add_argument("--estimators", type=str,
                         help="comma subset of blind,em,genie")
        cmd.add_argument("--users", type=int)
        cmd.add_argument("--paths", type=int)
        cmd.add_argument("--summary", action="store_true", default=None)
        cmd.add_argument("--config", type=str)
    return parser


def _build_config(args: argparse.Namespace) -> SweepConfig:
    settings: dict = {}
    if args.config:
        settings.update(_read_config_file(args.config))
    flag_map = {
        "trials": args.trials, "dim": args.dim, "p": args.p, "n0": args.n0,
        "snr_db": getattr(args, "snr_db"), "seed": args.seed, "out": args.out,
        "estimators": args.estimators, "users": args.users,
        "paths": args.paths, "summary": args.summary,
    }
    for key, value in flag_map.items():
        if value is not None:
            settings[key] = value

    kwargs = {"experiment": _SUBCOMMANDS[args.command]}
    if kwargs["experiment"].startswith("channel") and "dim" not in settings:
        kwargs["dim"] = 128  # antenna count; estimator sweeps default to 64
    try:
        if "trials" in settings:
            kwargs["trials"] = int(settings["trials"])
        if "dim" in settings:
            dims = _parse_number_list(str(settings["dim"]))
            kwargs["dim"] = int(dims[0])
            kwargs["dim_points"] = tuple(int(d) for d in dims)
        if "p" in settings:
            ps = _parse_number_list(str(settings["p"]))
            kwargs["activity_rate"] = ps[0]
            kwargs["p_points"] = ps
        if "n0" in settings:
            kwargs["n0"] = float(settings["n0"])
        if "snr_db" in settings:
            kwargs["snr_points_db"] = _parse_number_list(str(settings["snr_db"]))
        if "seed" in settings:
            kwargs["seed"] = int(settings["seed"])
        if "out" in settings:
            kwargs["output_path"] = str(settings["out"])
        if "estimators" in settings:
            kwargs["estimators"] = tuple(
                e.strip() for e in str(settings["estimators"]).split(",") if e.strip())
        if "users" in settings:
            kwargs["users"] = int(settings["users"])
        if "paths" in settings:
            kwargs["paths_per_user"] = int(settings["paths"])
        if "summary" in settings:
            val = settings["summary"]
            kwargs["summary"] = val if isinstance(val, bool) else \
                str(val).lower() in ("1", "true", "yes")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return SweepConfig(**kwargs)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _build_config(args)
        rows = _DISPATCH[cfg.experiment](cfg)
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        write_csv(rows, cfg.output_path)
    except OSError as exc:
        print(f"error: cannot write {cfg.output_path}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {cfg.output_path}")

    if cfg.summary:
        assertions = _summary_assertions(cfg, rows)
        all_passed = all(a["passed"] for a in assertions)
        doc = {
            "experiment": cfg.experiment,
            "output_path": cfg.output_path,
            "assertions": assertions,
            "all_passed": all_passed,
        }
        summary_path = cfg.output_path + ".summary.json"
        try:
            with open(summary_path, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {summary_path}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote summary to {summary_path}")
        if not all_passed:
            failed = [a["name"] for a in assertions if not a["passed"]]
            print(f"summary assertions failed: {failed}", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
