"""Experiment harness: reproducible sweeps written as flat CSV tables.

Each experiment returns long-format rows, ``Row`` namedtuples with a
fixed, versioned column set

    experiment_version, experiment, snr_db, p, dim, trials,
    family, quantity, mean, stddev, truth, extra

where ``extra`` is a compact JSON object for free-form per-row fields
(degenerate-statistics warnings, certificate flags, the channel-noise
level and its mean estimate, bit counts). SNR is configured in dB; all
statistics are computed and stored in linear units (dB conversions,
where useful, ride along inside ``extra``). A Monte-Carlo row's ``mean``
and ``stddev`` (ddof 1) reduce one (points, families or variants,
quantities, trials) table of per-trial values; the BER mean is the error
total over all bits sent.

Per-trial randomness uses stream id = trial index, and aggregation runs
in trial order, so a given config always produces byte-identical output.
The estimator sweeps draw each trial once per dim: every model point of
that dim (each SNR, p and n0) scales the same draws, exactly as if it had
drawn them from the trial's stream itself, and all points are evaluated
together on blocks of at most 2^18 entries. The channel experiments
likewise draw each trial once per run and evaluate every SNR point on
the same draws, in one call per run.

Every setting is read from one table, ``_SETTINGS``, into one
``SweepConfig`` field, and one table, ``_SUBCOMMANDS``, gives each
subcommand its experiment, its runner and the settings the runner reads:
a subcommand offers only those flags (spelled in full) and config-file
keys, and ``SweepConfig`` rejects any other field off its default. A
``--config`` file holds ``key=value`` lines whose keys are the flag
names (``snr_db`` for ``--snr-db``), flags override the file, and file
and flag values go through the same parser. ``--dim``, ``--p`` and
``--snr-db`` hold one value, or a swept axis where the table marks them
as a list; ``SweepConfig.dim`` (default 64, or ``ChannelConfig``'s
antennas) and ``activity_rate`` (default 0.1) read their first entry,
and ``points`` lists the (snr_db, p) pairs a run evaluates: every SNR
where ``--snr-db`` is a list, else the first, so sweep-p and sweep-dim
run -10 dB, the first of the default list. ``SweepConfig`` range-checks
the values, the linear SNR and powers at each point the run evaluates,
and the channel's shape (antennas, users, paths) through ``ChannelConfig``.

Exit codes: 0 success, 1 I/O error writing the CSV or summary, 2 invalid
configuration (an unreadable config file, an unknown key, a flag or key
that the subcommand does not read, a comma list for a setting it reads
as one value, or a value that does not parse or is out of range) or a
run in which an estimate or a channel value overflows, which writes no
CSV, 3 summary assertion failure (``--summary``).
"""

from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import VARIANTS, ChannelConfig, noise_power, trial_table
from .core import BcgParams, RngStream, bcg_rows, draw_trials, trial_blocks
from .em import _fit_rows, _init_rows
from .estimators import genie_rows
from .sure import BlindRows, _search_sorted, blind_rows
from .theory import SANDWICH_TOL, theorem1_bounds

ESTIMATOR_FAMILIES = ("blind", "em", "genie")
SCHEMA_VERSION = "3"
CSV_COLUMNS = ("experiment_version", "experiment", "snr_db", "p", "dim",
               "trials", "family", "quantity", "mean", "stddev", "truth",
               "extra")
Row = collections.namedtuple("Row", CSV_COLUMNS)


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class SweepConfig:
    experiment: str
    trials: int = 10000
    n0: float = 1.0
    snr_points_db: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    seed: int = 0
    estimators: tuple = ESTIMATOR_FAMILIES
    output_path: str = "results.csv"
    p_points: tuple = ()        # --p: one value, or a swept axis
    dim_points: tuple = ()      # --dim: one value, or a swept axis
    users: int = ChannelConfig.users
    paths_per_user: int = ChannelConfig.paths_per_user
    summary: bool = False

    def __post_init__(self):
        sub = _EXPERIMENTS.get(self.experiment)
        if sub is None:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        defaults = {f.name: f.default for f in dataclasses.fields(self)}
        unread = [key for key, (_, field, _) in _SETTINGS.items()
                  if key not in sub.reads and getattr(self, field) != defaults[field]]
        if unread:
            raise ConfigError(f"{self.experiment} does not read {', '.join(unread)}")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        for p in self.p_points:
            if not 0.0 < p <= 1.0:
                raise ConfigError(f"p={p} outside (0, 1]")
        if not 0.0 < self.n0 < math.inf:
            raise ConfigError("n0 must be positive and finite")
        if len(self.snr_points_db) == 0:
            raise ConfigError("snr-db list must be non-empty")
        if not all(map(math.isfinite, self.snr_points_db)):
            raise ConfigError("snr-db points must be finite")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not self.estimators:
            raise ConfigError("estimators must name at least one family")
        bad = set(self.estimators) - set(ESTIMATOR_FAMILIES)
        if bad:
            raise ConfigError(f"unknown estimator families: {sorted(bad)}")
        if self.experiment == "sweep_p" and not self.p_points:
            raise ConfigError("sweep_p needs a comma list of p values (--p)")
        if self.experiment == "sweep_dim" and not self.dim_points:
            raise ConfigError("sweep_dim needs a comma list of dims (--dim)")
        for key in sub.reads:  # a setting one run reads as a list is one value elsewhere
            listed = [name for name, other in _SUBCOMMANDS.items() if key in other.lists]
            field = _SETTINGS[key][1]
            values = getattr(self, field)
            if listed and key not in sub.lists and values != defaults[field] \
                    and len(values) > 1:
                names = ", ".join(listed[:-1]) + " and " if len(listed) > 1 else ""
                raise ConfigError(f"{key} is a comma list only for {names}{listed[-1]}")
        dims = self.dim_points or (self.dim,)
        if min(dims) < 1:
            raise ConfigError(f"dim={min(dims)} must be positive")
        if "estimators" in sub.reads and "em" in self.estimators and min(dims) < 2:
            raise ConfigError("the em family needs dim >= 2; at dim 1 use "
                              "--estimators blind,genie")
        if self.experiment.startswith("channel") and self.dim < 2:
            raise ConfigError("the channel experiments run beaches_em, which needs "
                              "dim >= 2 antennas")
        chan = self.channel if self.experiment.startswith("channel") else None
        for snr_db, p in self.points:  # the channel has one p: once per SNR point
            try:
                if chan:
                    noise_power(chan, snr_db, self.experiment[len("channel_"):])
                else:
                    _model_point(self, snr_db, p, max(dims))
            except OverflowError as exc:
                raise ConfigError(f"snr_db={snr_db} overflows the linear SNR") from exc
            except ValueError as exc:
                raise ConfigError(f"snr_db={snr_db}: {exc}") from exc

    @property
    def dim(self) -> int:
        """The first --dim entry, else 64 (the channel's antennas for it)."""
        if self.dim_points:
            return self.dim_points[0]
        return ChannelConfig.antennas if self.experiment.startswith("channel") else 64

    @property
    def activity_rate(self) -> float:
        """The first --p entry, else 0.1."""
        return self.p_points[0] if self.p_points else 0.1

    @property
    def points(self) -> list:
        """The (snr_db, p) pairs a run evaluates at each dim, in row order:
        p outer, SNR inner; the first SNR only where --snr-db is one value."""
        one_snr = "snr_db" not in _EXPERIMENTS[self.experiment].lists
        return [(float(snr_db), float(p)) for p in self.p_points or (self.activity_rate,)
                for snr_db in (self.snr_points_db[:1] if one_snr else self.snr_points_db)]

    @functools.cached_property
    def channel(self) -> ChannelConfig:
        """The channel experiments' shape: antennas = dim, users, paths."""
        try:
            return ChannelConfig(antennas=self.dim, users=self.users,
                                 paths_per_user=self.paths_per_user)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _extra(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) if obj else ""


def _row(cfg: SweepConfig, snr_db, p, dim, family, quantity, mean, stddev,
         truth, extra) -> Row:
    return Row(SCHEMA_VERSION, cfg.experiment, snr_db, p, dim, cfg.trials,
               family, quantity, mean, stddev, truth, extra)


def _stats(table: np.ndarray):
    """Mean and sample standard deviation (0 for one trial) of each row of
    a table of per-trial values, as arrays.

    A row whose largest magnitude exceeds 2^400 is scaled by an exact power
    of two first, so its squared deviations cannot overflow; the scaling is
    undone exactly. Other rows keep the plain numpy arithmetic.
    """
    peak = np.abs(table).max(axis=-1)
    big = (peak > 2.0 ** 400) & (peak < math.inf)
    shift = np.zeros(peak.shape, dtype=int)
    shift[big] = np.frexp(peak[big])[1]
    scaled = np.ldexp(table, -shift[..., None])
    mean = np.ldexp(scaled.mean(axis=-1), shift)
    if table.shape[-1] < 2:
        return mean, np.zeros_like(mean)
    return mean, np.ldexp(scaled.std(axis=-1, ddof=1), shift)


_QUANTITIES = ("n0", "es", "snr", "mse")


def _em_columns(blind: BlindRows) -> tuple:
    """The EM family's per-row quantities, from the blind kernel's |y|^2,
    noise estimate (the EM's median seed) and sorted magnitudes."""
    fit = _fit_rows(blind.z, _init_rows(blind.z, blind.n0))
    n0 = fit.var_small
    _, sure = _search_sorted(blind.sorted_r, n0[:, None])
    es = fit.weight * (fit.var_large - n0)
    return n0, es, np.maximum(es / n0, 0.0), np.maximum(sure, 0.0)


def _trial_table(cfg: SweepConfig, points: list, families: tuple) -> np.ndarray:
    """Per-trial estimates at model points of one dim, as a
    (points, families, quantities, trials) array.

    Each block of trials is drawn once, and every point scales the same
    draws; the blind kernel, the genie sums and the EM fit then each run
    once per block on the stacked (points x trials, dim) observation rows.
    """
    dim = points[0].dim
    table = np.empty((len(points), len(families), len(_QUANTITIES), cfg.trials))
    for trials in trial_blocks(cfg.trials, len(points) * dim):
        draws = draw_trials(cfg.seed, trials, dim)
        s, n = (np.concatenate(rows)
                for rows in zip(*(bcg_rows(params, draws) for params in points)))
        blind = blind_rows(s + n)
        found = {"blind": (blind.n0, np.maximum(blind.signal, 0.0),
                           np.maximum(blind.snr, 0.0), np.maximum(blind.mse, 0.0))}
        if "em" in families:
            found["em"] = _em_columns(blind)
        if "genie" in families:
            es, n0, snr, e0 = genie_rows(s, n, blind.shrunk)
            found["genie"] = (n0, es, snr, e0)
        for f, family in enumerate(families):
            columns = np.reshape(found[family], (len(_QUANTITIES), len(points), -1))
            table[:, f, :, trials.start:trials.stop] = columns.transpose(1, 0, 2)
    return table


def _model_point(cfg: SweepConfig, snr_db: float, p: float, dim: int) -> BcgParams:
    snr = 10.0 ** (snr_db / 10.0)
    return BcgParams(dim=dim, activity_rate=p, active_power=snr * cfg.n0 / p,
                     noise_power=cfg.n0)


def _estimator_rows(cfg: SweepConfig, dim: int, points: list) -> list:
    """Rows of every estimator family at the (snr_db, p) points of one dim."""
    families = tuple(f for f in ESTIMATOR_FAMILIES if f in cfg.estimators)
    params = [_model_point(cfg, snr_db, p, dim) for snr_db, p in points]
    mean, std = _stats(_trial_table(cfg, params, families))
    extra = _extra({"degenerate_stddev": True} if cfg.trials == 1 else {})
    rows = []
    for (snr_db, p), prm, means, stds in zip(points, params, mean.tolist(), std.tolist()):
        truths = (prm.noise_power, prm.signal_power, prm.snr, None)
        for family, family_means, family_stds in zip(families, means, stds):
            for quantity, truth, m, sd in zip(_QUANTITIES, truths, family_means,
                                              family_stds):
                rows.append(_row(cfg, snr_db, p, dim, family, quantity, m, sd,
                                 truth, extra))
    return rows


def run_sweep(cfg: SweepConfig) -> list:
    """Estimator accuracy at every model point of every dim: vs SNR, p or dim."""
    rows = []
    for dim in cfg.dim_points or (cfg.dim,):
        rows.extend(_estimator_rows(cfg, int(dim), cfg.points))
    return rows


def run_bounds_grid(cfg: SweepConfig) -> list:
    """Exact power median, its noise-power certificate, and the empirical
    blind estimate on a (p, SNR) grid."""
    params = [_model_point(cfg, snr_db, p, cfg.dim) for snr_db, p in cfg.points]
    mean, std = _stats(_trial_table(cfg, params, ("blind",))[:, 0, 0])
    rows = []
    for (snr_db, p), prm, mean_hat, std_hat in zip(cfg.points, params, mean.tolist(),
                                                    std.tolist()):
        chk = theorem1_bounds(prm)
        ok = chk.condition_p_ok
        extra = _extra({"condition_p_ok": ok, "violation": ok and chk.violation > SANDWICH_TOL})
        for quantity, mean, stddev, truth in (
                ("median_exact", chk.median_exact, 0.0, None),
                ("lower_bound_n0", chk.lower_bound_n0 if ok else None, 0.0, cfg.n0),
                ("upper_bound_n0", chk.upper_bound_n0 if ok else None, 0.0, cfg.n0),
                ("n0_hat_mean", mean_hat, std_hat, cfg.n0)):
            rows.append(_row(cfg, snr_db, p, cfg.dim, "bounds", quantity, mean,
                             stddev, truth, extra))
    return rows


def run_channel(cfg: SweepConfig) -> list:
    """Channel MSE or uncoded BER of every denoising variant at each SNR
    point: the mean over trials and the spread of the per-trial values."""
    chan, metric = cfg.channel, cfg.experiment[len("channel_"):]
    table = trial_table(chan, VARIANTS, cfg.snr_points_db, cfg.trials,
                        RngStream(cfg.seed, stream_id=0), metric)
    mean, std = _stats(table)
    sent = 4 * chan.users  # bits per trial
    degenerate = {"degenerate_stddev": True} if cfg.trials == 1 else {}
    rows = []
    for snr_db, means, stds, sums in zip(cfg.snr_points_db, mean.tolist(), std.tolist(),
                                         table.sum(axis=-1).tolist()):
        for variant, m, sd, errors in zip(VARIANTS, means, stds, sums):
            if metric == "mse":
                extra = {"mse_db": 10.0 * math.log10(m[0]) if m[0] > 0 else None,
                         "n0": noise_power(chan, snr_db, metric), "n0_est_mean": m[1]}
                truth = 0.0 if variant == "perfect_csi" else None
                row = ("channel_mse", m[0], sd[0], truth)
            else:  # the BER of the exact error total; a trial's BER is its count / sent
                extra = {"bits": sent * cfg.trials, "bit_errors": int(errors[0])}
                row = ("ber", errors[0] / (sent * cfg.trials), sd[0] / sent, None)
            rows.append(_row(cfg, snr_db, None, chan.antennas, variant, *row,
                             _extra({**extra, **degenerate})))
    return rows


# Each subcommand: its experiment, its runner, the settings the runner
# reads (no other setting is accepted), and those it reads as a whole
# comma list (a setting that one subcommand lists is one value elsewhere).
_Subcommand = collections.namedtuple("_Subcommand", "experiment run reads lists")
_ESTIMATOR_SETTINGS = ("trials", "dim", "p", "n0", "snr_db", "seed", "out", "estimators",
                       "summary")
_BOUNDS_SETTINGS = ("trials", "dim", "p", "n0", "snr_db", "seed", "out", "summary")
_CHANNEL_SETTINGS = ("trials", "dim", "snr_db", "seed", "out", "users", "paths", "summary")
_SUBCOMMANDS = {
    "sweep-snr": _Subcommand("sweep_snr", run_sweep, _ESTIMATOR_SETTINGS, ("snr_db",)),
    "sweep-p": _Subcommand("sweep_p", run_sweep, _ESTIMATOR_SETTINGS, ("p",)),
    "sweep-dim": _Subcommand("sweep_dim", run_sweep, _ESTIMATOR_SETTINGS, ("dim",)),
    "bounds": _Subcommand("bounds_grid", run_bounds_grid, _BOUNDS_SETTINGS, ("p", "snr_db")),
    "channel-mse": _Subcommand("channel_mse", run_channel, _CHANNEL_SETTINGS, ("snr_db",)),
    "channel-ber": _Subcommand("channel_ber", run_channel, _CHANNEL_SETTINGS, ("snr_db",)),
}
_EXPERIMENTS = {sub.experiment: sub for sub in _SUBCOMMANDS.values()}


def write_csv(rows: list, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


def _summary_assertions(cfg: SweepConfig, rows: list) -> list:
    checks = []

    def by(variant):  # a channel variant's means, by SNR point
        return {r.snr_db: r.mean for r in rows if r.family == variant}

    if cfg.experiment in ("sweep_snr", "sweep_p", "sweep_dim"):
        stds = [r.stddev for r in rows]
        checks.append(("stddev_finite", all(math.isfinite(s) and s >= 0 for s in stds)))
        clipped = [r.mean for r in rows if r.family in ("blind", "em")]
        checks.append(("clipped_nonnegative", all(m >= 0 for m in clipped)))
    elif cfg.experiment == "bounds_grid":
        bad = [r for r in rows if "\"violation\":true" in r.extra]
        checks.append(("sandwich_holds", not bad))
    elif cfg.experiment == "channel_mse":
        perfect = by("perfect_csi")
        checks.append(("perfect_csi_zero", all(m == 0.0 for m in perfect.values())))
        ml, known = by("ml"), by("beaches_known_n0")
        checks.append(("denoiser_not_worse_than_ml",
                       all(known[s] <= ml[s] * 1.05 for s in known)))
    elif cfg.experiment == "channel_ber":
        checks.append(("ber_in_unit_interval", all(0.0 <= r.mean <= 1.0 for r in rows)))
        ml, perfect = by("ml"), by("perfect_csi")
        bits = json.loads(rows[0].extra)["bits"]
        slack = 3.0 * max((math.sqrt(b * (1 - b) / bits) for b in ml.values()),
                          default=0.0) + 5.0 / bits
        checks.append(("perfect_csi_not_worse_than_ml",
                       all(perfect[s] <= ml[s] + slack for s in perfect)))
    return [{"name": name, "passed": bool(ok)} for name, ok in checks]


def _list(item):
    return lambda text: tuple(item(v.strip()) for v in text.split(","))


def _bool(text: str) -> bool:
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("expected true or false")
    return text.lower() in ("1", "true", "yes")


# Each setting, keyed by its flag name: the parser of its text, the
# SweepConfig field it sets, and its help.
_SETTINGS = {
    "trials": (int, "trials", None),
    "dim": (_list(int), "dim_points", "dimension, or antenna count for the channel"),
    "p": (_list(float), "p_points", "activity rate"),
    "n0": (float, "n0", None),
    "snr_db": (_list(float), "snr_points_db", "SNR point in dB"),
    "seed": (int, "seed", None),
    "out": (str, "output_path", None),
    "estimators": (_list(str), "estimators", "comma subset of blind,em,genie"),
    "users": (int, "users", None),
    "paths": (int, "paths_per_user", None),
    "summary": (_bool, "summary", "also write <out>.summary.json"),
}


def _read_config_file(path: str, command: str) -> dict:
    settings = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _SETTINGS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                if key not in _SUBCOMMANDS[command].reads:
                    raise ConfigError(f"{path}:{lineno}: {command} does not read {key!r}")
                settings[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return settings


@functools.cache  # built once per process: each add_argument queries the terminal
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindsnr",
        description="Monte-Carlo experiments for the blind estimators, "
                    "the adaptive denoiser, and the channel application.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in _SUBCOMMANDS.items():
        # no abbreviations: --p must not reach --paths where p is not read
        cmd = sub.add_parser(name, allow_abbrev=False)
        for key in row.reads:
            help_text = _SETTINGS[key][2]
            if key in row.lists:
                help_text += " (a comma list sweeps it)"
            flag = "--" + key.replace("_", "-")
            if key == "summary":
                cmd.add_argument(flag, action="store_const", const="true", help=help_text)
            else:
                cmd.add_argument(flag, help=help_text)
        cmd.add_argument("--config", help="file of key=value lines; flags override it")
    return parser


def _build_config(args: argparse.Namespace) -> SweepConfig:
    sub = _SUBCOMMANDS[args.command]
    settings = _read_config_file(args.config, args.command) if args.config else {}
    settings.update((key, getattr(args, key)) for key in sub.reads
                    if getattr(args, key) is not None)
    kwargs = {"experiment": sub.experiment}
    for key, text in settings.items():
        parse, field, _ = _SETTINGS[key]
        try:
            kwargs[field] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key}={text!r}: {exc}") from exc
    return SweepConfig(**kwargs)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _build_config(args)
        rows = _SUBCOMMANDS[args.command].run(cfg)
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # an estimate or a channel value leaves the float range
        print(f"error: invalid configuration: an estimate at these powers overflows: {exc}",
              file=sys.stderr)
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
