"""Outside-in tracer: wraps library names in the namespaces of their callers.

Nothing under ``src/`` changes. Each wrapped name records, per
``<layer>.<fn>``, its call count and its self time (span minus the spans
of wrapped calls made inside it). Exact counts are read from the objects
the wrapped calls return. Times are CPU time of the process
(``process_time``), the clock the timed calls use. Aggregates stay in
memory; the caller reads them after the traced pass.
"""

from __future__ import annotations

import functools
import importlib
from time import process_time

LAYERS = ("core", "selection", "estimators", "sure", "em", "theory",
          "channel", "cli")

# The functions reported per layer, as <layer>.<fn>.
REPORTED = (
    "core.sample_bcg", "core.sample_noise", "core.add",
    "selection.sample_median",
    "estimators.estimate_noise_power", "estimators.estimate_signal_power",
    "estimators.estimate_snr", "estimators.estimate_mse",
    "estimators.genie_estimates",
    "sure.blind_report", "sure.denoise_blind", "sure.search_threshold",
    "sure.soft_threshold",
    "em.em_fit", "em.em_default_init",
    "theory.theorem1_bounds",
    "channel.gen_los_channel", "channel.beamspace",
    "channel.inverse_beamspace", "channel.qam16_modulate",
    "channel.qam16_demodulate", "channel.run_ber",
    "cli.write_csv",
)

# (caller module, attribute, traced name). A name is wrapped where it is
# looked up, so a call from inside the same module is seen too.
MODULE_PATCHES = (
    ("blindsnr.cli", "sample_bcg", "core.sample_bcg"),
    ("blindsnr.cli", "sample_noise", "core.sample_noise"),
    ("blindsnr.cli", "add", "core.add"),
    ("blindsnr.cli", "blind_report", "sure.blind_report"),
    ("blindsnr.cli", "search_threshold", "sure.search_threshold"),
    ("blindsnr.cli", "genie_estimates", "estimators.genie_estimates"),
    ("blindsnr.cli", "em_fit", "em.em_fit"),
    ("blindsnr.cli", "em_default_init", "em.em_default_init"),
    ("blindsnr.cli", "theorem1_bounds", "theory.theorem1_bounds"),
    ("blindsnr.cli", "run_ber", "channel.run_ber"),
    ("blindsnr.cli", "write_csv", "cli.write_csv"),
    ("blindsnr.channel", "gen_los_channel", "channel.gen_los_channel"),
    ("blindsnr.channel", "beamspace", "channel.beamspace"),
    ("blindsnr.channel", "inverse_beamspace", "channel.inverse_beamspace"),
    ("blindsnr.channel", "qam16_modulate", "channel.qam16_modulate"),
    ("blindsnr.channel", "qam16_demodulate", "channel.qam16_demodulate"),
    ("blindsnr.channel", "search_threshold", "sure.search_threshold"),
    ("blindsnr.channel", "soft_threshold", "sure.soft_threshold"),
    ("blindsnr.channel", "denoise_blind", "sure.denoise_blind"),
    ("blindsnr.channel", "em_fit", "em.em_fit"),
    ("blindsnr.channel", "em_default_init", "em.em_default_init"),
    ("blindsnr.sure", "denoise_blind", "sure.denoise_blind"),
    ("blindsnr.sure", "soft_threshold", "sure.soft_threshold"),
    ("blindsnr.sure", "estimate_signal_power", "estimators.estimate_signal_power"),
    ("blindsnr.sure", "estimate_snr", "estimators.estimate_snr"),
    ("blindsnr.sure", "estimate_mse", "estimators.estimate_mse"),
    ("blindsnr.estimators", "sample_median", "selection.sample_median"),
    ("blindsnr.em", "sample_median", "selection.sample_median"),
)

# Traced names of the benchmark's own quick-start calls (api-calls). The
# entry validation has no reported metric; its time counts to core.
API_NAMES = {
    "from_complex": "core.from_complex",
    "estimate_noise_power": "estimators.estimate_noise_power",
    "blind_report": "sure.blind_report",
    "search_threshold": "sure.search_threshold",
    "theorem1_bounds": "theory.theorem1_bounds",
}

COUNT_KEYS = ("em.fits", "em.iterations", "em.collapsed", "em.op_estimate",
              "em.capped", "selection.comparisons", "selection.elements",
              "sure.searches", "sure.candidates", "channel.bit_errors")


def _count_em_fit(counts, result, args):
    counts["em.fits"] += 1
    counts["em.iterations"] += result.iterations
    counts["em.op_estimate"] += result.op_estimate
    # a collapse freezes the weight at exactly 0 or 1
    counts["em.collapsed"] += result.params.weight_active in (0.0, 1.0)
    counts["em.capped"] += not result.converged


def _count_median(counts, result, args):
    counts["selection.comparisons"] += result.ops.comparisons
    counts["selection.elements"] += len(args[0])


def _count_search(counts, result, args):
    counts["sure.searches"] += 1
    counts["sure.candidates"] += result.candidates_evaluated


def _count_denoise(counts, result, args):
    _count_search(counts, result[1], args)


def _count_ber(counts, result, args):
    counts["channel.bit_errors"] += result["bit_errors"]


HOOKS = {
    "em.em_fit": _count_em_fit,
    "selection.sample_median": _count_median,
    "sure.search_threshold": _count_search,
    "sure.denoise_blind": _count_denoise,
    "channel.run_ber": _count_ber,
}


class Tracer:
    """Per-name call counts and self times, plus exact counts from results."""

    def __init__(self):
        self.stats = {}                 # traced name -> [calls, self seconds]
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self._stack = [0.0]             # child span time of each open span
        self._saved = []
        self.missing = []

    @property
    def spanned(self) -> float:
        """Total time inside top-level wrapped spans."""
        return self._stack[0]

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        hook = HOOKS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = process_time() - start
                stats[0] += 1
                stats[1] += span - stack.pop()
                stack[-1] += span
            if hook is not None:
                hook(counts, result, args)
            return result

        return traced

    def __enter__(self):
        for module_name, attr, name in MODULE_PATCHES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def layer_metrics(tracers, total: float) -> dict:
    """Per-layer metrics over identical traced passes taking ``total``
    seconds of CPU time.

    Counts are per pass; times and shares pool every pass.
    """
    passes = len(tracers)
    stats = {}
    for tr in tracers:
        for name, (calls, self_s) in tr.stats.items():
            acc = stats.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
    out = {}
    for name in REPORTED:
        calls, self_s = stats.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls // passes, "count")
        out[f"{name}.us_per_call"] = (self_s / calls * 1e6 if calls else 0.0, "us")
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, self_s) in stats.items():
        layer_self[name.split(".", 1)[0]] += self_s
    # cli also owns everything outside the wrapped spans
    layer_self["cli"] += total - sum(tr.spanned for tr in tracers)
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (layer_self[layer] / total, "fraction")
    c = tracers[0].counts
    out["em.iterations"] = (c["em.iterations"], "count")
    out["em.collapsed"] = (c["em.collapsed"], "count")
    out["em.op_estimate"] = (c["em.op_estimate"], "count")
    out["em.capped_frac"] = (
        c["em.capped"] / c["em.fits"] if c["em.fits"] else 0.0, "fraction")
    out["selection.comparisons_per_elem"] = (
        c["selection.comparisons"] / c["selection.elements"]
        if c["selection.elements"] else 0.0, "cmp/elem")
    out["sure.candidates_per_search"] = (
        c["sure.candidates"] / c["sure.searches"]
        if c["sure.searches"] else 0.0, "cand/search")
    out["channel.bit_errors"] = (c["channel.bit_errors"], "count")
    return out
