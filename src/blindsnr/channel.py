"""Synthetic multi-antenna channel denoising and uncoded 16-QAM link simulation.

Channels are line-of-sight sums of uniform-linear-array steering vectors
with complex Gaussian path gains, normalized to unit average per-antenna
power. After the unitary DFT across antennas (the beamspace), a channel
with few paths is approximately sparse, which is exactly the structure
the blind estimators and the adaptive soft-threshold denoiser rely on.

Two experiments evaluate a tuple of denoising variants:

* channel MSE of the denoised beamspace vector, with the observation
  noise set by ``n0 = 1 / snr`` (unit average beamspace entry power);
* uncoded 16-QAM bit error rate under LMMSE detection, where a single
  SNR knob fixes ``n0 = users / snr`` used both for the per-user channel
  observations and for the per-antenna data noise (so the per-antenna
  receive SNR of the data equals the configured value).

Each trial is drawn once from its own substream, in trial order: the
channels, their beamspace and the observation noise (and, for the BER,
the data bits and data noise) are shared by every variant evaluated on
it. Each variant is evaluated once per trial, on the whole (users,
antennas) observation block, through the row kernels of
:mod:`blindsnr.sure` and :mod:`blindsnr.em`. The estimators use no
randomness, so a variant's result does not depend on which other
variants run beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, abs_squared
from .em import em_fit_rows, em_init_rows
from .sure import denoise_blind_rows, search_rows, soft_threshold_rows

VARIANTS = ("perfect_csi", "ml", "beaches_known_n0", "beaches_blind", "beaches_em")

_SYMBOL_ENERGY = 1.0
_SOLVE_FLOOR = 1e-12

# 16-QAM, unit average energy, reflected Gray code per axis.
# Bit pair (b0, b1) indexes the level: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3.
_QAM_SCALE = 1.0 / math.sqrt(10.0)
_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) * _QAM_SCALE
_LEVEL_BY_BITPAIR = np.array([0, 1, 3, 2])          # (b0 << 1) | b1 -> level index
_BITS_BY_LEVEL = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])
_AXIS_THRESHOLDS = np.array([-2.0, 0.0, 2.0]) * _QAM_SCALE


@dataclass(frozen=True)
class ChannelConfig:
    antennas: int = 128
    users: int = 8
    paths_per_user: int = 1
    path_power_profile: tuple | None = None

    def __post_init__(self):
        d = self.antennas
        if d < 1 or d & (d - 1):
            raise ValueError("antennas must be a power of two")
        if not 1 <= self.users <= d:
            raise ValueError("users must lie in [1, antennas]")
        if self.paths_per_user < 1:
            raise ValueError("paths_per_user must be at least 1")
        if self.path_power_profile is not None:
            prof = tuple(self.path_power_profile)
            if len(prof) != self.paths_per_user:
                raise ValueError("path_power_profile length must match paths_per_user")
            if any(g <= 0 for g in prof):
                raise ValueError("path gains must be positive")
            object.__setattr__(self, "path_power_profile", prof)

    def normalized_profile(self) -> np.ndarray:
        if self.path_power_profile is None:
            return np.full(self.paths_per_user, 1.0 / self.paths_per_user)
        prof = np.asarray(self.path_power_profile, dtype=np.float64)
        return prof / prof.sum()


def gen_los_channel(cfg: ChannelConfig, rng: RngStream) -> np.ndarray:
    """Line-of-sight channels as a (users, antennas) array, E||h||^2 / D = 1.

    Angles are uniform on (-pi/2, pi/2); path gains are circularly
    symmetric complex Gaussian with variances given by the normalized
    path power profile. Path l of user u contributes its gain times the
    half-wavelength ULA response, whose entry d is exp(i pi d sin theta).
    """
    g = rng.gen
    prof = cfg.normalized_profile()
    u, l, d = cfg.users, cfg.paths_per_user, cfg.antennas
    thetas = g.uniform(-math.pi / 2, math.pi / 2, (u, l))
    scale = np.sqrt(prof / 2.0)
    alphas = (g.standard_normal((u, l)) + 1j * g.standard_normal((u, l))) * scale
    phase = math.pi * np.sin(thetas)[:, :, None] * np.arange(d)
    steer = np.cos(phase) + 1j * np.sin(phase)
    h = np.zeros((u, d), dtype=np.complex128)
    for k in range(l):  # one path at a time, in path order
        h += alphas[:, k, None] * steer[:, k]
    return h


def _transform_input(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    d = a.shape[-1] if a.ndim else 0
    if d < 1 or d & (d - 1):
        raise ValueError("beamspace transform requires a power-of-two length")
    if not np.isfinite(a).all():
        raise ValueError("beamspace transform requires finite entries")
    return a


def beamspace(h) -> np.ndarray:
    """Unitary DFT across antennas (the last axis)."""
    h = _transform_input(h)
    return np.fft.fft(h, axis=-1) / math.sqrt(h.shape[-1])


def inverse_beamspace(x) -> np.ndarray:
    """Inverse of :func:`beamspace`; round-trips to within 1e-12."""
    x = _transform_input(x)
    return np.fft.ifft(x, axis=-1) * math.sqrt(x.shape[-1])


def _estimates(variants: tuple, x: np.ndarray, y: np.ndarray, n0: float):
    """Yield (variant, estimate, n0 used per user) for each variant.

    ``x`` and ``y`` are the (users, antennas) beamspace channels and their
    noisy observations; each estimate has the same shape.
    """
    known = [n0] * len(y)
    for variant in variants:
        if variant == "perfect_csi":
            yield variant, x, known
        elif variant == "ml":
            yield variant, y, known
        elif variant == "beaches_known_n0":
            tau, _ = search_rows(y, n0)
            yield variant, soft_threshold_rows(y, tau), known
        elif variant == "beaches_blind":
            denoised, n0_hat = denoise_blind_rows(y)
            yield variant, denoised, n0_hat.tolist()
        else:  # beaches_em
            z = abs_squared(y)
            n0_em = [fit.n0_em for fit in em_fit_rows(z, em_init_rows(z))]
            tau, _ = search_rows(y, n0_em)
            yield variant, soft_threshold_rows(y, tau), n0_em


def _trials(cfg: ChannelConfig, variants: tuple, n0: float, trials: int,
            rng: RngStream):
    """Yield each trial's draw, shared by every variant evaluated on it.

    A draw is (generator, channels, beamspace, observations): the trial's
    generator, left where the observation noise ends, and the (users,
    antennas) channels, their beamspace and its noisy observation with
    noise power ``n0``.
    """
    if not variants or not set(variants) <= set(VARIANTS):
        raise ValueError(f"variants must be a non-empty tuple drawn from {VARIANTS}, "
                         f"got {variants!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    noise_scale = math.sqrt(n0 / 2.0)
    for t in range(trials):
        st = rng.substream(t)
        h = gen_los_channel(cfg, st)
        x = beamspace(h)
        # per user, the real parts of the noise and then the imaginary parts
        w = st.gen.standard_normal((cfg.users, 2, cfg.antennas))
        yield st.gen, h, x, x + noise_scale * (w[:, 0] + 1j * w[:, 1])


def mse_by_variant(cfg: ChannelConfig, variants: tuple, snr_db: float,
                   trials: int, rng: RngStream) -> dict:
    """Average beamspace channel MSE of each variant at one SNR point.

    The observation is y = x + n in beamspace with n0 = 1 / snr (the
    beamspace vector has unit average entry power by construction).
    Returns a dict keyed by variant, in the order given.
    """
    n0 = 1.0 / 10.0 ** (snr_db / 10.0)
    d = cfg.antennas
    mse_sum = dict.fromkeys(variants, 0.0)
    n0_used = {v: [] for v in variants}
    for _, _, x, y in _trials(cfg, variants, n0, trials, rng):
        for v, xhat, n0_var in _estimates(variants, x, y, n0):
            err = xhat - x
            per_user = (err.real * err.real + err.imag * err.imag).sum(axis=-1) / d
            for mse in per_user.tolist():  # the running sum adds users in order
                mse_sum[v] += mse
            n0_used[v].extend(n0_var)
    out = {}
    for v in variants:
        used = np.asarray(n0_used[v])
        out[v] = {
            "channel_mse": mse_sum[v] / (trials * cfg.users),
            "n0_mean": float(used.mean()),
            "n0_std": float(used.std(ddof=1)) if used.size > 1 else 0.0,
            "n0_true": n0,
        }
    return out


def qam16_modulate(bits: np.ndarray) -> np.ndarray:
    """Gray-coded 16-QAM symbols from an (n, 4) bit array.

    Bit order per symbol: [i0, i1, q0, q1] with the in-phase pair first.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != 4:
        raise ValueError("bits must have shape (n, 4)")
    i_idx = _LEVEL_BY_BITPAIR[(bits[:, 0] << 1) | bits[:, 1]]
    q_idx = _LEVEL_BY_BITPAIR[(bits[:, 2] << 1) | bits[:, 3]]
    return _LEVELS[i_idx] + 1j * _LEVELS[q_idx]


def qam16_demodulate(symbols: np.ndarray) -> np.ndarray:
    """Hard per-axis decisions back to (n, 4) bits (inverse of modulate)."""
    symbols = np.asarray(symbols)
    i_idx = np.searchsorted(_AXIS_THRESHOLDS, symbols.real)
    q_idx = np.searchsorted(_AXIS_THRESHOLDS, symbols.imag)
    return np.concatenate((_BITS_BY_LEVEL[i_idx], _BITS_BY_LEVEL[q_idx]), axis=1)


def ber_by_variant(cfg: ChannelConfig, variants: tuple, snr_db: float,
                   trials: int, rng: RngStream) -> dict:
    """Uncoded 16-QAM bit error rate with LMMSE detection for each variant.

    A single knob sets n0 = users / snr: the per-antenna data noise then
    matches the configured receive SNR, and the per-user beamspace channel
    observations use the same n0. Returns a dict keyed by variant, in the
    order given.
    """
    n0 = cfg.users * _SYMBOL_ENERGY / 10.0 ** (snr_db / 10.0)
    d, u = cfg.antennas, cfg.users
    noise_scale = math.sqrt(n0 / 2.0)
    reg = u * n0 / _SYMBOL_ENERGY + _SOLVE_FLOOR
    errors = dict.fromkeys(variants, 0)
    for g, h, x, y in _trials(cfg, variants, n0, trials, rng):
        bits = g.integers(0, 2, (u, 4))
        sym = qam16_modulate(bits)
        w_data = noise_scale * (g.standard_normal(d) + 1j * g.standard_normal(d))
        # C-contiguous (antennas, users) copies: BLAS rounds transposed views differently
        r = np.ascontiguousarray(h.T) @ sym + w_data
        for v, x_hat, _ in _estimates(variants, x, y, n0):
            h_hat = np.ascontiguousarray(inverse_beamspace(x_hat).T)
            gram = h_hat.conj().T @ h_hat + reg * np.eye(u)
            sym_hat = np.linalg.solve(gram, h_hat.conj().T @ r)
            errors[v] += int((qam16_demodulate(sym_hat) != bits).sum())
    total = 4 * u * trials
    return {v: {"ber": errors[v] / total, "bit_errors": errors[v], "bits": total}
            for v in variants}
