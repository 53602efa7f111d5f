"""Synthetic multi-antenna channel denoising and uncoded 16-QAM link simulation.

Channels are line-of-sight sums of uniform-linear-array steering vectors
with complex Gaussian path gains, normalized to unit average per-antenna
power. After the unitary DFT across antennas (the beamspace), a channel
with few paths is approximately sparse, which is exactly the structure
the blind estimators and the adaptive soft-threshold denoiser rely on.

Two experiments evaluate a tuple of denoising variants, each filling one
(points, variants, quantities, trials) table of per-trial results:

* channel MSE of the denoised beamspace vector, with the observation
  noise set by ``n0 = 1 / snr`` (unit average beamspace entry power);
* uncoded 16-QAM bit error rate under LMMSE detection, where a single
  SNR knob fixes ``n0 = users / snr`` used both for the per-user channel
  observations and for the per-antenna data noise (so the per-antenna
  receive SNR of the data equals the configured value).

Each trial is drawn once per run from its own substream, in trial order:
the channels, their beamspace and the observation-noise normals (and,
for the BER, the data bits and data-noise normals) are shared by every
SNR point and every variant evaluated on it, and each point scales the
same normals by its own noise power. Trials are drawn in blocks of at
most 2^18 entries (points x trials x users x antennas), and each variant
is evaluated once per block, on the stacked (points x trials x users,
antennas) observation rows, through the row kernels of
:mod:`blindsnr.sure` and :mod:`blindsnr.em`; the detection runs once per
variant and block on the stacked (points, trials) systems. The
estimators use no randomness, so a variant's result depends neither on
the other variants or points beside it nor on the block sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, abs_squared, trial_blocks
from .em import _fit_rows, _init_rows
from .sure import _search_sorted, _shrink, blind_rows

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
    paths_per_user: int = 2

    def __post_init__(self):
        d = self.antennas
        if d < 1 or d & (d - 1):
            raise ValueError("antennas must be a power of two")
        if not 1 <= self.users <= d:
            raise ValueError("users must lie in [1, antennas]")
        if self.paths_per_user < 1:
            raise ValueError("paths_per_user must be at least 1")


def gen_los_channel(cfg: ChannelConfig, rng: RngStream) -> np.ndarray:
    """Line-of-sight channels as a (users, antennas) array, E||h||^2 / D = 1.

    Angles are uniform on (-pi/2, pi/2); path gains are circularly
    symmetric complex Gaussian with equal path powers, 1 / paths each.
    Path l of user u contributes its gain times the half-wavelength ULA
    response, whose entry d is exp(i pi d sin theta).
    """
    g = rng.gen
    u, l, d = cfg.users, cfg.paths_per_user, cfg.antennas
    thetas = g.uniform(-math.pi / 2, math.pi / 2, (u, l))
    scale = math.sqrt(1.0 / l / 2.0)
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


def _estimates(variants: tuple, x: np.ndarray, y: np.ndarray, n0: np.ndarray):
    """Yield (variant, estimate, n0 used per row) for each variant.

    ``y`` holds noisy beamspace observations, (..., antennas), and ``x``
    the channels they observe (broadcast against ``y``); each estimate has
    the shape of ``y``. ``n0`` is the true noise power of each row of
    ``y``, in row order. Each variant's row kernels run once on all rows.
    """
    rows = y.reshape(-1, y.shape[-1])
    # one |y|^2 and one sort serve every BEACHES variant
    b = blind_rows(rows) if any(v.startswith("beaches") for v in variants) else None
    for variant in variants:
        n0_var = n0
        if variant == "perfect_csi":
            est = np.broadcast_to(x, y.shape)
        elif variant == "ml":
            est = y
        elif variant == "beaches_blind":
            # rows whose noise estimate is zero come back unchanged
            est, n0_var = np.where(b.n0[:, None] > 0.0, b.shrunk, rows), b.n0
        else:
            if variant == "beaches_em":
                n0_var = _fit_rows(b.z, _init_rows(b.z, b.n0)).var_small
            tau, _ = _search_sorted(b.sorted_r, np.asarray(n0_var)[..., None])
            # |y| from the blind kernel's |y|^2, which it checked for overflow
            est = _shrink(rows, np.sqrt(b.z), tau[:, None])[0]
        yield variant, est.reshape(y.shape), n0_var


def noise_power(cfg: ChannelConfig, snr_db: float, metric: str) -> float:
    """Noise power at ``snr_db``: 1 / snr for the ``"mse"`` experiment,
    users * E_s / snr for ``"ber"``. ValueError unless it is positive and
    finite; OverflowError from the dB conversion above about 3083 dB."""
    snr = 10.0 ** (snr_db / 10.0)
    energy = cfg.users * _SYMBOL_ENERGY if metric == "ber" else 1.0
    n0 = energy / snr if snr > 0.0 else math.inf
    if not 0.0 < n0 < math.inf:
        raise ValueError(f"noise power n0={n0:g} must be positive and finite")
    return n0


def _blocks(cfg: ChannelConfig, variants: tuple, n0s: list, trials: int,
            rng: RngStream, data: bool):
    """Yield each block of trials, drawn once and shared by every SNR point
    and every variant evaluated on it.

    A block is (trials, beamspace, observations, n0 per row, link): the
    range of trials it holds; their (trials, users, antennas) beamspace
    channels; their (points, trials, users, antennas) observations, point
    k with noise power ``n0s[k]``; that noise power for each observation
    row, in row order; and, with ``data``, the link (channels, each trial's
    (users, 4) bits, its antennas' unit-power complex data noise), else
    None. Trial t draws from ``rng.substream(t)`` in the order channels,
    observation noise, bits, data noise, whatever the block sizes.
    """
    if not variants or not set(variants) <= set(VARIANTS):
        raise ValueError(f"variants must be a non-empty tuple drawn from {VARIANTS}, "
                         f"got {variants!r}")
    if "beaches_em" in variants and cfg.antennas < 2:
        raise ValueError("beaches_em needs at least 2 antennas")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not n0s:
        raise ValueError("snr_points_db must be non-empty")
    u, d = cfg.users, cfg.antennas
    for block in trial_blocks(trials, len(n0s) * u * d):
        h = np.empty((len(block), u, d), dtype=np.complex128)
        # per user, the real parts of the noise and then the imaginary parts
        w = np.empty((len(block), u, 2, d))
        bits = np.empty((len(block), u, 4), dtype=np.int64)
        w_data = np.empty((len(block), 2, d))
        for row, t in enumerate(block):
            st = rng.substream(t)
            h[row] = gen_los_channel(cfg, st)
            st.gen.standard_normal(out=w[row])
            if data:
                bits[row] = st.gen.integers(0, 2, (u, 4))
                st.gen.standard_normal(out=w_data[row])
        x = beamspace(h)
        noise = w[:, :, 0] + 1j * w[:, :, 1]
        y = np.stack([x + math.sqrt(n0 / 2.0) * noise for n0 in n0s])
        link = (h, bits, w_data[:, 0] + 1j * w_data[:, 1]) if data else None
        yield block, x, y, np.repeat(n0s, len(block) * u), link


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


def trial_table(cfg: ChannelConfig, variants: tuple, snr_points_db, trials: int,
                rng: RngStream, metric: str) -> np.ndarray:
    """Per-trial results of each variant at each SNR point, as a (points,
    variants, quantities, trials) array; every point observes the same
    trials, at noise power ``noise_power(cfg, snr_db, metric)``.

    ``"mse"``: the beamspace observation is y = x + n, and the quantities
    are the trial's channel MSE and the noise power its variant used, both
    averaged over the trial's users. ``"ber"``: every point sends the same
    4 bits per user and trial, detected by LMMSE from the variant's
    channel estimate; the one quantity is the trial's bit-error count.
    """
    n0s = [noise_power(cfg, snr_db, metric) for snr_db in snr_points_db]
    table = np.empty((len(n0s), len(variants), 2 if metric == "mse" else 1, trials))
    for block, x, y, known, link in _blocks(cfg, variants, n0s, trials, rng,
                                            data=metric == "ber"):
        if link:
            h, bits, noise = link
            sym = qam16_modulate(bits.reshape(-1, 4)).reshape(bits.shape[:2])
            # BLAS rounds transposed views differently, so multiply C-contiguous copies
            hs = (np.ascontiguousarray(h.swapaxes(1, 2)) @ sym[..., None])[..., 0]
            r = np.stack([hs + math.sqrt(n0 / 2.0) * noise for n0 in n0s])
            ridge = np.stack([(cfg.users * n0 / _SYMBOL_ENERGY + _SOLVE_FLOOR)
                              * np.eye(cfg.users) for n0 in n0s])[:, None]
        for k, (_, x_hat, n0_var) in enumerate(_estimates(variants, x, y, known)):
            if link:
                h_hat = np.ascontiguousarray(inverse_beamspace(x_hat).swapaxes(-1, -2))
                h_adj = h_hat.conj().swapaxes(-1, -2)
                sym_hat = np.linalg.solve(h_adj @ h_hat + ridge, h_adj @ r[..., None])
                bits_hat = qam16_demodulate(sym_hat.reshape(-1)).reshape(-1, *bits.shape)
                table[:, k, 0, block] = (bits_hat != bits).sum(axis=(2, 3))
            else:
                table[:, k, 0, block] = abs_squared(x_hat - x).mean(axis=(-2, -1))
                table[:, k, 1, block] = np.reshape(n0_var, y.shape[:-1]).mean(axis=-1)
    return table


def mse_by_points(cfg: ChannelConfig, variants: tuple, snr_points_db,
                  trials: int, rng: RngStream) -> list:
    """Average beamspace channel MSE of each variant at each SNR point, with
    n0 = 1 / snr: the trial means of :func:`trial_table`. Returns one dict
    per point, keyed by variant in the order given."""
    means = trial_table(cfg, variants, snr_points_db, trials, rng, "mse").mean(axis=-1)
    return [{v: {"channel_mse": mse, "n0_mean": n0_mean,
                 "n0_true": noise_power(cfg, snr_db, "mse")}
             for v, (mse, n0_mean) in zip(variants, point)}
            for snr_db, point in zip(snr_points_db, means.tolist())]


def mse_by_variant(cfg: ChannelConfig, variants: tuple, snr_db: float,
                   trials: int, rng: RngStream) -> dict:
    """Average beamspace channel MSE of each variant at one SNR point; a
    one-point call into :func:`mse_by_points`."""
    return mse_by_points(cfg, variants, (snr_db,), trials, rng)[0]


def ber_by_points(cfg: ChannelConfig, variants: tuple, snr_points_db,
                  trials: int, rng: RngStream) -> list:
    """Uncoded 16-QAM bit error rate of each variant at each SNR point, with
    n0 = users / snr: the error total of :func:`trial_table` over all bits
    sent. Returns one dict per point, keyed by variant in the order given."""
    errors = trial_table(cfg, variants, snr_points_db, trials, rng, "ber").sum(axis=-1)
    total = 4 * cfg.users * trials
    return [{v: {"ber": e / total, "bit_errors": int(e), "bits": total}
             for v, (e,) in zip(variants, point)} for point in errors.tolist()]


def ber_by_variant(cfg: ChannelConfig, variants: tuple, snr_db: float,
                   trials: int, rng: RngStream) -> dict:
    """Uncoded 16-QAM bit error rate of each variant at one SNR point; a
    one-point call into :func:`ber_by_points`."""
    return ber_by_points(cfg, variants, (snr_db,), trials, rng)[0]
