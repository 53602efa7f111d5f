"""Shared numeric containers, seeded random streams, and operation counters.

Everything downstream (median selection, blind estimators, the adaptive
threshold search, the EM baseline, and the channel experiments) works on
the small set of types defined here: a complex sample vector exposed as
parallel real/imag arrays, the Bernoulli complex Gaussian sparsity
parameters, a reproducible random stream keyed by (seed, stream_id), and
a counter for the three categories of real-valued operations we track.

All sampling functions are pure given an explicit :class:`RngStream`, so
concurrent callers only need distinct stream ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Computed at full double precision; several estimators divide by this.
LOG2 = math.log(2.0)


class ComplexVector:
    """Length-D vector of complex samples stored as real/imag float64 pairs.

    Entries must be finite and D >= 1. Storage is a single complex128
    array; ``re`` and ``im`` are zero-copy views of it.
    """

    __slots__ = ("_z",)

    def __init__(self, re, im):
        re = np.asarray(re, dtype=np.float64)
        im = np.asarray(im, dtype=np.float64)
        if re.ndim != 1 or im.ndim != 1:
            raise ValueError("re and im must be one-dimensional arrays")
        if re.shape != im.shape:
            raise ValueError(f"re/im length mismatch: {re.size} vs {im.size}")
        if re.size < 1:
            raise ValueError("vector must have at least one entry")
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ValueError("vector entries must be finite")
        z = np.empty(re.size, dtype=np.complex128)
        z.real = re
        z.imag = im
        self._z = z

    @classmethod
    def from_complex(cls, values) -> "ComplexVector":
        values = np.asarray(values, dtype=np.complex128)
        return cls(values.real, values.imag)

    @classmethod
    def _wrap(cls, values: np.ndarray) -> "ComplexVector":
        """A vector over ``values`` itself, a 1-D complex128 array of finite
        entries that no one else writes to: no check and no copy."""
        v = cls.__new__(cls)
        v._z = values
        return v

    @property
    def values(self) -> np.ndarray:
        """The complex128 backing array (treat as read-only)."""
        return self._z

    @property
    def re(self) -> np.ndarray:
        return self._z.real

    @property
    def im(self) -> np.ndarray:
        return self._z.imag

    @property
    def dim(self) -> int:
        return self._z.size

    def __len__(self) -> int:
        return self._z.size

    def __repr__(self) -> str:
        return f"ComplexVector(dim={self.dim})"


@dataclass(frozen=True)
class BcgParams:
    """Bernoulli complex Gaussian signal model observed in complex AWGN.

    Each signal entry is nonzero with probability ``activity_rate`` and the
    nonzero values are circularly-symmetric complex Gaussian with variance
    ``active_power``; the observation adds independent circularly-symmetric
    noise of variance ``noise_power`` per entry.
    """

    dim: int
    activity_rate: float
    active_power: float
    noise_power: float

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not 0.0 < self.activity_rate <= 1.0:
            raise ValueError("activity_rate must lie in (0, 1]")
        if not 0.0 < self.active_power < math.inf:
            raise ValueError("active_power must be positive and finite")
        if not 0.0 < self.noise_power < math.inf:
            raise ValueError("noise_power must be positive and finite")
        if not float(self.active_power) / float(self.noise_power) < math.inf:
            raise ValueError("active_power / noise_power overflows")

    @property
    def signal_power(self) -> float:
        """Average signal power per entry: activity_rate * active_power."""
        return self.activity_rate * self.active_power

    @property
    def snr(self) -> float:
        return self.signal_power / self.noise_power

    @property
    def expected_sparsity(self) -> float:
        """Expected number of nonzero entries."""
        return self.activity_rate * self.dim


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Two streams built with the same key produce bitwise-identical sample
    sequences regardless of process or thread layout. ``substream`` derives
    an independent child stream (used for per-trial randomness).
    """

    __slots__ = ("seed", "stream_id", "_spawn", "_gen")

    def __init__(self, seed: int, stream_id: int = 0, _spawn=()):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._spawn = tuple(int(s) for s in _spawn)
        self._gen = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            key = (self.stream_id,) + self._spawn
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
            self._gen = np.random.default_rng(seq)
        return self._gen

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self._spawn + (index,))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@dataclass
class OpCounter:
    """Tally of real-valued operations, split by category.

    There is no universally agreed weighting between the categories, so
    they are kept separate; ``total`` is the plain unweighted sum.
    """

    real_adds: int = 0
    real_mults: int = 0
    comparisons: int = 0

    def reset(self) -> None:
        self.real_adds = 0
        self.real_mults = 0
        self.comparisons = 0

    def snapshot(self) -> "OpCounter":
        return replace(self)

    def total(self) -> int:
        return self.real_adds + self.real_mults + self.comparisons


def sample_bcg(params: BcgParams, rng: RngStream) -> ComplexVector:
    """Draw a sparse signal vector from the Bernoulli complex Gaussian model.

    Each entry is zero with probability 1 - activity_rate, otherwise
    circularly-symmetric complex Gaussian with variance ``active_power``
    (real and imaginary parts each N(0, active_power / 2)).
    """
    g = rng.gen
    d = params.dim
    active = g.random(d) < params.activity_rate
    scale = math.sqrt(params.active_power / 2.0)
    re = np.where(active, scale * g.standard_normal(d), 0.0)
    im = np.where(active, scale * g.standard_normal(d), 0.0)
    return ComplexVector(re, im)


def sample_noise(n0: float, dim: int, rng: RngStream) -> ComplexVector:
    """Draw i.i.d. circularly-symmetric complex Gaussian noise of variance n0."""
    if not n0 > 0.0:
        raise ValueError("n0 must be positive")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    g = rng.gen
    scale = math.sqrt(n0 / 2.0)
    return ComplexVector(scale * g.standard_normal(dim), scale * g.standard_normal(dim))


# Entries per block of stacked trials: model points x trials x dim in the
# estimator sweeps, SNR points x trials x users x antennas in the channel
# experiments. The block's temporaries stay a few MB however many trials
# are asked for: at the CLI defaults a sweep-snr block holds 585 trials
# (18 blocks at --trials 10000) and a channel block 36.
_BLOCK_ENTRIES = 1 << 18


def trial_blocks(trials: int, entries_per_trial: int) -> list:
    """Consecutive ranges covering ``range(trials)``, each of at least one
    trial and, where a trial fits, of at most 2^18 entries."""
    block = max(1, _BLOCK_ENTRIES // entries_per_trial)
    return [range(start, min(start + block, trials)) for start in range(0, trials, block)]


def draw_trials(seed: int, trials: range, dim: int) -> np.ndarray:
    """The draws :func:`sample_bcg` then :func:`sample_noise` make on each
    trial's stream ``RngStream(seed, stream_id=t)``, into preallocated rows.

    Returns a (5, len(trials), dim) array: the activity uniforms, the
    signal's real and imaginary normals and the noise's real and imaginary
    normals, drawn in that order. None of them depends on the model, so
    one set serves every model point of that dim (see :func:`bcg_rows`).
    """
    draws = np.empty((5, len(trials), dim))
    for row, t in enumerate(trials):
        g = RngStream(seed, stream_id=t).gen
        g.random(out=draws[0, row])
        for k in range(1, 5):
            g.standard_normal(out=draws[k, row])
    return draws


def bcg_rows(params: BcgParams, draws: np.ndarray):
    """Signal and noise rows of one model point from :func:`draw_trials`.

    Returns complex (trials, dim) arrays (s, n); row t is bit for bit what
    :func:`sample_bcg` and :func:`sample_noise` give on trial t's stream.
    """
    uniform, s_re, s_im, n_re, n_im = draws
    active = uniform < params.activity_rate
    scale = math.sqrt(params.active_power / 2.0)
    s = np.empty(uniform.shape, dtype=np.complex128)
    s.real = np.where(active, scale * s_re, 0.0)
    s.imag = np.where(active, scale * s_im, 0.0)
    scale = math.sqrt(params.noise_power / 2.0)
    n = np.empty_like(s)
    n.real = scale * n_re
    n.imag = scale * n_im
    return s, n


def add(a: ComplexVector, b: ComplexVector) -> ComplexVector:
    """Entrywise sum of two vectors of equal length."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return ComplexVector.from_complex(a.values + b.values)


# What every estimator and denoiser raises for an input whose |y|^2 overflows.
INFINITE_POWER = "input power is infinite: |y|^2 overflows"
# What a sample median of any real array raises when its central sum overflows.
INFINITE_MEDIAN = "median is infinite: the two central values sum past the float range"
# What the blind and genie SNR estimates raise when their quotient overflows.
INFINITE_SNR = "SNR estimate is infinite: the receive power over the noise power overflows"
# What the risk estimates raise when n0 times the divergence sum overflows.
INFINITE_RISK = "risk estimate is infinite: the noise power times the divergence overflows"


def abs_squared(a) -> np.ndarray:
    """Entrywise squared magnitude re^2 + im^2 of a :class:`ComplexVector` or
    of a complex array of any shape, as a float64 array.

    An entry whose square overflows is inf, without numpy's overflow
    warning; callers check (``INFINITE_POWER``).
    """
    z = a.values if isinstance(a, ComplexVector) else a
    re = z.real
    im = z.imag
    with np.errstate(over="ignore"):
        return re * re + im * im
