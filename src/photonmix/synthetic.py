"""Seeded Monte Carlo generators of detector time tags for pipeline closure tests.

Tags are number-resolved: every photon contributes one record, so correlation
histograms built from these streams estimate the underlying photon-number
moments without click-detector saturation corrections.  Per-pulse photon
numbers for the interference fixtures are drawn from the exact joint output
distribution of the Fock-space simulation, which makes the generated streams
an end-to-end check of the tag pipeline against the closed-form correlation
values.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .analytic_model import LocalOscillator, SourceParams
from .errors import InvalidParameterError
from .fock_oracle import (
    BeamSplitterSpec,
    auto_correlation,
    cross_correlations,
    mix_on_beam_splitter,
)
from .tables import write_table
from .tagstream import TagStream

_PULSE_CHUNK = 2_000_000


def poisson_cw_tags(rates_hz: Mapping[int, float], duration_s: float, seed: int) -> TagStream:
    """Independent continuous-wave Poisson processes, one per channel."""
    if duration_s <= 0:
        raise InvalidParameterError("duration must be positive")
    rng = np.random.default_rng(seed)
    duration_ps = int(round(duration_s * 1e12))
    channels = []
    times = []
    for ch in sorted(rates_hz):
        rate = rates_hz[ch]
        if rate < 0:
            raise InvalidParameterError(f"rate for channel {ch} must be >= 0")
        n = rng.poisson(rate * duration_s)
        t = rng.integers(0, duration_ps, size=n, dtype=np.int64)
        channels.append(np.full(n, ch, dtype=np.int64))
        times.append(t)
    return TagStream.from_unsorted(np.concatenate(channels), np.concatenate(times))


def _emission_delays(rng: np.random.Generator, n: int, lifetime_ps: float | None) -> np.ndarray:
    if lifetime_ps is None or n == 0:
        return np.zeros(n, dtype=np.int64)
    return rng.exponential(lifetime_ps, size=n).astype(np.int64)


def pulsed_coherent_tags(
    mean_photons: Mapping[int, float],
    n_pulses: int,
    rep_period_ps: int,
    seed: int,
    lifetime_ps: float | None = None,
) -> TagStream:
    """Pulsed Poissonian source: independent Poisson photon number per pulse per channel."""
    if n_pulses < 1 or rep_period_ps < 1:
        raise InvalidParameterError("n_pulses and rep_period_ps must be positive")
    rng = np.random.default_rng(seed)
    channels = []
    times = []
    for start in range(0, n_pulses, _PULSE_CHUNK):
        count = min(_PULSE_CHUNK, n_pulses - start)
        pulse_t = (np.arange(start, start + count, dtype=np.int64)) * rep_period_ps
        for ch in sorted(mean_photons):
            mu = mean_photons[ch]
            if mu < 0:
                raise InvalidParameterError(f"mean photon number for channel {ch} must be >= 0")
            n_per_pulse = rng.poisson(mu, size=count)
            t = np.repeat(pulse_t, n_per_pulse)
            t = t + _emission_delays(rng, t.size, lifetime_ps)
            channels.append(np.full(t.size, ch, dtype=np.int64))
            times.append(t)
    return TagStream.from_unsorted(np.concatenate(channels), np.concatenate(times))


def displaced_fock_tags(
    source: SourceParams,
    lo: LocalOscillator,
    bs: BeamSplitterSpec,
    cutoff: int,
    n_pulses: int,
    rep_period_ps: int,
    seed: int,
    channel_2: int = 2,
    channel_3: int = 3,
    lifetime_ps: float | None = None,
) -> tuple[TagStream, dict]:
    """Tags from the interference experiment, one channel per beam splitter output.

    Per-pulse photon numbers (n2, n3) are sampled from the joint output
    distribution of :func:`photonmix.fock_oracle.mix_on_beam_splitter`; each
    photon is delayed by an exponential emission time when a lifetime is
    given (default: the source lifetime).  Returns the stream together with
    the oracle's exact moments of that distribution, usable as ground truth:
    means, polarization-summed g2_auto of both outputs, and the normalized
    cross-output coincidence ratio <n2 n3> / (<n2><n3>).
    """
    if n_pulses < 1 or rep_period_ps < 1:
        raise InvalidParameterError("n_pulses and rep_period_ps must be positive")
    if lifetime_ps is None:
        lifetime_ps = source.tau_lt_ps
    state = mix_on_beam_splitter(source, lo, bs, cutoff)
    moments = cross_correlations(state)
    truth = {
        "mean_2": moments.mean_2,
        "mean_3": moments.mean_3,
        "g2_auto_2": auto_correlation(state, "out_2"),
        "g2_auto_3": auto_correlation(state, "out_3"),
        "g2_cross": moments.coincidence / (moments.mean_2 * moments.mean_3),
    }
    joint = state.distribution
    flat = joint.ravel()
    flat = flat / flat.sum()
    n3_levels = joint.shape[1]

    rng = np.random.default_rng(seed)
    channels = []
    times = []
    for start in range(0, n_pulses, _PULSE_CHUNK):
        count = min(_PULSE_CHUNK, n_pulses - start)
        cells = rng.choice(flat.size, size=count, p=flat)
        n2 = (cells // n3_levels).astype(np.int64)
        n3 = (cells % n3_levels).astype(np.int64)
        pulse_t = (np.arange(start, start + count, dtype=np.int64)) * rep_period_ps
        for ch, counts in ((channel_2, n2), (channel_3, n3)):
            t = np.repeat(pulse_t, counts)
            t = t + _emission_delays(rng, t.size, lifetime_ps)
            channels.append(np.full(t.size, ch, dtype=np.int64))
            times.append(t)
    stream = TagStream.from_unsorted(np.concatenate(channels), np.concatenate(times))
    return stream, truth


def write_tags_csv(stream: TagStream, path) -> None:
    """Write a stream in the ``channel,t_ps`` format accepted by parse_tags."""
    write_table(path, None, [stream.channels, stream.times])
