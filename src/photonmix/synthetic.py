"""Seeded Monte Carlo generators of pulsed detector time tags for pipeline closure tests.

Both generators share one pulse-train sampler and differ only in how they draw
the photon numbers of each pulse: independent Poisson numbers per channel, or
joint numbers (n2, n3) from the exact output distribution of the Fock-space
simulation.  Tags are number-resolved: every photon contributes one record, so
correlation histograms built from these streams estimate the underlying
photon-number moments without click-detector saturation corrections, which
makes the interference streams an end-to-end check of the tag pipeline against
the closed-form correlation values.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping

import numpy as np

from .analytic_model import LocalOscillator, SourceParams
from .errors import InvalidParameterError
from .fock_oracle import (
    BeamSplitterSpec,
    auto_correlation,
    cross_correlations,
    mix_on_beam_splitter,
)
from .tagstream import TagStream

_PULSE_CHUNK = 2_000_000

# draw(rng, count) yields (channel, photons per pulse) for the next count pulses
Draw = Callable[[np.random.Generator, int], Iterable[tuple[int, np.ndarray]]]


def _pulse_train(
    n_pulses: int, rep_period_ps: int, seed: int, lifetime_ps: float | None
) -> Callable[[Draw], TagStream]:
    """Check a train of ``n_pulses`` pulses ``rep_period_ps`` apart and return its sampler.

    The sampler walks the train in chunks of ``_PULSE_CHUNK`` pulses, takes
    each channel's photons per pulse from ``draw`` as it yields them, and
    delays every photon by an exponential emission time when a lifetime is
    given.
    """
    if n_pulses < 1 or rep_period_ps < 1:
        raise InvalidParameterError("n_pulses and rep_period_ps must be positive")
    if lifetime_ps is not None and not 0.0 < lifetime_ps < math.inf:
        raise InvalidParameterError(f"lifetime_ps must be positive and finite, got {lifetime_ps}")

    def sample(draw: Draw) -> TagStream:
        rng = np.random.default_rng(seed)
        channels = []
        times = []
        for start in range(0, n_pulses, _PULSE_CHUNK):
            count = min(_PULSE_CHUNK, n_pulses - start)
            pulse_t = np.arange(start, start + count, dtype=np.int64) * rep_period_ps
            for ch, photons in draw(rng, count):
                t = np.repeat(pulse_t, photons)
                if lifetime_ps is not None and t.size:
                    t = t + rng.exponential(lifetime_ps, size=t.size).astype(np.int64)
                channels.append(np.full(t.size, ch, dtype=np.int64))
                times.append(t)
        return TagStream(np.concatenate(channels), np.concatenate(times))

    return sample


def pulsed_coherent_tags(
    mean_photons: Mapping[int, float], n_pulses: int, rep_period_ps: int, seed: int
) -> TagStream:
    """Pulsed Poissonian source: independent Poisson photon number per pulse per channel.

    The Poissonian control of the tag pipeline's closure test: it must not go
    through the oracle that :func:`displaced_fock_tags` samples.
    """
    sample = _pulse_train(n_pulses, rep_period_ps, seed, None)

    def draw(rng, count):
        for ch in sorted(mean_photons):
            mu = mean_photons[ch]
            if mu < 0:
                raise InvalidParameterError(f"mean photon number for channel {ch} must be >= 0")
            yield ch, rng.poisson(mu, size=count)

    return sample(draw)


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
    photon is delayed by an exponential emission time of mean ``lifetime_ps``
    when one is given.  Returns the stream together with the oracle's exact
    moments of that distribution, usable as ground truth: the means of both
    outputs, the polarization-summed g2_auto of out_2, and the normalized
    cross-output coincidence ratio <n2 n3> / (<n2><n3>).
    """
    sample = _pulse_train(n_pulses, rep_period_ps, seed, lifetime_ps)
    dist = mix_on_beam_splitter(source, lo, bs, cutoff)
    moments = cross_correlations(dist)
    truth = {
        "mean_2": moments.mean_2,
        "mean_3": moments.mean_3,
        "g2_auto_2": auto_correlation(dist),
        "g2_cross": moments.coincidence / (moments.mean_2 * moments.mean_3),
    }
    flat = dist.ravel()
    flat = flat / flat.sum()
    n3_levels = dist.shape[1]

    def draw(rng, count):
        cells = rng.choice(flat.size, size=count, p=flat)
        return (channel_2, cells // n3_levels), (channel_3, cells % n3_levels)

    return sample(draw), truth
