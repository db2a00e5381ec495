"""Brute-force simulation of the mixing experiment in a truncated Fock space.

Light that interferes is carried as amplitudes; light that meets no other
field is carried as a photon-number distribution and split photon by photon.
The source light occupies the parallel polarization of input a and meets the
parallel coherent component there, so each source number state and that
component form a parallel two-mode ket.  Two kinds of light meet nothing:
the perpendicular coherent component (the source's perpendicular input is
vacuum), and the source photons lost on the way to the beam splitter.  Each
of their photons is added in probability, moving mass t to one axis and r to
the other: T to out_2 and R to out_3 for the perpendicular light, eta to the
kept photons and 1 - eta to the lost ones for the source.

The beam splitter acts on creation operators (Campos, Saleh & Teich, Phys.
Rev. A 40, 1371 (1989)): each input photon leaves as a fixed combination of
the two output creation operators, so an input number state leaves as those
operators applied to the output vacuum, one photon at a time, each step two
shifted adds.  This is exact, and it forms only the amplitudes that are
used.  The coherent input is the coherent state itself, its amplitudes
alpha^n / sqrt(n!) up to the cutoff, renormalized.  The kets live only
inside :func:`mix_on_beam_splitter`, which returns the output as one
(2 cutoff + 5)^2 float64 array, the distribution P[n2, n3], instead of a
(cutoff+3)^4 four-mode ket; every moment is read from that array.  The
cutoff's tail mass is not carried with it: :func:`coherent_tail_mass` gives
it again from the same arguments.  The only approximation in
the whole pipeline is the truncation of the incoming coherent state, whose
discarded tail mass is summed exactly in decimal arithmetic and enforced
against a hard bound.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic_model import LocalOscillator, SourceParams, _check_unit_interval
from .errors import (
    InvalidParameterError,
    TruncationError,
    UndefinedCorrelationError,
)

#: Coherent tail mass above which the mixing operation refuses to run.
TAIL_REFUSAL = 1e-6

#: Largest cutoff :func:`required_cutoff` searches.
MAX_CUTOFF = 500

#: Decimal digits carried by :func:`coherent_tail_mass`.
TAIL_DIGITS = 30


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Lossless beam splitter with transmission T and reflection 1 - T."""

    transmission: float

    def __post_init__(self):
        _check_unit_interval("transmission", self.transmission)


class CrossMoments(NamedTuple):
    coincidence: float
    mean_2: float
    mean_3: float


def coherent_tail_mass(mu: float, cutoff: int) -> float:
    """Probability that a coherent state of mean photon number mu exceeds the cutoff.

    This is the Poisson upper tail p_{c+1} + p_{c+2} + ..., summed in
    decimal arithmetic at ``TAIL_DIGITS`` digits from ``Decimal(mu)``, the
    float's exact value, until a term falls below ``10**-TAIL_DIGITS`` of the
    sum; the terms fall at least geometrically from there.  When the cutoff
    lies below mu - 1 the tail holds most of the mass, so it is taken as
    1 - (p_0 + ... + p_c) instead, which bounds the work by the cutoff: the
    tail series alone would climb to the Poisson mode near mu before its terms
    fall, so ``required_cutoff(1e6)``, which ``simulate`` reaches with an
    oracle check ratio of 1e6, would take seconds instead of milliseconds.  The
    exponent range is widened so that tiny terms keep their digits instead
    of underflowing.  The float result is the exact tail to within a unit in
    its last place; scipy's ``pdtrc`` strays up to 2.4e-13 from it.
    """
    if math.isnan(mu) or mu < 0.0:
        raise InvalidParameterError(f"mean photon number must be >= 0, got {mu}")
    if mu == 0.0:
        return 0.0
    if math.isinf(mu):
        return 1.0
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = TAIL_DIGITS, decimal.MIN_EMIN, decimal.MAX_EMAX
        m = decimal.Decimal(mu)
        if cutoff + 1 < mu:
            term = head = (-m).exp()
            for k in range(1, cutoff + 1):
                term = term * m / k
                head += term
            return float(1 - head)
        k = cutoff + 1
        term = tail = (-m).exp() * m**k / math.factorial(k)
        while term >= tail.scaleb(-TAIL_DIGITS):
            k += 1
            term = term * m / k
            tail += term
        return float(tail)


def required_cutoff(mu: float, tail_target: float = 1e-10) -> int:
    """Smallest cutoff whose coherent tail mass is below the target (min 2, max ``MAX_CUTOFF``).

    The tail mass falls as the cutoff grows, so the cutoff is bisected for.
    """
    lo, hi = 2, MAX_CUTOFF + 1  # hi: the smallest cutoff known to reach the target
    while lo < hi:
        mid = (lo + hi) // 2
        if coherent_tail_mass(mu, mid) < tail_target:
            hi = mid
        else:
            lo = mid + 1
    if lo > MAX_CUTOFF:
        raise InvalidParameterError(
            f"no cutoff <= {MAX_CUTOFF} reaches tail mass {tail_target} for mu = {mu}"
        )
    return lo


def _create(amp: np.ndarray, on_2: float, on_3: float) -> np.ndarray:
    """(on_2 a2+ + on_3 a3+) applied to the two-mode amplitudes amp[n2, n3].

    Each creation operator is one shifted add scaled by sqrt(n + 1).  The
    result is one larger along each axis, so no photon leaves the array.
    """
    rows, cols = amp.shape
    out = np.zeros((rows + 1, cols + 1), dtype=amp.dtype)
    out[1:, :-1] = on_2 * np.sqrt(np.arange(1.0, rows + 1.0))[:, None] * amp
    out[:-1, 1:] += on_3 * np.sqrt(np.arange(1.0, cols + 1.0)) * amp
    return out


def _split(weights, base: np.ndarray, t: float, r: float) -> np.ndarray:
    """Add a field of photon-number distribution ``weights`` to the two-axis distribution ``base``.

    The field meets no other field, so each of its photons moves mass ``t``
    one step along the first axis and ``r`` one step along the second; the
    k-photon terms are summed by Horner's scheme over ``weights``, one grown
    array per photon.
    """
    dist = weights[-1] * base
    for w in weights[-2::-1]:
        grown = np.zeros((dist.shape[0] + 1, dist.shape[1] + 1))
        grown[1:, :-1] = t * dist
        grown[:-1, 1:] += r * dist
        grown[: base.shape[0], : base.shape[1]] += w * base
        dist = grown
    return dist


def _coherent_input_ket(alpha: float, cutoff: int) -> np.ndarray:
    """Coherent amplitudes alpha^n / sqrt(n!) for n <= ``cutoff``, renormalized, trailing zeros dropped.

    They are multiplied out from the Poisson mode floor(alpha^2), set to 1,
    by factors no larger than 1: |alpha| / sqrt(n) upward, sqrt(n) / |alpha|
    downward, so none overflows however bright the field.  The odd ones take
    the sign of alpha, and exp(-alpha^2 / 2) cancels in the renormalization.
    """
    mode = min(int(alpha * alpha), cutoff)
    roots = np.sqrt(np.arange(1.0, cutoff + 1.0))
    amp = np.ones(cutoff + 1)
    amp[mode + 1 :] = np.cumprod(abs(alpha) / roots[mode:])
    amp[:mode] = np.cumprod(roots[:mode][::-1] / abs(alpha))[::-1]
    amp[1::2] *= math.copysign(1.0, alpha)
    return np.trim_zeros(amp / np.linalg.norm(amp), "b")


def mix_on_beam_splitter(
    source: SourceParams,
    lo: LocalOscillator,
    bs: BeamSplitterSpec,
    cutoff: int,
) -> np.ndarray:
    """Mix the lossy source state with the polarized coherent state.

    The source light occupies the parallel polarization of input a; the
    coherent state enters input b split as alpha cos(theta) parallel and
    alpha sin(theta) perpendicular.  Output out_2 carries the transmitted
    coherent field: the beam splitter maps b+ to sqrt(T) a2+ + sqrt(R) a3+
    and a+ to sqrt(T) a3+ - sqrt(R) a2+.  The source reaches input a through
    a channel of transmission ``source.eta``; what arrives is a mixture of
    number states, each one branch.  The coherent inputs are truncated at
    ``cutoff`` and renormalized.  Returns the branches' polarization-summed
    distribution: ``P[n2, n3]`` is the probability of n2 photons at out_2 and
    n3 at out_3, a (2 cutoff + 5) x (2 cutoff + 5) float64 array.

    Raises :class:`TruncationError` when the coherent tail mass at ``cutoff``
    is not below ``TAIL_REFUSAL``.
    """
    tail_mass = coherent_tail_mass(lo.mu_alpha, cutoff)
    if tail_mass >= TAIL_REFUSAL:
        raise TruncationError(
            f"cutoff {cutoff} keeps only {1 - tail_mass:.9f} of the "
            f"coherent state (tail {tail_mass:.3e} >= {TAIL_REFUSAL:.0e})"
        )
    # each emitted photon reaches the beam splitter (first axis) with probability eta
    weights = (1.0 - source.p1 - source.p2, source.p1, source.p2)
    populations = _split(weights, np.ones((1, 1)), source.eta, 1.0 - source.eta).sum(axis=1)
    t, r = bs.transmission, 1.0 - bs.transmission
    # parallel light interferes: build the amplitudes of
    # sum_k ket[k] (b+)^k / sqrt(k!) |0> by Horner's scheme, then add the
    # source photons one at a time, each branch weighted by its population
    ket_par = _coherent_input_ket(lo.alpha * math.cos(lo.theta), cutoff)
    amp = ket_par[-1:, None]
    for k in range(ket_par.size - 2, -1, -1):
        amp = _create(amp, math.sqrt(t / (k + 1)), math.sqrt(r / (k + 1)))
        amp[0, 0] += ket_par[k]
    parallel = np.zeros((ket_par.size + 2, ket_par.size + 2))
    for n, population in enumerate(populations):
        parallel[: amp.shape[0], : amp.shape[1]] += population * np.abs(amp) ** 2
        amp = _create(amp, -math.sqrt(r / (n + 1)), math.sqrt(t / (n + 1)))
    # perpendicular light meets no other field
    ket_perp = _coherent_input_ket(lo.alpha * math.sin(lo.theta), cutoff)
    dist = _split(np.abs(ket_perp) ** 2, parallel, t, r)
    out = np.zeros((2 * cutoff + 5, 2 * cutoff + 5))
    out[: dist.shape[0], : dist.shape[1]] = dist
    return out


def cross_correlations(dist: np.ndarray) -> CrossMoments:
    """Polarization-summed moments (<n2 n3>, <n2>, <n3>) of the output distribution P[n2, n3]."""
    n2 = np.arange(dist.shape[0])
    n3 = np.arange(dist.shape[1])
    return CrossMoments(
        coincidence=float(n2 @ dist @ n3),
        mean_2=float(n2 @ dist.sum(axis=1)),
        mean_3=float(dist.sum(axis=0) @ n3),
    )


def auto_correlation(dist: np.ndarray) -> float:
    """Polarization-summed g2(0) = <n(n-1)> / <n>^2 at out_2 of P[n2, n3]; ``auto_correlation(dist.T)`` reads out_3.

    <n>^2 must be a normal float64: the two-photon terms, about <n>^2, lose digits once they are subnormal.
    """
    marginal = dist.sum(axis=1)
    n = np.arange(marginal.size)
    mean = float(marginal @ n)
    if mean**2 < np.finfo(float).tiny:
        raise UndefinedCorrelationError(f"the mean at 'out_2', {mean!r}, squares below the smallest normal float64")
    return float(marginal @ (n * (n - 1))) / mean**2


def visibility_from_states(configured: np.ndarray, orthogonal: np.ndarray) -> float:
    """Cross-output visibility (G0 - Gm) / G0 of the distributions of a configured and an orthogonal run.

    G0 must be a normal float64: it is a sum of two-photon terms, which lose digits once they are subnormal.
    """
    g_m = cross_correlations(configured).coincidence
    g_0 = cross_correlations(orthogonal).coincidence
    if g_0 < np.finfo(float).tiny:
        raise UndefinedCorrelationError(f"the orthogonal run's <n2 n3>, {g_0!r}, is below the smallest normal float64")
    return (g_0 - g_m) / g_0

