"""Brute-force simulation of the mixing experiment in a truncated Fock space.

The output state is carried in factorized form.  The source light occupies
the parallel polarization of input a and its perpendicular polarization is
vacuum, while the beam splitter acts on each polarization separately.  So
every pure branch of the output is a product of a parallel two-mode state
(source branch mixed with the parallel coherent component) and a
perpendicular two-mode state (vacuum mixed with the perpendicular coherent
component), and the polarization-summed photon-number distribution
P[n2, n3] is the 2-D convolution of the two pair distributions.

Beam splitters and loss channels are matrix exponentials of the two-mode
mixing generator.  The generator conserves total photon number, so it is
exponentiated block by block: one (N+1) x (N+1) block per total photon
number N (Campos, Saleh & Teich, Phys. Rev. A 40, 1371 (1989)).  Each block
is exact, so the maps are exact on every state they meet here.  Every
generator here is anti-Hermitian, so its exponential comes from a Hermitian
eigendecomposition, the well-conditioned normal-matrix case of Moler & Van
Loan, SIAM Rev. 45, 3 (2003); numpy alone does it.  The branches live
only inside :func:`mix_on_beam_splitter`: the state it returns is the
(2 cutoff + 5)^2 distribution P[n2, n3] itself, instead of a (cutoff+3)^4
four-mode ket, and every moment is read from it.  The only approximation
in the whole pipeline is the truncation of the incoming coherent state,
whose discarded tail mass is summed exactly in decimal arithmetic and
enforced against a hard bound.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .analytic_model import LocalOscillator, SourceParams, _check_probs, _check_unit_interval
from .errors import (
    InvalidParameterError,
    TruncationError,
    UndefinedCorrelationError,
)

#: Output labels, in the axis order of :attr:`OutputState.distribution`.
OUTPUTS = ("out_2", "out_3")

#: Coherent tail mass above which the mixing operation refuses to run.
TAIL_REFUSAL = 1e-6

#: Decimal digits carried by :func:`coherent_tail_mass`.
TAIL_DIGITS = 30


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Lossless beam splitter with transmission T and reflection 1 - T."""

    transmission: float

    def __post_init__(self):
        _check_unit_interval("transmission", self.transmission)

    @property
    def reflection(self) -> float:
        return 1.0 - self.transmission


@dataclass(frozen=True)
class TruncationReport:
    """Cutoff used for a coherent input and the probability mass beyond it."""

    cutoff: int
    tail_mass: float


class CrossMoments(NamedTuple):
    coincidence: float
    mean_2: float
    mean_3: float


@dataclass(frozen=True)
class OutputState:
    """Beam-splitter output as its polarization-summed photon-number distribution.

    ``distribution[n2, n3]`` is the probability of n2 photons at out_2 and
    n3 at out_3, summed over both polarizations; it is sized
    (2 cutoff + 5) x (2 cutoff + 5).
    """

    distribution: np.ndarray
    report: TruncationReport


def coherent_tail_mass(mu: float, cutoff: int) -> float:
    """Probability that a coherent state of mean photon number mu exceeds the cutoff.

    This is the Poisson upper tail p_{c+1} + p_{c+2} + ..., summed in
    decimal arithmetic at ``TAIL_DIGITS`` digits from ``Decimal(mu)``, the
    float's exact value, until a term falls below ``10**-TAIL_DIGITS`` of the
    sum; the terms fall at least geometrically from there.  When the cutoff
    lies below mu - 1 the tail holds most of the mass, so it is taken as
    1 - (p_0 + ... + p_c) instead, which bounds the work by the cutoff.  The
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


def required_cutoff(mu: float, tail_target: float = 1e-10, max_cutoff: int = 500) -> int:
    """Smallest cutoff whose coherent tail mass is below the target (min 2).

    The tail mass falls as the cutoff grows, so the cutoff is bisected for.
    """
    lo, hi = 2, max_cutoff + 1  # hi: the smallest cutoff known to reach the target
    while lo < hi:
        mid = (lo + hi) // 2
        if coherent_tail_mass(mu, mid) < tail_target:
            hi = mid
        else:
            lo = mid + 1
    if lo > max_cutoff:
        raise InvalidParameterError(
            f"no cutoff <= {max_cutoff} reaches tail mass {tail_target} for mu = {mu}"
        )
    return lo


def lowering_operator(cutoff: int) -> np.ndarray:
    """Single-mode annihilation operator truncated at the given cutoff."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1.0)), 1)


def _expm_antihermitian(gen: np.ndarray) -> np.ndarray:
    """exp(gen) for anti-Hermitian ``gen``: V diag(e^{iw}) V+ from eigh(-1j gen).

    The result is real when ``gen`` is real.
    """
    w, v = np.linalg.eigh(-1j * gen)
    out = (v * np.exp(1j * w)) @ v.conj().T
    return out.real if np.isrealobj(gen) else out


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Displacement operator exp(alpha a+ - alpha* a) in the truncated space.

    Column 0 approximates the coherent-state amplitudes
    exp(-|alpha|^2/2) alpha^n / sqrt(n!); the approximation is unitary up to
    the truncated tail.
    """
    a = lowering_operator(cutoff)
    gen = alpha * a.conj().T - np.conjugate(alpha) * a
    return _expm_antihermitian(gen)


@lru_cache(maxsize=1024)
def _sector_unitary(transmission: float, total: int) -> np.ndarray:
    """Two-mode mixing unitary on (x, y) restricted to ``total`` photons.

    The unitary is expm(theta (x+ y - x y+)) with cos(theta) = sqrt(T), so
    x_out = sqrt(T) x + sqrt(R) y.  Row and column j stand for the basis
    state |j>_x |total - j>_y.
    """
    j = np.arange(total)
    hop = np.diag(np.sqrt((j + 1.0) * (total - j)), -1)  # matrix of x+ y
    theta = math.acos(min(1.0, math.sqrt(transmission)))
    unitary = _expm_antihermitian(theta * (hop - hop.T))
    unitary.setflags(write=False)  # shared by every caller through the cache
    return unitary


def build_qd_state(p1: float, p2: float, cutoff: int) -> np.ndarray:
    """Single-mode source density matrix: a mixture of 0, 1 and 2 photons."""
    _check_probs(p1, p2)
    if cutoff < 2:
        raise InvalidParameterError("cutoff must be >= 2 to hold the two-photon term")
    rho = np.zeros((cutoff + 1, cutoff + 1))
    rho[0, 0], rho[1, 1], rho[2, 2] = 1.0 - p1 - p2, p1, p2
    return rho


def apply_loss(rho: np.ndarray, eta: float) -> np.ndarray:
    """Send a single-mode density matrix through a channel of transmission eta.

    Realized as a virtual beam splitter of transmission eta coupling the mode
    to a vacuum environment, followed by a partial trace over the
    environment.  Input |n>|0> lies in sector n, so the environment keeping
    k photons leaves the Kraus operator K_k[j, j + k] = U_{j+k}[j, j + k].
    """
    _check_unit_interval("eta", eta)
    d = rho.shape[0]
    out = np.zeros_like(rho)
    for k in range(d):
        kraus = np.zeros((d, d))
        for j in range(d - k):
            kraus[j, j + k] = _sector_unitary(eta, j + k)[j, j + k]
        out += kraus @ rho @ kraus.T
    return out


def _coherent_input_ket(alpha: float, cutoff: int) -> np.ndarray:
    """Coherent ket truncated at ``cutoff`` and renormalized."""
    ket = displacement_matrix(alpha, cutoff)[:, 0]
    return ket / np.linalg.norm(ket)


def _mix_pair(n_x: int, ket_y: np.ndarray, transmission: float, size: int) -> np.ndarray:
    """Output amplitudes [n2, n3] of |n_x>_x (x) ket_y on the beam splitter.

    The x slot exits as the transmitted-source output out_3 and the y slot
    as out_2.  Input |n_x, k> lies in sector n_x + k, where it is column n_x.
    """
    amp = np.zeros((size, size), dtype=ket_y.dtype)
    for k, c in enumerate(ket_y):
        total = n_x + k
        j = np.arange(total + 1)
        amp[total - j, j] = c * _sector_unitary(transmission, total)[:, n_x]
    return amp


def mix_on_beam_splitter(
    source: SourceParams,
    lo: LocalOscillator,
    bs: BeamSplitterSpec,
    cutoff: int,
) -> OutputState:
    """Mix the lossy source state with the polarized coherent state.

    The source light occupies the parallel polarization of input a; the
    coherent state enters input b split as alpha cos(theta) parallel and
    alpha sin(theta) perpendicular.  Output out_2 carries the transmitted
    coherent field (sqrt(T) b + sqrt(R) a); out_3 the transmitted source
    field.  The lossy source is a mixture of number states, each one branch;
    the coherent inputs are truncated at ``cutoff`` and renormalized, and
    each two-mode pair holds up to ``cutoff + 2`` photons per mode, so the
    number-conserving beam splitter acts exactly.  The returned state is the
    branches' polarization-summed distribution P[n2, n3].

    Partial source indistinguishability (``source.m_psi < 1``) is realized by
    adding the branches of an orthogonal-polarization run at weight
    ``1 - m_psi``, which reproduces the effective overlap ``m * m_psi`` in
    all photon-number moments.

    Raises :class:`TruncationError` when the coherent tail mass at ``cutoff``
    is not below ``TAIL_REFUSAL``.
    """
    report = TruncationReport(cutoff, coherent_tail_mass(lo.mu_alpha, cutoff))
    if report.tail_mass >= TAIL_REFUSAL:
        raise TruncationError(
            f"cutoff {cutoff} keeps only {1 - report.tail_mass:.9f} of the "
            f"coherent state (tail {report.tail_mass:.3e} >= {TAIL_REFUSAL:.0e})",
            report=report,
        )
    populations = np.diag(apply_loss(build_qd_state(source.p1, source.p2, 2), source.eta))
    photons = np.flatnonzero(populations > 0.0)
    runs = [(source.m_psi, lo.theta), (1.0 - source.m_psi, math.pi / 2.0)]
    t, size = bs.transmission, cutoff + 3

    def run_distribution(run_weight: float, theta: float) -> np.ndarray:
        # each branch is |parallel> (x) |perpendicular>: sum the parallel pair
        # distributions by weight, then convolve with the perpendicular one
        ket_par = _coherent_input_ket(lo.alpha * math.cos(theta), cutoff)
        ket_perp = _coherent_input_ket(lo.alpha * math.sin(theta), cutoff)
        weights = np.array([run_weight * populations[n] for n in photons])
        parallel = np.array([_mix_pair(int(n), ket_par, t, size) for n in photons])
        perpendicular = _mix_pair(0, ket_perp, t, size)
        return _convolve(np.tensordot(weights, np.abs(parallel) ** 2, axes=1), np.abs(perpendicular) ** 2)

    return OutputState(sum(run_distribution(w, theta) for w, theta in runs if w > 0.0), report)


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full 2-D convolution of two arrays, one Toeplitz product per row of b."""
    (rows_a, cols_a), (rows_b, cols_b) = a.shape, b.shape
    shift = np.arange(cols_a + cols_b - 1) - np.arange(cols_a)[:, None]
    inside = (shift >= 0) & (shift < cols_b)
    out = np.zeros((rows_a + rows_b - 1, cols_a + cols_b - 1))
    for i, row in enumerate(b):
        out[i : i + rows_a] += a @ np.where(inside, row[np.clip(shift, 0, cols_b - 1)], 0.0)
    return out


def cross_correlations(state: OutputState) -> CrossMoments:
    """Polarization-summed moments (<n2 n3>, <n2>, <n3>) of the output state."""
    dist = state.distribution
    n2 = np.arange(dist.shape[0])
    n3 = np.arange(dist.shape[1])
    return CrossMoments(
        coincidence=float(n2 @ dist @ n3),
        mean_2=float(n2 @ dist.sum(axis=1)),
        mean_3=float(dist.sum(axis=0) @ n3),
    )


def auto_correlation(state: OutputState, output: str = "out_2") -> float:
    """Polarization-summed g2(0) = <n(n-1)> / <n>^2 at one output."""
    if output not in OUTPUTS:
        raise InvalidParameterError(f"unknown output {output!r}; expected one of {OUTPUTS}")
    marginal = state.distribution.sum(axis=1 - OUTPUTS.index(output))
    n = np.arange(marginal.size)
    mean = float(marginal @ n)
    if mean <= 0.0:
        raise UndefinedCorrelationError(f"no photons at output {output!r}")
    return float(marginal @ (n * (n - 1))) / mean**2


def visibility_from_states(configured: OutputState, orthogonal: OutputState) -> float:
    """Cross-output visibility (G0 - Gm) / G0 of a configured and an orthogonal run."""
    g_m = cross_correlations(configured).coincidence
    g_0 = cross_correlations(orthogonal).coincidence
    if g_0 <= 0.0:
        raise UndefinedCorrelationError("no coincidences in the orthogonal reference run")
    return (g_0 - g_m) / g_0

