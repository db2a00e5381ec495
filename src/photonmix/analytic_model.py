"""Closed-form photon statistics for a single-photon stream mixed with a coherent field.

The source emits a phase-averaged mixture of zero, one and two photons per
pulse (probabilities ``1 - p1 - p2``, ``p1``, ``p2``) and reaches the mixing
beam splitter through a channel of transmission ``eta``.  The local
oscillator is a pulsed coherent state with mean photon number ``mu_alpha``
whose polarization is rotated by ``theta`` relative to the source light.
Every function here is a pure closed form; the brute-force Fock-space
counterpart lives in :mod:`photonmix.fock_oracle`.

The sweep closed forms (:func:`cross_coincidence`, :func:`hom_visibility`,
:func:`auto_g2_zero`, :func:`overlap_from_visibility`) take floats or numpy
arrays that broadcast; each element of an array call has the bits of the
float call on that element.  The estimator's fit and the CLI call them, and
no other copy of these formulas exists.  They square by multiplying, never
by Python's ``float ** 2``, which for some ``x`` differs from ``x * x``
(numpy's square) in the last digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UndefinedCorrelationError


def _refuse(bad, name: str, value, requirement: str) -> None:
    """Raise for ``value``, or its first element, where ``bad`` holds."""
    if np.any(bad):
        first = np.asarray(value)[bad][0] if np.ndim(bad) else value
        raise InvalidParameterError(f"{name} must be {requirement}, got {first}")


def _check_unit_interval(name: str, value) -> None:
    v = np.asarray(value)
    _refuse(~((0.0 <= v) & (v <= 1.0)), name, value, "in [0, 1]")


def _check_non_negative(name: str, value) -> None:
    _refuse(np.asarray(value) < 0.0, name, value, ">= 0")


def _check_probs(p1, p2) -> None:
    _check_non_negative("p1", p1)
    _check_non_negative("p2", p2)
    total = p1 + p2
    _refuse(np.asarray(total) > 1.0 + 1e-12, "p1 + p2", total, "<= 1")


@dataclass(frozen=True)
class SourceParams:
    """Pulsed single-photon source: emission probabilities and channel loss.

    ``m_psi`` is the indistinguishability of successively emitted photons; it
    rescales any mode overlap with an external field to ``m * m_psi``.
    """

    p1: float
    p2: float = 0.0
    eta: float = 1.0
    tau_lt_ps: float | None = None
    m_psi: float = 1.0

    def __post_init__(self):
        _check_probs(self.p1, self.p2)
        _check_unit_interval("eta", self.eta)
        _check_unit_interval("m_psi", self.m_psi)
        if self.tau_lt_ps is not None and self.tau_lt_ps <= 0:
            raise InvalidParameterError("tau_lt_ps must be positive")

    @property
    def mu_psi(self) -> float:
        """Mean photon number delivered to the beam splitter."""
        return self.eta * (self.p1 + 2.0 * self.p2)

    @property
    def g2_zero(self) -> float:
        """Second-order autocorrelation of the source light (loss-independent)."""
        return g2_from_probs(self.p1, self.p2)

    @classmethod
    def from_moments(
        cls,
        mu_psi: float,
        g2_psi: float,
        eta: float | None = None,
        **kwargs,
    ) -> "SourceParams":
        """Build emission probabilities realizing target (mu_psi, g2_psi).

        The decomposition is not unique; unless ``eta`` is given, the total
        emitted photon number per pulse is normalized to ``p1 + 2 p2 = 1`` so
        that ``eta = mu_psi`` (requires ``mu_psi <= 1``).
        """
        _check_non_negative("mu_psi", mu_psi)
        _check_non_negative("g2_psi", g2_psi)
        if eta is None:
            if mu_psi > 1.0:
                raise InvalidParameterError(
                    "mu_psi > 1 needs an explicit eta (unit-normalized emission "
                    "cannot exceed one photon per pulse)"
                )
            eta = mu_psi
            emitted = 1.0
        else:
            if eta <= 0.0:
                raise InvalidParameterError("eta must be positive when given")
            emitted = mu_psi / eta
        p2 = 0.5 * g2_psi * emitted**2
        p1 = emitted - 2.0 * p2
        if p1 < 0.0:
            raise InvalidParameterError(
                f"g2_psi={g2_psi} too large for emitted mean {emitted}"
            )
        return cls(p1=p1, p2=p2, eta=eta, **kwargs)


@dataclass(frozen=True)
class LocalOscillator:
    """Pulsed coherent state: mean photon number and polarization angle.

    ``theta`` is the polarization rotation relative to the source light, so
    the polarization contribution to the mode overlap is ``cos(theta)**2``.
    The second-order correlation of a coherent state is exactly 1.
    """

    mu_alpha: float
    theta: float = 0.0

    def __post_init__(self):
        _check_non_negative("mu_alpha", self.mu_alpha)

    @property
    def g2_zero(self) -> float:
        return 1.0

    @property
    def alpha(self) -> float:
        return math.sqrt(self.mu_alpha)

    @property
    def m_p(self) -> float:
        """Polarization mode overlap cos^2(theta)."""
        return math.cos(self.theta) ** 2


@dataclass(frozen=True)
class PeakReport:
    """Locations and values of the extrema of the two correlation curves.

    The auto-correlation curve is monotone on r > 0 for ``m = 0`` and for
    ``g2_psi >= 1 + m``; its peak fields are then ``None``.
    """

    r_vhom_star: float
    v_max: float
    r_auto_star: float | None
    g2_auto_max: float | None


def g2_from_probs(p1: float, p2: float) -> float:
    """g2(0) = 2 p2 / (p1 + 2 p2)^2 for the zero/one/two-photon mixture."""
    _check_probs(p1, p2)
    s = p1 + 2.0 * p2
    if s <= 0.0:
        raise UndefinedCorrelationError("g2 undefined for p1 = p2 = 0")
    return 2.0 * p2 / s**2


def loss_degraded_probs(p1: float, p2: float, eta: float) -> tuple[float, float, float]:
    """Photon-number populations added by the one/two-photon part after loss eta.

    Returns (q0, q1, q2) with q0 = (1-eta)(p1 + p2 - eta p2),
    q1 = eta (p1 + 2 p2 - 2 eta p2), q2 = eta^2 p2.  The vacuum population of
    the full state is ``1 - p1 - p2 + q0``.
    """
    _check_probs(p1, p2)
    _check_unit_interval("eta", eta)
    q0 = (1.0 - eta) * (p1 + p2 - eta * p2)
    q1 = eta * (p1 + 2.0 * p2 - 2.0 * eta * p2)
    q2 = eta**2 * p2
    return q0, q1, q2


def cross_coincidence(mu_alpha, mu_psi, g2_psi, m):
    """Unnormalized coincidence moment between the two beam splitter outputs.

    mu_alpha^2 + mu_psi^2 g2_psi + 2 mu_alpha mu_psi (1 - m), in units where
    the balanced-splitter prefactor is dropped.  Interference (m > 0)
    suppresses cross-output coincidences.
    """
    _check_non_negative("mu_alpha", mu_alpha)
    _check_non_negative("mu_psi", mu_psi)
    _check_non_negative("g2_psi", g2_psi)
    _check_unit_interval("m", m)
    return mu_alpha * mu_alpha + mu_psi * mu_psi * g2_psi + 2.0 * mu_alpha * mu_psi * (1.0 - m)


def hom_visibility(mu_alpha, mu_psi, g2_psi, m):
    """Coincidence suppression (G_0 - G_m) / G_0 between interfering and orthogonal fields."""
    g0 = cross_coincidence(mu_alpha, mu_psi, g2_psi, 0.0)
    _check_unit_interval("m", m)
    if np.any(g0 <= 0.0):
        raise UndefinedCorrelationError("visibility undefined: no coincidences at m = 0")
    return 2.0 * mu_alpha * mu_psi * m / g0


def overlap_from_visibility(visibility, mu_alpha, mu_psi, g2_psi):
    """Invert the visibility into the mean wavepacket overlap.

    m = V (1 + mu_alpha / (2 mu_psi) + mu_psi g2_psi / (2 mu_alpha)), the exact
    inverse of :func:`hom_visibility`.  Being linear in V, it maps a
    visibility's error to the overlap's error as well.
    """
    if np.any(mu_alpha <= 0.0) or np.any(mu_psi <= 0.0):
        raise InvalidParameterError(
            "mu_alpha and mu_psi must be positive: the multi-photon correction "
            "factor diverges otherwise"
        )
    _check_non_negative("g2_psi", g2_psi)
    correction = 1.0 + mu_alpha / (2.0 * mu_psi) + (mu_psi / (2.0 * mu_alpha)) * g2_psi
    return visibility * correction


def auto_g2_zero(mu_alpha, mu_psi, g2_psi, m):
    """Normalized second-order correlation at one beam splitter output.

    (mu_alpha^2 + mu_psi^2 g2_psi + 2 mu_alpha mu_psi (1 + m)) / (mu_alpha + mu_psi)^2.
    Interference (m > 0) enhances same-output bunching.
    """
    _check_non_negative("mu_alpha", mu_alpha)
    _check_non_negative("mu_psi", mu_psi)
    _check_non_negative("g2_psi", g2_psi)
    _check_unit_interval("m", m)
    total = mu_alpha + mu_psi
    if np.any(total <= 0.0):
        raise UndefinedCorrelationError("g2_auto undefined for two vacuum inputs")
    num = mu_alpha * mu_alpha + mu_psi * mu_psi * g2_psi + 2.0 * mu_alpha * mu_psi * (1.0 + m)
    return num / (total * total)


def peak_analysis(g2_psi: float, m: float) -> PeakReport:
    """Extrema of visibility and auto-correlation over the power ratio r = mu_alpha/mu_psi.

    The visibility peaks at r = sqrt(g2_psi) with value m / (sqrt(g2_psi) + 1).
    The auto-correlation peaks at r = (1 + m - g2_psi) / m.  For m = 0 or
    g2_psi >= 1 + m that point is not at r > 0: the curve is monotone on
    r > 0 and the peak is reported as absent.
    """
    _check_non_negative("g2_psi", g2_psi)
    _check_unit_interval("m", m)
    r_vhom = math.sqrt(g2_psi)
    v_max = m / (r_vhom + 1.0)
    if m > 0.0 and g2_psi < 1.0 + m:
        r_auto = (1.0 + m - g2_psi) / m
        g2_max = auto_g2_zero(r_auto, 1.0, g2_psi, m)
    else:
        r_auto = None
        g2_max = None
    return PeakReport(r_vhom_star=r_vhom, v_max=v_max, r_auto_star=r_auto, g2_auto_max=g2_max)
