"""Closed-form photon statistics for a single-photon stream mixed with a coherent field.

The source emits a phase-averaged mixture of zero, one and two photons per
pulse (probabilities ``1 - p1 - p2``, ``p1``, ``p2``) and reaches the mixing
beam splitter through a channel of transmission ``eta``.  The local
oscillator is a pulsed coherent state with mean photon number ``mu_alpha``
whose polarization is rotated by ``theta`` relative to the source light.
Every function here is a pure closed form; the brute-force Fock-space
counterpart lives in :mod:`photonmix.fock_oracle`.

The sweep closed forms (:func:`cross_coincidence`, :func:`hom_visibility`,
:func:`auto_g2_zero`, :func:`overlap_from_visibility`) are functions of the
power ratio ``r = mu_alpha / mu_psi``, that is of ``mu_alpha`` in units of
``mu_psi``.  They take floats or numpy arrays that broadcast; each element
of an array call has the bits of the float call on that element.  The
estimator's fit and the CLI call them, and no other copy of these formulas
exists.  They square by multiplying, never by Python's ``float ** 2``, which
for some ``x`` differs from ``x * x`` (numpy's square) in the last digit.
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
    _refuse(~(np.asarray(value) >= 0.0), name, value, ">= 0")


def _check_probs(p1, p2) -> None:
    _check_non_negative("p1", p1)
    _check_non_negative("p2", p2)
    total = p1 + p2
    _refuse(np.asarray(total) > 1.0 + 1e-12, "p1 + p2", total, "<= 1")


@dataclass(frozen=True)
class SourceParams:
    """Pulsed single-photon source: emission probabilities and channel loss."""

    p1: float
    p2: float = 0.0
    eta: float = 1.0

    def __post_init__(self):
        _check_probs(self.p1, self.p2)
        _check_unit_interval("eta", self.eta)

    @classmethod
    def from_moments(cls, mu_psi: float, g2_psi: float) -> "SourceParams":
        """Build emission probabilities realizing target (mu_psi, g2_psi).

        The decomposition is not unique: the emitted photon number per pulse
        is normalized to ``p1 + 2 p2 = 1``, so that ``eta = mu_psi``.
        """
        _check_unit_interval("mu_psi", mu_psi)
        _check_non_negative("g2_psi", g2_psi)
        p2 = 0.5 * g2_psi
        p1 = 1.0 - 2.0 * p2
        if p1 < 0.0:
            raise InvalidParameterError(f"g2_psi={g2_psi} too large for emitted mean 1.0")
        return cls(p1=p1, p2=p2, eta=mu_psi)


@dataclass(frozen=True)
class LocalOscillator:
    """Pulsed coherent state: mean photon number and polarization angle.

    ``theta`` is the polarization rotation relative to the source light, so
    the polarization contribution to the mode overlap is ``cos(theta)**2``.
    """

    mu_alpha: float
    theta: float = 0.0

    def __post_init__(self):
        _check_non_negative("mu_alpha", self.mu_alpha)

    @property
    def alpha(self) -> float:
        return math.sqrt(self.mu_alpha)


def g2_from_probs(p1: float, p2: float) -> float:
    """g2(0) = 2 p2 / (p1 + 2 p2)^2 for the zero/one/two-photon mixture.

    No command calls it: it is the reference :meth:`SourceParams.from_moments` is tested against.
    """
    _check_probs(p1, p2)
    s = p1 + 2.0 * p2
    if s <= 0.0:
        raise UndefinedCorrelationError("g2 undefined for p1 = p2 = 0")
    return 2.0 * p2 / s**2


def loss_degraded_probs(p1: float, p2: float, eta: float) -> tuple[float, float, float]:
    """Photon-number populations added by the one/two-photon part after loss eta.

    Returns (q0, q1, q2) with q0 = (1-eta)(p1 + p2 - eta p2),
    q1 = eta (p1 + 2 p2 - 2 eta p2), q2 = eta^2 p2.  The vacuum population of
    the full state is ``1 - p1 - p2 + q0``.  It is the closed-form reference
    that the oracle's loss step, which splits each emitted photon into kept
    and lost in :func:`photonmix.fock_oracle.mix_on_beam_splitter`, is tested
    against; the oracle never calls it.
    """
    _check_probs(p1, p2)
    _check_unit_interval("eta", eta)
    q0 = (1.0 - eta) * (p1 + p2 - eta * p2)
    q1 = eta * (p1 + 2.0 * p2 - 2.0 * eta * p2)
    q2 = eta**2 * p2
    return q0, q1, q2


def cross_coincidence(r, g2_psi, m):
    """Unnormalized coincidence moment between the two beam splitter outputs.

    r^2 + g2_psi + 2 r (1 - m), in units of mu_psi^2 with the
    balanced-splitter prefactor dropped.  Interference (m > 0) suppresses
    cross-output coincidences.
    """
    _check_non_negative("r", r)
    _check_non_negative("g2_psi", g2_psi)
    _check_unit_interval("m", m)
    return r * r + g2_psi + 2.0 * r * (1.0 - m)


def hom_visibility(r, g2_psi, m):
    """Coincidence suppression (G_0 - G_m) / G_0 between interfering and orthogonal fields."""
    g0 = cross_coincidence(r, g2_psi, 0.0)
    _check_unit_interval("m", m)
    if np.any(g0 <= 0.0):
        raise UndefinedCorrelationError("visibility undefined: no coincidences at m = 0")
    return 2.0 * r * m / g0


def overlap_from_visibility(visibility, r, g2_psi):
    """Invert the visibility into the mean wavepacket overlap.

    m = V (1 + r / 2 + g2_psi / (2 r)), the exact inverse of
    :func:`hom_visibility`.  Being linear in V, it maps a visibility's error
    to the overlap's error as well.
    """
    if np.any(~(np.asarray(r) > 0.0)):
        raise InvalidParameterError("r must be positive: the multi-photon correction factor diverges otherwise")
    _check_non_negative("g2_psi", g2_psi)
    correction = 1.0 + r / 2.0 + (1.0 / (2.0 * r)) * g2_psi
    return visibility * correction


def auto_g2_zero(r, g2_psi, m):
    """Normalized second-order correlation at one beam splitter output.

    (r^2 + g2_psi + 2 r (1 + m)) / (r + 1)^2.  Interference (m > 0) enhances
    same-output bunching.
    """
    _check_non_negative("r", r)
    _check_non_negative("g2_psi", g2_psi)
    _check_unit_interval("m", m)
    total = r + 1.0
    num = r * r + g2_psi + 2.0 * r * (1.0 + m)
    return num / (total * total)


def peak_analysis(g2_psi: float, m: float) -> dict:
    """Extrema of visibility and auto-correlation over the power ratio r = mu_alpha/mu_psi.

    The visibility peaks at r = sqrt(g2_psi) with value m / (sqrt(g2_psi) + 1).
    The auto-correlation peaks at r = (1 + m - g2_psi) / m.  For m = 0 or
    g2_psi >= 1 + m that point is not at r > 0: the curve is monotone on
    r > 0, and ``r_auto_star`` and ``g2_auto_max`` are ``None``.  The dict is
    ``report.json``'s ``peaks``.
    """
    _check_non_negative("g2_psi", g2_psi)
    _check_unit_interval("m", m)
    r_vhom = math.sqrt(g2_psi)
    v_max = m / (r_vhom + 1.0)
    if m > 0.0 and g2_psi < 1.0 + m:
        r_auto = (1.0 + m - g2_psi) / m
        g2_max = auto_g2_zero(r_auto, g2_psi, m)
    else:
        r_auto = None
        g2_max = None
    return {"r_vhom_star": r_vhom, "v_max": v_max, "r_auto_star": r_auto, "g2_auto_max": g2_max}
