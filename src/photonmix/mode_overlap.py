"""Mode overlaps per degree of freedom from sampled profiles and fringe records.

The overlap of two fields factorizes over independent degrees of freedom
(time, frequency, polarization, spatial); each factor is the squared inner
product of the L2-normalized single-mode wavefunctions.  Temporal and
spectral factors come from sampled intensity or amplitude profiles, the
polarization factor from the visibility of interference fringes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .analytic_model import _check_unit_interval
from .errors import DataFormatError, InvalidParameterError, UndefinedCorrelationError
from .tables import read_table, write_table

_DOMAINS = ("time", "frequency")
_KINDS = ("intensity", "amplitude")
_DOMAIN_HEADERS = {("t_ps", "value"): "time", ("f_GHz", "value"): "frequency"}
_HEADER_BY_DOMAIN = {v: k for k, v in _DOMAIN_HEADERS.items()}


@dataclass(frozen=True)
class SampledProfile:
    """Discretely sampled wavefunction or intensity over time (ps) or frequency (GHz)."""

    domain: str
    xs: np.ndarray
    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.domain not in _DOMAINS:
            raise InvalidParameterError(f"domain must be one of {_DOMAINS}")
        if self.kind not in _KINDS:
            raise InvalidParameterError(f"kind must be one of {_KINDS}")
        xs = np.asarray(self.xs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape or xs.size < 2:
            raise InvalidParameterError("xs and values must be equal-length 1-D arrays (>= 2 samples)")
        if np.any(np.diff(xs) <= 0):
            raise InvalidParameterError("sample positions must be strictly increasing")
        if self.kind == "intensity" and np.any(values < 0):
            raise InvalidParameterError("intensity values must be non-negative")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FringeVisibility:
    """Fringe visibility and the polarization overlap M_p = V^2 derived from it."""

    visibility: float
    visibility_err: float
    m_p: float
    m_p_err: float
    n_samples: int
    k_tail: int


@dataclass(frozen=True)
class OverlapBreakdown:
    """Per-degree-of-freedom overlaps and their product."""

    m_t: float
    m_f: float
    m_p: float
    m_s: float
    m_total: float
    m_tilde: float | None = None


def amplitude_from_intensity(profile: SampledProfile) -> SampledProfile:
    """Convert an intensity profile to the L2-normalized amplitude sqrt(I)."""
    if profile.kind != "intensity":
        raise InvalidParameterError("profile is already an amplitude")
    if not np.any(profile.values > 0):
        raise InvalidParameterError("cannot normalize an all-zero intensity profile")
    amp = np.sqrt(profile.values)
    norm = np.sqrt(np.trapezoid(amp**2, profile.xs))
    return replace(profile, values=amp / norm, kind="amplitude")


def _normalized_on_grid(profile: SampledProfile, grid: np.ndarray) -> np.ndarray:
    values = np.interp(grid, profile.xs, profile.values, left=0.0, right=0.0)
    norm_sq = np.trapezoid(values**2, grid)
    if norm_sq <= 0.0:
        raise InvalidParameterError("profile vanishes on the common grid")
    return values / np.sqrt(norm_sq)


def overlap_integral(psi1: SampledProfile, psi2: SampledProfile) -> float:
    """Squared inner product |∫ psi1 psi2 dx|^2 of two normalized amplitudes.

    Profiles are linearly resampled onto the union of their grids restricted
    to the overlapping range and L2-normalized there (trapezoidal rule).
    Disjoint ranges give 0 with a warning.
    """
    if psi1.kind != "amplitude" or psi2.kind != "amplitude":
        raise InvalidParameterError("overlap_integral expects amplitude profiles")
    if psi1.domain != psi2.domain:
        raise InvalidParameterError(
            f"profiles live in different domains: {psi1.domain} vs {psi2.domain}"
        )
    lo = max(psi1.xs[0], psi2.xs[0])
    hi = min(psi1.xs[-1], psi2.xs[-1])
    if lo >= hi:
        warnings.warn("profiles have disjoint x-ranges; overlap is 0", stacklevel=2)
        return 0.0
    grid = np.union1d(psi1.xs, psi2.xs)
    grid = grid[(grid >= lo) & (grid <= hi)]
    f1 = _normalized_on_grid(psi1, grid)
    f2 = _normalized_on_grid(psi2, grid)
    inner = np.trapezoid(f1 * f2, grid)
    return float(abs(inner) ** 2)


def fringe_visibility_overlap(samples, k_tail: int = 500) -> FringeVisibility:
    """Polarization overlap from the extreme-tail averages of fringe readings.

    The bright and dark fringe levels are estimated as the means of the
    ``k_tail`` largest and smallest readings; V = (I_max - I_min) /
    (I_max + I_min) and M_p = V^2.  The statistical spread of each tail is
    propagated into the uncertainty.  Readings may be raw intensities or
    per-sample visibilities; only the tail averages enter.
    """
    values = np.sort(np.asarray(samples, dtype=float))
    if k_tail < 1:
        raise InvalidParameterError("k_tail must be >= 1")
    if values.size < 2 * k_tail:
        raise InvalidParameterError(
            f"need at least 2 * k_tail = {2 * k_tail} samples, got {values.size}"
        )
    bottom = values[:k_tail]
    top = values[-k_tail:]
    i_min = float(bottom.mean())
    i_max = float(top.mean())
    total = i_max + i_min
    if total == 0.0:
        raise UndefinedCorrelationError("I_max + I_min = 0: visibility undefined")
    v = (i_max - i_min) / total
    ddof = 1 if k_tail > 1 else 0
    sem_max = float(top.std(ddof=ddof)) / np.sqrt(k_tail)
    sem_min = float(bottom.std(ddof=ddof)) / np.sqrt(k_tail)
    v_err = 2.0 * np.hypot(i_min * sem_max, i_max * sem_min) / total**2
    return FringeVisibility(
        visibility=v,
        visibility_err=v_err,
        m_p=v**2,
        m_p_err=2.0 * abs(v) * v_err,
        n_samples=values.size,
        k_tail=k_tail,
    )


def total_overlap(
    m_t: float,
    m_f: float,
    m_p: float,
    m_s: float = 1.0,
    m_psi: float | None = None,
) -> OverlapBreakdown:
    """Product of the per-degree-of-freedom overlaps, optionally scaled by m_psi."""
    for name, value in (("m_t", m_t), ("m_f", m_f), ("m_p", m_p), ("m_s", m_s), ("m_psi", m_psi)):
        if value is not None:
            _check_unit_interval(name, value)
    total = m_t * m_f * m_p * m_s
    tilde = None if m_psi is None else total * m_psi
    return OverlapBreakdown(m_t=m_t, m_f=m_f, m_p=m_p, m_s=m_s, m_total=total, m_tilde=tilde)


def spectral_filter(profile: SampledProfile, center: float, half_width: float) -> SampledProfile:
    """Hard spectral window: zero the intensity outside [center - w, center + w]."""
    if profile.kind != "intensity":
        raise InvalidParameterError("spectral_filter applies to intensity profiles")
    if half_width <= 0:
        raise InvalidParameterError("half_width must be positive")
    mask = np.abs(profile.xs - center) <= half_width
    return replace(profile, values=np.where(mask, profile.values, 0.0))


def read_profile(path, kind: str) -> SampledProfile:
    """Read a two-column profile CSV; the x header declares the domain units.

    Format: header ``t_ps,value`` or ``f_GHz,value``, then one ``x,value``
    row per sample, UTF-8, decimal point.
    """
    header, rows = read_table(path, list(_DOMAIN_HEADERS))
    try:
        return SampledProfile(
            domain=_DOMAIN_HEADERS[header], xs=rows[:, 0], values=rows[:, 1], kind=kind
        )
    except InvalidParameterError as exc:
        raise DataFormatError(str(exc)) from exc


def write_profile(profile: SampledProfile, path) -> None:
    write_table(path, _HEADER_BY_DOMAIN[profile.domain], [profile.xs, profile.values])
