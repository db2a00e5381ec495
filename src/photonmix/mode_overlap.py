"""Mode overlaps per degree of freedom from sampled profiles and fringe records.

Each factor is the squared inner product of the L2-normalized single-mode
wavefunctions: temporal and spectral ones from sampled profiles, each an
amplitude from the moment it is read (an intensity file as its square root),
the polarization one from the visibility of interference fringes.
Their product m_t m_f m_p m_s is the paper's convention (its printed 0.76 is
0.910 x 0.85 x 0.976), but for one mode time and frequency are two views of
the same field: m_t alone and m_f alone are each an upper bound on the
spectro-temporal overlap, and their product is neither a bound nor an
estimate.  Profiles are compared on the union of their grids: each is
normalized over its own sample range and 0 outside it, so profiles that never
meet give 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataFormatError, InvalidParameterError, UndefinedCorrelationError
from .tables import read_table, refuse_rows

_DOMAIN_HEADERS = {("t_ps", "value"): "time", ("f_GHz", "value"): "frequency"}


@dataclass(frozen=True)
class SampledProfile:
    """Sampled amplitude over time (ps) or frequency (GHz), on a strictly increasing grid."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape or xs.size < 2:
            raise InvalidParameterError("xs and values must be equal-length 1-D arrays (>= 2 samples)")
        if np.any(np.diff(xs) <= 0):
            raise InvalidParameterError("sample positions must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)


def _normalized_on_grid(profile: SampledProfile, grid: np.ndarray) -> tuple[int, np.ndarray]:
    """The index of ``grid``'s first point within the profile's samples, and its values there, L2-normalized."""
    start, stop = np.searchsorted(grid, profile.xs[[0, -1]]) + [0, 1]
    span = grid[start:stop]
    values = np.interp(span, profile.xs, profile.values)
    if not values.any():
        raise InvalidParameterError("profile is 0 at every sample")
    # scaled by a power of two, which is exact, so that the squares neither overflow nor underflow
    values = np.ldexp(values, -np.frexp(np.abs(values).max())[1])
    norm_sq = np.trapezoid(values**2, span)
    if norm_sq == 0.0:  # samples so close together that every trapezoid is below the smallest float
        raise FloatingPointError("the profile's norm underflows to 0")
    return start, values / np.sqrt(norm_sq)


def overlap_integral(psi1: SampledProfile, psi2: SampledProfile) -> float:
    """Squared inner product |∫ psi1 psi2 dx|^2 of two amplitudes, each L2-normalized.

    Profiles are linearly resampled onto the union of their grids.  Each is
    L2-normalized over the intervals within its own samples and the inner
    product runs over the intervals both cover (trapezoidal rule), so a
    profile is 0 outside its samples and profiles that never meet give 0.
    The result is at most 1 (Cauchy-Schwarz); only rounding exceeds it, so
    it is clipped there.  A norm that underflows to 0 raises ``FloatingPointError``.
    """
    grid = np.union1d(psi1.xs, psi2.xs)
    (s1, f1), (s2, f2) = _normalized_on_grid(psi1, grid), _normalized_on_grid(psi2, grid)
    start = max(s1, s2)
    stop = max(start, min(s1 + f1.size, s2 + f2.size))
    inner = np.trapezoid(f1[start - s1 : stop - s1] * f2[start - s2 : stop - s2], grid[start:stop])
    return min(float(abs(inner) ** 2), 1.0)


def fringe_visibility_overlap(samples, k_tail: int = 500) -> dict:
    """Polarization overlap from the extreme-tail averages of fringe readings: ``overlap.json``'s ``fringe``.

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
    return {
        "visibility": v,
        "visibility_err": v_err,
        "m_p": v**2,
        "m_p_err": 2.0 * abs(v) * v_err,
        "n_samples": values.size,
        "k_tail": k_tail,
    }


def spectral_filter(profile: SampledProfile, center: float, half_width: float) -> SampledProfile:
    """Hard spectral window: zero the profile, I or sqrt(I) alike, outside [center - w, center + w]."""
    if half_width <= 0:
        raise InvalidParameterError("half_width must be positive")
    mask = np.abs(profile.xs - center) <= half_width
    return replace(profile, values=np.where(mask, profile.values, 0.0))


def read_profile(path, kind: str, domain: str) -> SampledProfile:
    """Read a profile CSV of ``kind`` ``"intensity"`` or ``"amplitude"`` in ``domain`` as its amplitude.

    Format: header ``t_ps,value`` (time) or ``f_GHz,value`` (frequency), then one ``x,value`` row per
    sample, UTF-8, decimal point.  An intensity I reads as sqrt(I).  A header of another domain, a
    profile of zeros (it has no mode), fewer than 2 samples and, at its line, a position not above the
    one before or a negative intensity are format errors.
    """
    headers = list(_DOMAIN_HEADERS)
    header, rows = read_table(path, headers)
    declared = _DOMAIN_HEADERS[header]
    if declared != domain:
        raise DataFormatError(f"profile declares domain {declared!r}, expected {domain!r}", path=path)
    xs, values = rows.T
    if not values.any():
        raise DataFormatError("every profile value is 0", path=path)
    refuse_rows(
        path, headers, np.diff(xs, prepend=-np.inf) <= 0, lambda _: "sample positions must be strictly increasing"
    )
    if kind == "intensity":
        refuse_rows(path, headers, values < 0, lambda _: "intensity values must be non-negative")
        values = np.sqrt(values)
    if xs.size < 2:
        raise DataFormatError(f"a profile needs >= 2 samples, got {xs.size}", path=path)
    return SampledProfile(xs, values)


def read_fringe(path) -> np.ndarray:
    """Read a fringe CSV as its readings: header ``value``, then one reading per line.

    A reading is an intensity or a visibility, so a negative one is a format error at its line.
    """
    samples = read_table(path, [("value",)])[1][:, 0]
    refuse_rows(path, [("value",)], samples < 0, lambda k: f"negative reading {samples[k].item()!r}")
    return samples
