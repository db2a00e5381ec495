"""Calibrations and statistical inference for the interference measurements.

Covers the local-oscillator photon-number calibration from optical power,
the polarization-dependent detection-efficiency correction, weighted
single-parameter fits of visibility and bunching sweeps that recover the
mean wavepacket overlap, per-point overlap inversion, and the brightness
estimate from the location of the bunching maximum.

Both sweep models are affine in the overlap m, so the default fit is the
closed-form weighted least-squares estimate with its exact curvature error.
Only the optional fit that also floats the ratio scale is iterative; it
imports scipy's ``least_squares`` when called, so no other path loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic_model import overlap_from_visibility
from .errors import DataFormatError, IllConditionedFitError, InvalidParameterError
from .fock_oracle import BeamSplitterSpec
from .tables import read_table, row_line, write_table

_SWEEP_HEADER = ("ratio", "y", "y_err")

#: Planck constant (J s) and speed of light (m/s), exact in the SI since 2019.
_H = 6.62607015e-34
_C = 299792458.0


@dataclass(frozen=True)
class PowerCalibration:
    """Monitor power, calibrated attenuation and pulse parameters of the LO path."""

    p0_watts: float
    attenuation_db: float
    wavelength_m: float
    tau_rep_s: float

    def __post_init__(self):
        if self.p0_watts < 0:
            raise InvalidParameterError("monitor power must be >= 0")
        if self.wavelength_m <= 0 or self.tau_rep_s <= 0:
            raise InvalidParameterError("wavelength and repetition period must be positive")

    @property
    def p_alpha_watts(self) -> float:
        return 10.0 ** (-self.attenuation_db / 10.0) * self.p0_watts


@dataclass(frozen=True)
class SweepPoint:
    """One measured point of a correlation sweep over the power ratio."""

    ratio: float
    y: float
    y_err: float


@dataclass(frozen=True)
class FitResult:
    """Fitted overlap with its curvature error.

    ``at_bound`` is true when a parameter was held at the edge of its range:
    the unclipped overlap lies outside [0, 1], or the two-parameter fit ended
    on a bound.  ``m_err`` is then the curvature of an unconstrained
    quadratic, not a confidence interval.
    """

    m_hat: float
    m_err: float
    chi2_red: float
    n_points: int
    model: str
    at_bound: bool
    scale_hat: float | None = None
    scale_err: float | None = None

    def to_dict(self) -> dict:
        out = {
            "M_hat": self.m_hat,
            "M_err": self.m_err,
            "chi2_red": self.chi2_red,
            "n_points": self.n_points,
            "model": self.model,
            "at_bound": self.at_bound,
        }
        if self.scale_hat is not None:
            out["scale_hat"] = self.scale_hat
            out["scale_err"] = self.scale_err
        return out


@dataclass(frozen=True)
class PointOverlap:
    """Overlap inverted from a single sweep point; skipped when the ratio is unusable."""

    ratio: float
    m: float
    m_err: float
    skipped: bool = False


def calibrate_mu_alpha(cal: PowerCalibration) -> float:
    """Mean photon number per pulse from attenuated power: P 10^(-C/10) lambda tau / (h c)."""
    return cal.p_alpha_watts * cal.wavelength_m * cal.tau_rep_s / (_H * _C)


def polarization_efficiency_correction(rate_parallel: float, rate_rotated: float) -> float:
    """Scale factor on the LO photon number that equalizes detected count rates.

    Detection efficiency drops when the LO polarization is rotated away from
    the detector alignment; multiplying the target mean photon number by
    ``rate_parallel / rate_rotated`` restores the detected rate.  The count
    statistics behind the two rates should be folded into the LO
    photon-number error budget by the caller.
    """
    if rate_parallel <= 0 or rate_rotated <= 0:
        raise InvalidParameterError("count rates must be positive")
    return rate_parallel / rate_rotated


def vhom_model(ratio, m: float, g2_psi: float):
    """Visibility vs power ratio r: 2 r m / (r^2 + g2_psi + 2 r)."""
    r = np.asarray(ratio, dtype=float)
    return 2.0 * r * m / (r**2 + g2_psi + 2.0 * r)


def auto_model(ratio, m: float, g2_psi: float):
    """Single-output g2(0) vs power ratio r: (r^2 + g2_psi + 2 r (1 + m)) / (r + 1)^2."""
    r = np.asarray(ratio, dtype=float)
    return (r**2 + g2_psi + 2.0 * r * (1.0 + m)) / (r + 1.0) ** 2


_MODELS = {"vhom": vhom_model, "auto": auto_model}


def _point_arrays(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if len(points) < 3:
        raise IllConditionedFitError(f"need at least 3 sweep points, got {len(points)}")
    r = np.array([p.ratio for p in points], dtype=float)
    y = np.array([p.y for p in points], dtype=float)
    s = np.array([p.y_err for p in points], dtype=float)
    if np.any(r <= 0):
        raise InvalidParameterError("sweep ratios must be positive")
    if np.any(s <= 0):
        raise InvalidParameterError("sweep uncertainties must be positive")
    if not np.isfinite(np.concatenate([r, y, s])).all():
        raise InvalidParameterError("sweep values must be finite")
    if np.ptp(r) == 0.0:
        raise IllConditionedFitError("all sweep points share one abscissa")
    return r, y, s


def _fit_single_parameter(points, g2_psi: float, model_name: str) -> FitResult:
    """Closed-form weighted least squares: both models are y = a(r) + m b(r)."""
    model = _MODELS[model_name]
    r, y, s = _point_arrays(points)
    a = model(r, 0.0, g2_psi)
    b = model(r, 1.0, g2_psi) - a
    w = 1.0 / s**2
    info = float(w @ b**2)  # Fisher information of m: half the curvature of chi2
    if not np.isfinite(info) or info <= 0:
        raise IllConditionedFitError("objective curvature vanished at the optimum")
    m_free = float(w @ (b * (y - a))) / info
    m_hat = min(max(m_free, 0.0), 1.0)
    res = (y - model(r, m_hat, g2_psi)) / s
    return FitResult(
        m_hat=m_hat,
        m_err=info**-0.5,
        chi2_red=float(res @ res) / (len(points) - 1),
        n_points=len(points),
        model=model_name,
        at_bound=not 0.0 <= m_free <= 1.0,
    )


def _fit_with_scale(points, g2_psi: float, model_name: str) -> FitResult:
    from scipy.optimize import least_squares  # only this non-default path needs scipy

    model = _MODELS[model_name]
    r, y, s = _point_arrays(points)

    def residuals(params):
        m, scale = params
        return (y - model(scale * r, m, g2_psi)) / s

    ls = least_squares(residuals, x0=[0.5, 1.0], bounds=([0.0, 1e-2], [1.0, 1e2]))
    if not ls.success:
        raise IllConditionedFitError(f"two-parameter fit failed: {ls.message}")
    jtj = ls.jac.T @ ls.jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        raise IllConditionedFitError("singular normal matrix in two-parameter fit") from None
    errs = np.sqrt(np.diag(cov))
    dof = max(len(points) - 2, 1)
    return FitResult(
        m_hat=float(ls.x[0]),
        m_err=float(errs[0]),
        chi2_red=float(2.0 * ls.cost / dof),
        n_points=len(points),
        model=model_name,
        at_bound=bool(np.any(ls.active_mask != 0)),
        scale_hat=float(ls.x[1]),
        scale_err=float(errs[1]),
    )


def fit_vhom_curve(points, g2_psi: float, fit_scale: bool = False) -> FitResult:
    """Weighted least-squares fit of the visibility sweep for the overlap m.

    Single parameter m, the closed-form estimate clipped to [0, 1]; g2_psi is
    fixed from an independent measurement.  ``fit_scale`` additionally floats
    a multiplicative ratio calibration (off by default).
    """
    if g2_psi < 0:
        raise InvalidParameterError("g2_psi must be >= 0")
    if fit_scale:
        return _fit_with_scale(points, g2_psi, "vhom")
    return _fit_single_parameter(points, g2_psi, "vhom")


def fit_auto_curve(points, g2_psi: float, fit_scale: bool = False) -> FitResult:
    """Weighted least-squares fit of the single-output bunching sweep for m."""
    if g2_psi < 0:
        raise InvalidParameterError("g2_psi must be >= 0")
    if fit_scale:
        return _fit_with_scale(points, g2_psi, "auto")
    return _fit_single_parameter(points, g2_psi, "auto")


def pointwise_overlap(points, g2_psi: float) -> list[PointOverlap]:
    """Invert each visibility point into an overlap with propagated uncertainty.

    The multi-photon correction factor multiplies both the visibility and its
    error, so the overlap uncertainty grows without bound at extreme power
    ratios.  Points with non-positive ratio are skipped and flagged.
    """
    out = []
    for p in points:
        if p.ratio <= 0:
            out.append(PointOverlap(ratio=p.ratio, m=float("nan"), m_err=float("nan"), skipped=True))
            continue
        m = overlap_from_visibility(p.y, p.ratio, 1.0, g2_psi)
        factor = m / p.y if p.y != 0 else overlap_from_visibility(1.0, p.ratio, 1.0, g2_psi)
        out.append(PointOverlap(ratio=p.ratio, m=m, m_err=abs(factor) * p.y_err))
    return out


def brightness_from_auto_peak(
    mu_alpha_at_peak: float,
    bs: BeamSplitterSpec,
    m: float,
    g2_psi: float,
) -> float:
    """Source brightness from the LO power that maximizes single-output bunching.

    mu_psi = T mu_alpha* m / (R (1 + m - g2_psi)); for a balanced splitter
    with ideal overlap and pure single photons this is mu_alpha* / 2.
    """
    if m <= 0:
        raise InvalidParameterError("the bunching curve is monotone for m = 0: no peak")
    if not 0 < m <= 1:
        raise InvalidParameterError(f"m must be in (0, 1], got {m}")
    if g2_psi < 0:
        raise InvalidParameterError("g2_psi must be >= 0")
    if mu_alpha_at_peak <= 0:
        raise InvalidParameterError("peak LO photon number must be positive")
    if bs.reflection <= 0:
        raise InvalidParameterError("beam splitter must reflect part of the source light")
    return bs.transmission * mu_alpha_at_peak * m / (bs.reflection * (1.0 + m - g2_psi))


def read_sweep(path) -> list[SweepPoint]:
    """Read a ``ratio,y,y_err`` sweep CSV with a header row; ratios and y_err must be positive."""
    rows = read_table(path, [_SWEEP_HEADER])[1]
    bad = np.flatnonzero((rows[:, 0] <= 0) | (rows[:, 2] <= 0))
    if bad.size:
        ratio, _, y_err = rows[bad[0]].tolist()
        raise DataFormatError(
            f"ratio and y_err must be positive, got ratio {ratio!r}, y_err {y_err!r}",
            line=row_line(path, [_SWEEP_HEADER], bad[0]),
        )
    return [SweepPoint(*row) for row in rows.tolist()]


def write_sweep(points, path) -> None:
    table = np.array([(p.ratio, p.y, p.y_err) for p in points], dtype=float).reshape(-1, 3)
    write_table(path, _SWEEP_HEADER, table.T)
