"""Calibrations and statistical inference for the interference measurements.

Covers the local-oscillator photon-number calibration from optical power,
the polarization-dependent detection-efficiency correction, the weighted
fit of a visibility or bunching sweep that recovers the mean wavepacket
overlap, and the brightness estimate from the location of the bunching
maximum.

A sweep is three equal-length arrays: the power ratio ``ratio``
(mu_alpha / mu_psi), the measured ``y`` and its error ``y_err``.  Its model
curves are the closed forms of :mod:`photonmix.analytic_model` at
mu_psi = 1, named in ``SWEEP_MODELS``.  The per-point overlap needs no
function of its own: :func:`~photonmix.analytic_model.overlap_from_visibility`
is linear in the visibility, so applied to ``y`` and to ``y_err`` it gives
each point's overlap and its error.

Both sweep models are affine in the overlap m, so the default fit is the
closed-form weighted least-squares estimate with its exact curvature error.
Only the optional fit that also floats the ratio scale is iterative; it
imports scipy's ``least_squares`` when called, so no other path loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic_model import auto_g2_zero, hom_visibility, peak_analysis
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


#: Sweep model names, as the fit and the CLI take them, and their closed forms,
#: called as ``curve(ratio, 1.0, g2_psi, m)``.
SWEEP_MODELS = {"vhom": hom_visibility, "auto": auto_g2_zero}


def _point_arrays(ratio, y, y_err) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    r, y, s = (np.array(column, dtype=float) for column in (ratio, y, y_err))
    if r.ndim != 1 or not r.shape == y.shape == s.shape:
        raise InvalidParameterError("ratio, y and y_err must be 1-D and of one length")
    if r.size < 3:
        raise IllConditionedFitError(f"need at least 3 sweep points, got {r.size}")
    if np.any(r <= 0):
        raise InvalidParameterError("sweep ratios must be positive")
    if np.any(s <= 0):
        raise InvalidParameterError("sweep uncertainties must be positive")
    if not np.isfinite(np.concatenate([r, y, s])).all():
        raise InvalidParameterError("sweep values must be finite")
    if np.ptp(r) == 0.0:
        raise IllConditionedFitError("all sweep points share one abscissa")
    return r, y, s


def _fit_single_parameter(r, y, s, g2_psi: float, model: str) -> FitResult:
    """Closed-form weighted least squares: both models are y = a(r) + m b(r)."""
    curve = SWEEP_MODELS[model]
    a = curve(r, 1.0, g2_psi, 0.0)
    b = curve(r, 1.0, g2_psi, 1.0) - a
    w = 1.0 / s**2
    info = float(w @ b**2)  # Fisher information of m: half the curvature of chi2
    if not np.isfinite(info) or info <= 0:
        raise IllConditionedFitError("objective curvature vanished at the optimum")
    m_free = float(w @ (b * (y - a))) / info
    m_hat = min(max(m_free, 0.0), 1.0)
    res = (y - curve(r, 1.0, g2_psi, m_hat)) / s
    return FitResult(
        m_hat=m_hat,
        m_err=info**-0.5,
        chi2_red=float(res @ res) / (r.size - 1),
        n_points=r.size,
        model=model,
        at_bound=not 0.0 <= m_free <= 1.0,
    )


def _fit_with_scale(r, y, s, g2_psi: float, model: str) -> FitResult:
    from scipy.optimize import least_squares  # only this non-default path needs scipy

    curve = SWEEP_MODELS[model]

    def residuals(params):
        m, scale = params
        return (y - curve(scale * r, 1.0, g2_psi, m)) / s

    ls = least_squares(residuals, x0=[0.5, 1.0], bounds=([0.0, 1e-2], [1.0, 1e2]))
    if not ls.success:
        raise IllConditionedFitError(f"two-parameter fit failed: {ls.message}")
    jtj = ls.jac.T @ ls.jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        raise IllConditionedFitError("singular normal matrix in two-parameter fit") from None
    errs = np.sqrt(np.diag(cov))
    dof = max(r.size - 2, 1)
    return FitResult(
        m_hat=float(ls.x[0]),
        m_err=float(errs[0]),
        chi2_red=float(2.0 * ls.cost / dof),
        n_points=r.size,
        model=model,
        at_bound=bool(np.any(ls.active_mask != 0)),
        scale_hat=float(ls.x[1]),
        scale_err=float(errs[1]),
    )


def fit_sweep(ratio, y, y_err, model: str, g2_psi: float, fit_scale: bool = False) -> FitResult:
    """Weighted least-squares fit of a sweep for the overlap m.

    ``model`` names the sweep curve in ``SWEEP_MODELS``: ``"vhom"`` for the
    visibility, ``"auto"`` for the single-output bunching.  Single parameter
    m, the closed-form estimate clipped to [0, 1]; g2_psi is fixed from an
    independent measurement.  ``fit_scale`` additionally floats a
    multiplicative ratio calibration (off by default).
    """
    if model not in SWEEP_MODELS:
        raise InvalidParameterError(f"unknown sweep model {model!r}, expected one of {list(SWEEP_MODELS)}")
    if g2_psi < 0:
        raise InvalidParameterError("g2_psi must be >= 0")
    fit = _fit_with_scale if fit_scale else _fit_single_parameter
    return fit(*_point_arrays(ratio, y, y_err), g2_psi, model)


def brightness_from_auto_peak(
    mu_alpha_at_peak: float,
    bs: BeamSplitterSpec,
    m: float,
    g2_psi: float,
) -> float:
    """Source brightness from the LO power that maximizes single-output bunching.

    mu_psi = T mu_alpha* / (R r*), with r* the bunching peak's power ratio
    from :func:`~photonmix.analytic_model.peak_analysis`; for a balanced
    splitter with ideal overlap and pure single photons this is
    mu_alpha* / 2.  The curve has no peak at r > 0 for m = 0 or
    g2_psi >= 1 + m.
    """
    r_star = peak_analysis(g2_psi, m).r_auto_star
    if r_star is None:
        raise InvalidParameterError(
            f"the bunching curve is monotone for m = {m}, g2_psi = {g2_psi}: no peak"
        )
    if mu_alpha_at_peak <= 0:
        raise InvalidParameterError("peak LO photon number must be positive")
    if bs.reflection <= 0:
        raise InvalidParameterError("beam splitter must reflect part of the source light")
    return bs.transmission * mu_alpha_at_peak / (bs.reflection * r_star)


def read_sweep(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a ``ratio,y,y_err`` sweep CSV with a header row into its three columns.

    Ratios and y_err must be positive.
    """
    rows = read_table(path, [_SWEEP_HEADER])[1]
    bad = np.flatnonzero((rows[:, 0] <= 0) | (rows[:, 2] <= 0))
    if bad.size:
        ratio, _, y_err = rows[bad[0]].tolist()
        raise DataFormatError(
            f"ratio and y_err must be positive, got ratio {ratio!r}, y_err {y_err!r}",
            line=row_line(path, [_SWEEP_HEADER], bad[0]),
        )
    return tuple(rows.T)


def write_sweep(path, ratio, y, y_err) -> None:
    write_table(path, _SWEEP_HEADER, [ratio, y, y_err])
