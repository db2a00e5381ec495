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

Both sweep models are affine in the overlap m, so at a given ratio scale
the closed-form weighted least-squares estimate, clipped to [0, 1], is the
exact best m, with its exact curvature error.  The default fit is that
estimate; the optional fit that also floats the ratio scale profiles it over
the scale.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

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
    """Fitted overlap, and ratio scale if it was fitted too, with curvature errors.

    ``at_bound`` is true when a parameter was held at the edge of its range:
    the unclipped overlap lies outside [0, 1], or the fitted scale is 1e-2 or
    1e2.  The errors are then the curvature of an unconstrained quadratic,
    not a confidence interval.
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
        out = {name: value for name, value in asdict(self).items() if value is not None}
        return {"M_hat": out.pop("m_hat"), "M_err": out.pop("m_err"), **out}


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
    """The closed-form fit at ``scale * r``, profiled over the scale in [1e-2, 1e2].

    chi2 is quadratic in m, so at each scale the clipped closed form is its
    exact minimum over m in [0, 1] (variable projection).  The profile may
    have more than one minimum: a log-spaced grid over the whole range finds
    the best one, and grids between the best point's neighbours refine it.
    """
    lo, hi, n = 1e-2, 1e2, 65
    while hi / lo > 1.0 + 1e-9:
        grid = np.geomspace(lo, hi, n)
        fits = [_fit_single_parameter(scale * r, y, s, g2_psi, model) for scale in grid]
        i = int(np.argmin([fit.chi2_red for fit in fits]))
        lo, hi, n = grid[max(i - 1, 0)], grid[min(i + 1, n - 1)], 5
    scale, fit = grid[i], fits[i]
    # Gauss-Newton curvature: the m column exact, the scale column a central difference
    curve, h = SWEEP_MODELS[model], 1e-5 * scale
    jac = np.column_stack([
        curve(scale * r, 1.0, g2_psi, 1.0) - curve(scale * r, 1.0, g2_psi, 0.0),
        (curve((scale + h) * r, 1.0, g2_psi, fit.m_hat) - curve((scale - h) * r, 1.0, g2_psi, fit.m_hat)) / (2 * h),
    ]) / s[:, None]
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        raise IllConditionedFitError("singular normal matrix in two-parameter fit") from None
    m_err, scale_err = np.sqrt(np.diag(cov)).tolist()
    return replace(
        fit,
        m_err=m_err,
        chi2_red=fit.chi2_red * (r.size - 1) / max(r.size - 2, 1),
        at_bound=fit.at_bound or scale in (1e-2, 1e2),
        scale_hat=float(scale),
        scale_err=scale_err,
    )


def fit_sweep(ratio, y, y_err, model: str, g2_psi: float, fit_scale: bool = False) -> FitResult:
    """Weighted least-squares fit of a sweep for the overlap m.

    ``model`` names the sweep curve in ``SWEEP_MODELS``: ``"vhom"`` for the
    visibility, ``"auto"`` for the single-output bunching.  Single parameter
    m, the closed-form estimate clipped to [0, 1]; g2_psi is fixed from an
    independent measurement.  ``fit_scale`` additionally floats a
    multiplicative ratio calibration in [1e-2, 1e2] (off by default).
    """
    if model not in SWEEP_MODELS:
        raise InvalidParameterError(f"unknown sweep model {model!r}, expected one of {list(SWEEP_MODELS)}")
    if not np.isfinite(g2_psi):
        raise InvalidParameterError(f"g2_psi must be finite, got {g2_psi}")
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
