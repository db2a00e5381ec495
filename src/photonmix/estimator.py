"""Calibrations and statistical inference for the interference measurements.

Covers the local-oscillator photon-number calibration from optical power and
the weighted fit of a visibility or bunching sweep that recovers the mean
wavepacket overlap.

A sweep is three equal-length arrays: the power ratio ``ratio``
(mu_alpha / mu_psi), the measured ``y`` and its error ``y_err``.  Its model
curves are the closed forms of :mod:`photonmix.analytic_model`, named in
``SWEEP_MODELS``.  The per-point overlap needs no function of its own:
:func:`~photonmix.analytic_model.overlap_from_visibility` is linear in the
visibility, so applied to ``y`` and to ``y_err`` it gives each point's
overlap and its error.

Both sweep models are affine in the overlap m, so at a given ratio scale
the closed-form weighted least-squares estimate, clipped to [0, 1], is the
exact best m, with its exact curvature error.  The default fit is that
estimate; the optional fit that also floats the ratio scale profiles it over
the scale.  That fit also gives the source brightness: for a balanced
splitter, on ratios taken at a nominal mu_psi it returns
``scale_hat = nominal / mu_psi``, with its error ``scale_err``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic_model import auto_g2_zero, hom_visibility
from .errors import IllConditionedFitError, InvalidParameterError
from .tables import read_table, refuse_rows

#: The header of a sweep table: what ``fit`` reads and ``simulate`` writes as its noisy points.
SWEEP_HEADER = ("ratio", "y", "y_err")

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


def calibrate_mu_alpha(cal: PowerCalibration) -> float:
    """Mean photon number per pulse from attenuated power: P 10^(-C/10) lambda tau / (h c)."""
    return 10.0 ** (-cal.attenuation_db / 10.0) * cal.p0_watts * cal.wavelength_m * cal.tau_rep_s / (_H * _C)


#: Sweep model names, as the fit and the CLI take them, and their closed forms,
#: called as ``curve(ratio, g2_psi, m)``.
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


def _fit_single_parameter(r, y, s, g2_psi: float, model: str) -> dict:
    """Closed-form weighted least squares: both models are y = a(r) + m b(r)."""
    curve = SWEEP_MODELS[model]
    a = curve(r, g2_psi, 0.0)
    b = curve(r, g2_psi, 1.0) - a
    w = 1.0 / s**2
    info = float(w @ b**2)  # Fisher information of m: half the curvature of chi2
    if not np.isfinite(info) or info <= 0:
        raise IllConditionedFitError("objective curvature vanished at the optimum")
    m_free = float(w @ (b * (y - a))) / info
    m_hat = min(max(m_free, 0.0), 1.0)
    res = (y - curve(r, g2_psi, m_hat)) / s
    return {
        "M_hat": m_hat,
        "M_err": info**-0.5,
        "chi2_red": float(res @ res) / (r.size - 1),
        "n_points": r.size,
        "model": model,
        "at_bound": not 0.0 <= m_free <= 1.0,
    }


def _fit_with_scale(r, y, s, g2_psi: float, model: str) -> dict:
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
        i = int(np.argmin([fit["chi2_red"] for fit in fits]))
        lo, hi, n = grid[max(i - 1, 0)], grid[min(i + 1, n - 1)], 5
    scale, fit = grid[i], fits[i]
    # Gauss-Newton curvature: the m column exact, the scale column a central difference
    curve, h = SWEEP_MODELS[model], 1e-5 * scale
    jac = np.column_stack([
        curve(scale * r, g2_psi, 1.0) - curve(scale * r, g2_psi, 0.0),
        (curve((scale + h) * r, g2_psi, fit["M_hat"]) - curve((scale - h) * r, g2_psi, fit["M_hat"])) / (2 * h),
    ]) / s[:, None]
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        raise IllConditionedFitError("singular normal matrix in two-parameter fit") from None
    m_err, scale_err = np.sqrt(np.diag(cov)).tolist()
    return {
        **fit,
        "M_err": m_err,
        "chi2_red": fit["chi2_red"] * (r.size - 1) / (r.size - 2),
        "at_bound": fit["at_bound"] or scale in (1e-2, 1e2),
        "scale_hat": float(scale),
        "scale_err": scale_err,
    }


def fit_sweep(ratio, y, y_err, model: str, g2_psi: float, fit_scale: bool = False) -> dict:
    """Weighted least-squares fit of a sweep for the overlap m: the ``fit.json`` document.

    ``model`` names the sweep curve in ``SWEEP_MODELS``: ``"vhom"`` for the
    visibility, ``"auto"`` for the single-output bunching.  Single parameter
    m, the closed-form estimate clipped to [0, 1]; g2_psi is fixed from an
    independent measurement.  ``fit_scale`` additionally floats a
    multiplicative ratio calibration in [1e-2, 1e2] (off by default).

    Only a fit with ``fit_scale`` holds ``scale_hat`` and ``scale_err``.
    ``at_bound`` is true when a parameter
    was held at the edge of its range: the unclipped overlap lies outside
    [0, 1], or the fitted scale is 1e-2 or 1e2.  The errors are then the
    curvature of an unconstrained quadratic, not a confidence interval.
    """
    if model not in SWEEP_MODELS:
        raise InvalidParameterError(f"unknown sweep model {model!r}, expected one of {list(SWEEP_MODELS)}")
    if not np.isfinite(g2_psi):
        raise InvalidParameterError(f"g2_psi must be finite, got {g2_psi}")
    if g2_psi < 0:
        raise InvalidParameterError("g2_psi must be >= 0")
    fit = _fit_with_scale if fit_scale else _fit_single_parameter
    return fit(*_point_arrays(ratio, y, y_err), g2_psi, model)


def read_sweep(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a ``ratio,y,y_err`` sweep CSV with a header row into its three columns.

    Ratios and y_err must be positive.
    """
    rows = read_table(path, [SWEEP_HEADER])[1]
    ratio, _, y_err = rows.T
    refuse_rows(
        path, [SWEEP_HEADER], (ratio <= 0) | (y_err <= 0),
        lambda k: f"ratio and y_err must be positive, got ratio {ratio[k].item()!r}, y_err {y_err[k].item()!r}",
    )
    return tuple(rows.T)
