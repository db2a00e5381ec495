"""Output checks for the benchmark, independent of the numbers the program reports.

Every check returns a list of failure messages; an empty list means the
output passed.  The histogram reference is an exact sorted-difference sweep
written here, not a call into ``photonmix.tagstream``; g2 and visibility
values and their Poisson errors are recomputed from that reference; oracle
spot checks are compared with the paper's closed forms, written out here
rather than taken from ``photonmix.analytic_model``.
"""

from __future__ import annotations

import math

import numpy as np

#: Largest |oracle - closed form| accepted for an oracle spot check.
ORACLE_TOL = 1e-6
#: Largest deviation accepted for an analytic peak identity.
PEAK_TOL = 1e-9
#: Relative tolerance between the program's g2/visibility and the recomputed value.
RECOMPUTE_RTOL = 1e-9
#: Allowed distance, in standard errors, of a measured ratio from its ground truth.
TRUTH_SIGMAS = 5.0
#: Allowed distance, in reported fit errors, of the fitted overlap from the true one.
FIT_SIGMAS = 4.0


def hom_visibility(mu_alpha: float, mu_psi: float, g2_psi: float, m: float) -> float:
    """Cross-output coincidence suppression, 2 mu_a mu_psi m / (mu_a^2 + mu_psi^2 g2_psi + 2 mu_a mu_psi)."""
    return 2.0 * mu_alpha * mu_psi * m / (mu_alpha**2 + mu_psi**2 * g2_psi + 2.0 * mu_alpha * mu_psi)


def auto_g2_zero(mu_alpha: float, mu_psi: float, g2_psi: float, m: float) -> float:
    """Single-output g2(0), (mu_a^2 + mu_psi^2 g2_psi + 2 mu_a mu_psi (1 + m)) / (mu_a + mu_psi)^2."""
    return (mu_alpha**2 + mu_psi**2 * g2_psi + 2.0 * mu_alpha * mu_psi * (1.0 + m)) / (mu_alpha + mu_psi) ** 2


def cross_g2_zero(mu_alpha: float, mu_psi: float, g2_psi: float, m: float) -> float:
    """Normalized cross-output coincidences of a balanced splitter, the same with (1 - m)."""
    return (mu_alpha**2 + mu_psi**2 * g2_psi + 2.0 * mu_alpha * mu_psi * (1.0 - m)) / (mu_alpha + mu_psi) ** 2


def reference_histogram(channels, times, pair, bin_width: int, tau_max: int) -> np.ndarray:
    """Exact delay histogram of ordered record pairs by a sorted-difference sweep.

    Records of both channels are merged in time order.  Offset ``k`` pairs
    record ``i`` with record ``i + k``; for a fixed ``i`` the delay grows with
    ``k``, so the sweep stops at the first offset where every delay exceeds
    ``tau_max + bin_width``.  An earlier A record and a later B record give
    ``tau = +d``, the reverse order gives ``-d``; for an auto pair both hold,
    so each pair of distinct records counts once in each order and no record
    pairs with itself.  Delay ``tau`` lands in bin ``floor(tau / w + 1/2)``.
    """
    ch_a, ch_b = pair
    channels = np.asarray(channels, dtype=np.int64)
    times = np.asarray(times, dtype=np.int64)
    keep = (channels == ch_a) | (channels == ch_b)
    order = np.argsort(times[keep], kind="stable")
    t = times[keep][order]
    c = channels[keep][order]
    is_a = c == ch_a
    is_b = c == ch_b
    k_max = tau_max // bin_width
    counts = np.zeros(2 * k_max + 1, dtype=np.int64)
    reach = tau_max + bin_width
    for k in range(1, t.size):
        d = t[k:] - t[:-k]
        near = d <= reach
        if not near.any():
            break
        for sign, first, second in ((1, is_a, is_b), (-1, is_b, is_a)):
            sel = near & first[:-k] & second[k:]
            bins = (2 * sign * d[sel] + bin_width) // (2 * bin_width)
            bins = bins[np.abs(bins) <= k_max]
            counts += np.bincount(bins + k_max, minlength=counts.size)
    return counts


def candidate_pairs(channels, times, pair, bin_width: int, tau_max: int) -> int:
    """A-side records times B-side records within +-(tau_max + bin_width), self pairs included."""
    ch_a, ch_b = pair
    t_a = times[channels == ch_a]
    t_b = times[channels == ch_b]
    reach = tau_max + bin_width
    hi = np.searchsorted(t_b, t_a + reach, side="right")
    lo = np.searchsorted(t_b, t_a - reach, side="left")
    return int((hi - lo).sum())


def default_window(rep_period: int, bin_width: int) -> int:
    """Central window: half a period rounded down to a bin multiple, strictly below half."""
    window = (rep_period // 2 // bin_width) * bin_width
    if 2 * window >= rep_period:
        window -= bin_width
    return window


def g2_from_counts(counts, bin_width: int, tau_max: int, rep_period: int, n_side_peaks: int = 10):
    """Zero-delay window area over the mean side-window area, with its Poisson error."""
    k_max = tau_max // bin_width
    centers = np.arange(-k_max, k_max + 1, dtype=np.int64) * bin_width
    window = default_window(rep_period, bin_width)

    def area(center: int) -> int:
        return int(counts[2 * np.abs(centers - center) <= window].sum())

    peak0 = area(0)
    half = n_side_peaks // 2
    side_total = sum(area(s * m * rep_period) for m in range(1, half + 1) for s in (1, -1))
    value = peak0 / (side_total / n_side_peaks)
    err = value * math.sqrt((1.0 / peak0 if peak0 else 0.0) + 1.0 / side_total)
    return value, err


def visibility_from_g2(par, perp):
    """(g_perp - g_par) / g_perp with the propagated error, from (value, err) pairs."""
    v = (perp[0] - par[0]) / perp[0]
    err = math.hypot(par[1] / perp[0], par[0] * perp[1] / perp[0] ** 2)
    return v, err


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_histogram(path, reference: np.ndarray, bin_width: int, tau_max: int) -> list[str]:
    """``tau_ps,counts`` CSV must equal the reference bin for bin."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
        table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable histogram ({exc})"]
    if header != "tau_ps,counts":
        return [f"{path}: header {header!r}"]
    k_max = tau_max // bin_width
    centers = np.arange(-k_max, k_max + 1, dtype=np.int64) * bin_width
    if table.shape != (centers.size, 2):
        return [f"{path}: shape {table.shape}, expected ({centers.size}, 2)"]
    failures = []
    if not np.array_equal(table[:, 0], centers):
        failures.append(f"{path}: bin centers differ from multiples of {bin_width}")
    diff = np.flatnonzero(table[:, 1] != reference)
    if diff.size:
        i = diff[0]
        failures.append(
            f"{path}: {diff.size} bins differ from the reference, first at tau={centers[i]} "
            f"({table[i, 1]} != {reference[i]})"
        )
    return failures


def check_g2(reported: dict, ref: tuple[float, float], truth: float, label: str) -> list[str]:
    """Reported g2 equals the value recomputed from the reference and lies near the truth."""
    failures = []
    value, err = ref
    if not _close(reported.get("value", math.nan), value, RECOMPUTE_RTOL):
        failures.append(f"{label}: g2 {reported.get('value')} != recomputed {value}")
    if not _close(reported.get("stat_err", math.nan), err, RECOMPUTE_RTOL):
        failures.append(f"{label}: stat_err {reported.get('stat_err')} != recomputed {err}")
    if not abs(value - truth) <= TRUTH_SIGMAS * err:
        failures.append(f"{label}: g2 {value} is {abs(value - truth) / err:.1f} sigma from truth {truth}")
    return failures


def check_visibility(reported: dict, ref: tuple[float, float], truth: float) -> list[str]:
    failures = []
    v, err = ref
    if not _close(reported.get("v_hom", math.nan), v, RECOMPUTE_RTOL):
        failures.append(f"visibility: v_hom {reported.get('v_hom')} != recomputed {v}")
    if not _close(reported.get("err", math.nan), err, RECOMPUTE_RTOL):
        failures.append(f"visibility: err {reported.get('err')} != recomputed {err}")
    if not abs(v - truth) <= TRUTH_SIGMAS * err:
        failures.append(f"visibility: v_hom {v} is {abs(v - truth) / err:.1f} sigma from truth {truth}")
    return failures


def check_oracle_report(report: dict, cfg: dict) -> list[str]:
    """Oracle spot checks against the closed forms, and the analytic peak identities.

    The oracle numbers in the report are compared with the closed forms
    above, never with the report's own analytic columns.
    """
    failures = []
    m, g2_psi, mu_psi = cfg["m"], cfg["g2_psi"], cfg["mu_psi"]
    checks = report.get("oracle_checks", [])
    ratios = [c.get("ratio") for c in checks]
    if ratios != cfg["oracle_check_ratios"]:
        failures.append(f"oracle checks at ratios {ratios}, expected {cfg['oracle_check_ratios']}")
    for c in checks:
        mu_alpha = c["ratio"] * mu_psi
        for key, formula in (("v_hom_oracle", hom_visibility), ("g2_auto_oracle", auto_g2_zero)):
            expected = formula(mu_alpha, mu_psi, g2_psi, m)
            got = c.get(key, math.nan)
            if not abs(got - expected) <= ORACLE_TOL:
                failures.append(f"ratio {c['ratio']}: {key} {got} vs closed form {expected}")
    peaks = report.get("peaks", {})
    identities = {
        "r_vhom_star": math.sqrt(g2_psi),
        "v_max": m / (math.sqrt(g2_psi) + 1.0),
        "r_auto_star": (1.0 + m - g2_psi) / m,
    }
    for key, expected in identities.items():
        got = peaks.get(key)
        if got is None or not abs(got - expected) <= PEAK_TOL:
            failures.append(f"peak identity {key}: {got} vs {expected}")
    return failures


def check_fit(fit: dict, m: float, n_points: int) -> list[str]:
    m_hat, m_err = fit.get("M_hat", math.nan), fit.get("M_err", math.nan)
    failures = []
    if fit.get("n_points") != n_points:
        failures.append(f"fit used {fit.get('n_points')} points, expected {n_points}")
    if not (m_err > 0.0 and abs(m_hat - m) <= FIT_SIGMAS * m_err):
        failures.append(f"fit: M_hat {m_hat} +- {m_err} misses M = {m} by more than {FIT_SIGMAS} sigma")
    return failures
