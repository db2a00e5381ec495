"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import functools
import math
import time
from unittest import mock

import numpy as np
from scipy.optimize import minimize_scalar

from photonmix import tagstream
from photonmix.analytic_model import (
    LocalOscillator,
    SourceParams,
    auto_g2_zero,
    cross_coincidence,
    hom_visibility,
    peak_analysis,
)
from photonmix.estimator import PowerCalibration, calibrate_mu_alpha, fit_sweep
from photonmix.fock_oracle import (
    BeamSplitterSpec,
    auto_correlation,
    cross_correlations,
    mix_on_beam_splitter,
    required_cutoff,
)
from photonmix.mode_overlap import SampledProfile, overlap_integral
from photonmix.synthetic import displaced_fock_tags, pulsed_coherent_tags
from photonmix.tagstream import build_histogram, g2_zero

BALANCED = BeamSplitterSpec(0.5)
REP = 12195  # ps
G2_REF = 0.0412
M_REF = 0.76


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL: {name}")
                raise
            print(f"ACCEPTANCE PASS: {name}")
            return result

        return wrapper

    return decorate


@criterion("oracle-formula equivalence over the parameter grid (<= 1e-6, < 60 s)")
def test_oracle_formula_equivalence():
    start = time.perf_counter()
    worst_auto = 0.0
    worst_vis = 0.0
    for mu_alpha in (0.01, 0.1, 0.3, 1.0, 2.0):
        cutoff = required_cutoff(mu_alpha, 1e-10)
        for mu_psi in (0.03, 0.3, 1.0):
            for g2_psi in (0.0, 0.04):
                source = SourceParams.from_moments(mu_psi, g2_psi)
                perp = mix_on_beam_splitter(
                    source, LocalOscillator(mu_alpha, theta=math.pi / 2), BALANCED, cutoff
                )
                g_perp = cross_correlations(perp).coincidence
                for m in (0.0, 0.5, 1.0):
                    lo = LocalOscillator(mu_alpha, theta=math.acos(math.sqrt(m)))
                    state = (
                        mix_on_beam_splitter(source, lo, BALANCED, cutoff) if m > 0 else perp
                    )
                    diff_auto = abs(
                        auto_correlation(state) - auto_g2_zero(mu_alpha, mu_psi, g2_psi, m)
                    )
                    g_m = cross_correlations(state).coincidence
                    v_oracle = (g_perp - g_m) / g_perp
                    diff_vis = abs(v_oracle - hom_visibility(mu_alpha, mu_psi, g2_psi, m))
                    worst_auto = max(worst_auto, diff_auto)
                    worst_vis = max(worst_vis, diff_vis)
                    if m > 0:
                        # settles the sign of the interference term: coincidences
                        # drop below the orthogonal reference, matching the
                        # suppressing (1 - m) cross-output form
                        assert v_oracle > 0
                        suppressing = cross_coincidence(mu_alpha, mu_psi, g2_psi, m)
                        enhancing = suppressing + 4.0 * mu_alpha * mu_psi * m
                        separation = enhancing - suppressing
                        assert abs(4.0 * g_m - suppressing) <= 1e-6 * max(1.0, suppressing)
                        assert abs(4.0 * g_m - enhancing) > 0.5 * separation
    elapsed = time.perf_counter() - start
    assert worst_auto <= 1e-6, f"auto-correlation mismatch {worst_auto}"
    assert worst_vis <= 1e-6, f"visibility mismatch {worst_vis}"
    assert elapsed < 60.0, f"grid took {elapsed:.1f} s"


@criterion("oracle-formula equivalence up to the CLI sweep end mu_alpha = 30 (<= 1e-6, < 60 s)")
def test_oracle_formula_equivalence_bright_field():
    start = time.perf_counter()
    worst = 0.0
    for mu_alpha in (5.0, 15.0, 30.0):
        cutoff = required_cutoff(mu_alpha, 1e-10)
        for mu_psi in (0.3, 1.0):
            for g2_psi in (0.0, 0.04):
                source = SourceParams.from_moments(mu_psi, g2_psi)
                perp = mix_on_beam_splitter(
                    source, LocalOscillator(mu_alpha, theta=math.pi / 2), BALANCED, cutoff
                )
                g_perp = cross_correlations(perp).coincidence
                for m in (0.0, 0.5, 1.0):
                    lo = LocalOscillator(mu_alpha, theta=math.acos(math.sqrt(m)))
                    state = (
                        mix_on_beam_splitter(source, lo, BALANCED, cutoff) if m > 0 else perp
                    )
                    v_oracle = (g_perp - cross_correlations(state).coincidence) / g_perp
                    worst = max(
                        worst,
                        abs(auto_correlation(state) - auto_g2_zero(mu_alpha, mu_psi, g2_psi, m)),
                        abs(v_oracle - hom_visibility(mu_alpha, mu_psi, g2_psi, m)),
                    )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6, f"oracle mismatch {worst}"
    assert elapsed < 60.0, f"grid took {elapsed:.1f} s"


@criterion("visibility peak identities at the reference source purity")
def test_visibility_peak_identities():
    report = peak_analysis(G2_REF, M_REF)
    assert abs(report.r_vhom_star - 0.2030) <= 1e-4
    assert abs(report.v_max - 0.6318) <= 1e-4
    # independent check: dense numeric argmax of the closed-form curve
    found = minimize_scalar(
        lambda r: -hom_visibility(r, 1.0, G2_REF, M_REF),
        bounds=(1e-4, 10.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    assert abs(found.x - report.r_vhom_star) <= 1e-6
    assert abs(-found.fun - report.v_max) <= 1e-9
    assert abs(report.v_max - M_REF / (math.sqrt(G2_REF) + 1.0)) <= 1e-12


@criterion("bunching ceiling 4/3 and the reference curve value at r = 2")
def test_bunching_ceiling():
    report = peak_analysis(0.0, 1.0)
    assert abs(report.r_auto_star - 2.0) <= 1e-9
    assert abs(report.g2_auto_max - 4.0 / 3.0) <= 1e-9
    # reference parameters at r = 2; measured maxima in real setups sit a few
    # percent above this model value (detection systematics, r calibration)
    assert abs(auto_g2_zero(2.0, 1.0, G2_REF, M_REF) - 1.2312) <= 1e-4


@criterion("polarization series: factor products reproduce the reference table")
def test_reference_overlap_products():
    m_t, m_f = 0.910, 0.85
    table = [
        (0.976, 0.76),
        (0.86, 0.67),
        (0.72, 0.56),
        (0.34, 0.27),
        (0.0, 0.0),
    ]
    for m_p, printed in table:
        product = m_t * m_f * m_p
        assert abs(product - printed) <= 0.01, (m_p, product, printed)


@criterion("overlap quadrature reproduces closed-form integrals to 1e-4")
def test_overlap_quadrature():
    tau1, tau2 = 170.0, 100.0
    t = np.arange(0.0, 3000.0 + 0.5, 1.0)  # 1 ps sampling

    def exp_amp(tau):
        amp = np.exp(-t / (2.0 * tau))
        amp /= np.sqrt(np.trapezoid(amp**2, t))
        return SampledProfile("time", t, amp, "amplitude")

    m_t = overlap_integral(exp_amp(tau1), exp_amp(tau2))
    closed_t = 4.0 * tau1 * tau2 / (tau1 + tau2) ** 2
    assert abs(m_t - closed_t) <= 1e-4

    delta = 2.0
    x = np.arange(-8.0, 8.0 + 0.005, 0.01)  # 0.01 sigma sampling

    def gauss_amp(center):
        amp = np.exp(-((x - center) ** 2) / 4.0)  # unit-variance intensity
        amp /= np.sqrt(np.trapezoid(amp**2, x))
        return SampledProfile("frequency", x, amp, "amplitude")

    m_f = overlap_integral(gauss_amp(0.0), gauss_amp(delta))
    assert abs(m_f - math.exp(-(delta**2) / 4.0)) <= 1e-4


@criterion("fit coverage >= 95% at 2% noise and exact noiseless recovery")
def test_fit_coverage():
    r = np.geomspace(0.01, 30.0, 20)
    for model, curve in (("vhom", hom_visibility), ("auto", auto_g2_zero)):
        y_true = curve(r, 1.0, G2_REF, M_REF)
        noiseless = fit_sweep(r, y_true, np.full(r.size, 0.01), model, G2_REF)
        assert abs(noiseless.m_hat - M_REF) <= 1e-9
        rng = np.random.default_rng(0)
        sigma = 0.02 * y_true
        hits = 0
        trials = 1000
        for _ in range(trials):
            y = y_true + rng.normal(size=r.size) * sigma
            result = fit_sweep(r, y, sigma, model, G2_REF)
            hits += abs(result.m_hat - M_REF) <= 2.0 * result.m_err
        assert hits >= 950, f"{model}: {hits}/1000 within 2 sigma"


@criterion("ratio-scale fit recovers M and a 1.3 miscalibration within 3 sigma, pulls of unit spread")
def test_scale_fit_recovery():
    r = np.geomspace(0.01, 30.0, 20)
    for model, curve in (("vhom", hom_visibility), ("auto", auto_g2_zero)):
        y_true = curve(1.3 * r, 1.0, G2_REF, M_REF)
        sigma = 0.02 * y_true
        pulls = []
        for seed in range(20):
            y = y_true + np.random.default_rng(seed).normal(size=r.size) * sigma
            result = fit_sweep(r, y, sigma, model, G2_REF, fit_scale=True)
            assert abs(result.m_hat - M_REF) <= 3.0 * result.m_err, f"{model} seed {seed}: M"
            assert abs(result.scale_hat - 1.3) <= 3.0 * result.scale_err, f"{model} seed {seed}: scale"
            pulls.append([(result.m_hat - M_REF) / result.m_err, (result.scale_hat - 1.3) / result.scale_err])
        # the 99.9 % band of a 20-sample standard deviation of unit-variance pulls
        spread = np.std(pulls, axis=0, ddof=1)
        assert np.all((0.5 <= spread) & (spread <= 1.5)), f"{model}: pull spread {spread}"


@criterion("tag pipeline closure at 1e7 pulses, Poissonian control, chunk merge")
def test_tag_pipeline_closure():
    expected = auto_g2_zero(0.06, 0.03, G2_REF, M_REF)
    assert abs(expected - 1.2312) <= 1e-4
    source = SourceParams.from_moments(0.03, G2_REF, tau_lt_ps=170.0)
    lo = LocalOscillator(mu_alpha=0.06, theta=math.acos(math.sqrt(M_REF)))
    cutoff = required_cutoff(0.06, 1e-10)
    stream, truth = displaced_fock_tags(
        source, lo, BALANCED, cutoff, 10_000_000, REP, seed=1
    )
    assert abs(truth["g2_auto_2"] - expected) <= 1e-6
    hist = build_histogram(stream, (2, 2), 25, 122_000, rep_period=REP)
    result = g2_zero(hist)
    assert abs(result.value - expected) <= 3.0 * result.stat_err

    coherent = pulsed_coherent_tags({2: 0.3}, 1_000_000, REP, seed=1)
    hist_coh = build_histogram(coherent, (2, 2), 25, 122_000, rep_period=REP)
    res_coh = g2_zero(hist_coh)
    assert abs(res_coh.value - 1.0) <= 3.0 * res_coh.stat_err

    started, in_child = [], tagstream.in_child
    with mock.patch.object(tagstream, "in_child", lambda *a: started.append(a[0]) or in_child(*a)):
        split = build_histogram(stream, (2, 2), 25, 122_000, rep_period=REP, processes=4)
    assert len(started) == 3
    assert np.array_equal(split.counts, hist.counts)


@criterion("local-oscillator photon-number calibration arithmetic")
def test_calibration_arithmetic():
    cal = PowerCalibration(
        p0_watts=1e-9, attenuation_db=50.0, wavelength_m=925e-9, tau_rep_s=1.0 / 82e6
    )
    mu = calibrate_mu_alpha(cal)
    assert abs(mu - 5.676e-4) / 5.676e-4 <= 1e-3
