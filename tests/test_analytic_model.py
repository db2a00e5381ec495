import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from photonmix.analytic_model import (
    LocalOscillator,
    SourceParams,
    auto_g2_zero,
    cross_coincidence,
    g2_from_probs,
    hom_visibility,
    loss_degraded_probs,
    overlap_from_visibility,
    peak_analysis,
)
from photonmix.errors import InvalidParameterError, UndefinedCorrelationError

#: A ratio whose square through Python's ``float ** 2`` differs from ``r * r`` in the last digit.
R_POW_ROUNDS = 47.29386512309867


class TestG2FromProbs:
    def test_pure_single_photon(self):
        assert g2_from_probs(1.0, 0.0) == 0.0

    def test_two_photon_fock(self):
        assert g2_from_probs(0.0, 1.0) == 0.5

    def test_reference_point(self):
        # p1 + 2 p2 = 1 exactly, so g2 = 2 p2
        assert g2_from_probs(0.96, 0.02) == pytest.approx(0.04, abs=1e-15)

    def test_undefined_for_vacuum(self):
        with pytest.raises(UndefinedCorrelationError):
            g2_from_probs(0.0, 0.0)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(InvalidParameterError):
            g2_from_probs(-0.1, 0.5)
        with pytest.raises(InvalidParameterError):
            g2_from_probs(0.7, 0.5)


class TestLossDegradedProbs:
    def test_lossless_single_photon(self):
        assert loss_degraded_probs(1.0, 0.0, 1.0) == (0.0, 1.0, 0.0)

    def test_half_loss_single_photon(self):
        assert loss_degraded_probs(1.0, 0.0, 0.5) == (0.5, 0.5, 0.0)

    def test_identity_at_unit_transmission(self):
        q0, q1, q2 = loss_degraded_probs(0.96, 0.02, 1.0)
        assert (q0, q1, q2) == pytest.approx((0.0, 0.96, 0.02), abs=1e-15)

    @given(
        p1=st.floats(1e-3, 1.0),
        frac=st.floats(0.0, 1.0),
        eta=st.floats(1e-3, 1.0),
    )
    def test_g2_is_loss_independent(self, p1, frac, eta):
        p2 = (1.0 - p1) * frac
        q0, q1, q2 = loss_degraded_probs(p1, p2, eta)
        assert g2_from_probs(p1, p2) == pytest.approx(
            2 * q2 / (q1 + 2 * q2) ** 2, rel=1e-9
        )


class TestCrossCoincidence:
    def test_full_overlap_unit_fields(self):
        assert cross_coincidence(1.0, 1.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_orthogonal_unit_fields(self):
        assert cross_coincidence(1.0, 1.0, 0.0, 0.0) == pytest.approx(3.0)

    def test_coherent_only(self):
        for mu in (0.2, 1.0, 5.0):
            assert cross_coincidence(mu, 0.0, 0.3, 0.7) == pytest.approx(mu**2)

    def test_independent_fields_value(self):
        mu_a, mu_p, g2 = 0.7, 0.4, 0.05
        expected = mu_a**2 + mu_p**2 * g2 + 2 * mu_a * mu_p
        assert cross_coincidence(mu_a, mu_p, g2, 0.0) == pytest.approx(expected, abs=1e-15)


class TestHomVisibility:
    def test_unit_fields_full_overlap(self):
        assert hom_visibility(1.0, 1.0, 0.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_peak_ratio_equals_closed_form_maximum(self):
        g2, m = 0.0412, 0.76
        r = 0.203 * 1.0
        v = hom_visibility(r, 1.0, g2, m)
        assert v == pytest.approx(m / (math.sqrt(g2) + 1.0), abs=1e-4)
        assert v == pytest.approx(0.6318, abs=1e-3)

    def test_zero_overlap(self):
        assert hom_visibility(0.5, 2.0, 0.1, 0.0) == 0.0

    def test_undefined_without_coincidences(self):
        with pytest.raises(UndefinedCorrelationError):
            hom_visibility(0.0, 0.0, 0.0, 0.5)
        with pytest.raises(UndefinedCorrelationError):
            hom_visibility(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.0, 0.5)


class TestOverlapFromVisibility:
    def test_reference_inversion(self):
        m = overlap_from_visibility(0.6318, 0.203, 1.0, 0.0412)
        assert m == pytest.approx(0.760, abs=1e-3)

    def test_round_trip_unit_fields(self):
        v = hom_visibility(1.0, 1.0, 0.0, 1.0)
        assert overlap_from_visibility(v, 1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_zero_visibility(self):
        assert overlap_from_visibility(0.0, 0.5, 0.5, 0.2) == 0.0

    def test_divergent_correction_rejected(self):
        with pytest.raises(InvalidParameterError):
            overlap_from_visibility(0.5, 0.0, 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            overlap_from_visibility(0.5, 1.0, 0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            overlap_from_visibility(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            overlap_from_visibility(0.5, 1.0, np.array([1.0, -1.0]), 0.0)

    @given(
        mu_a=st.floats(1e-3, 1e3),
        mu_p=st.floats(1e-3, 1e3),
        g2=st.floats(0.0, 1.0),
        m=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_exact_inverse_of_visibility(self, mu_a, mu_p, g2, m):
        v = hom_visibility(mu_a, mu_p, g2, m)
        assert overlap_from_visibility(v, mu_a, mu_p, g2) == pytest.approx(m, abs=1e-12)


class TestAutoG2Zero:
    def test_coherent_limit(self):
        assert auto_g2_zero(0.8, 0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_source_limit(self):
        assert auto_g2_zero(0.0, 0.5, 0.0412, 0.3) == pytest.approx(0.0412, abs=1e-15)

    def test_reference_point(self):
        assert auto_g2_zero(2.0, 1.0, 0.0412, 0.76) == pytest.approx(1.2312, abs=1e-4)

    def test_undefined_for_two_vacua(self):
        with pytest.raises(UndefinedCorrelationError):
            auto_g2_zero(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(UndefinedCorrelationError):
            auto_g2_zero(np.array([0.5, 0.0]), 0.0, 0.0, 0.0)

    def test_strictly_increasing_in_overlap(self):
        ms = np.linspace(0.0, 1.0, 41)
        for r in (0.1, 0.5, 2.0, 10.0):
            values = [auto_g2_zero(r, 1.0, 0.0412, m) for m in ms]
            assert np.all(np.diff(values) > 0)

    def test_range_over_parameter_grid(self):
        # exact envelope: the curve stays above min(1, g2) and below its peak
        # value 1 + m^2 / (1 + 2m - g2); the 4/3 ceiling is the g2 = 0 case
        # (two-photon noise at high overlap pushes the peak slightly above it)
        for g2 in np.linspace(0.0, 1.0, 6):
            for m in np.linspace(0.0, 1.0, 6):
                ceiling = 1.0 + m**2 / (1.0 + 2.0 * m - g2) if m > 0 else 1.0
                for r in np.geomspace(1e-3, 1e3, 25):
                    value = auto_g2_zero(r, 1.0, g2, m)
                    assert min(1.0, g2) - 1e-12 <= value <= ceiling + 1e-12
                    if g2 == 0.0:
                        assert value <= 4.0 / 3.0 + 1e-12

    def test_pure_source_peak_never_exceeds_four_thirds(self):
        for m in np.linspace(0.0, 1.0, 21):
            for r in np.geomspace(1e-3, 1e3, 61):
                assert auto_g2_zero(r, 1.0, 0.0, m) <= 4.0 / 3.0 + 1e-12


class TestPeakAnalysis:
    def test_reference_visibility_peak(self):
        report = peak_analysis(0.0412, 0.76)
        assert report.r_vhom_star == pytest.approx(0.2030, abs=1e-4)
        assert report.v_max == pytest.approx(0.6318, abs=1e-4)

    def test_ideal_bunching_peak(self):
        report = peak_analysis(0.0, 1.0)
        assert report.r_auto_star == pytest.approx(2.0, abs=1e-12)
        assert report.g2_auto_max == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_reference_bunching_peak(self):
        report = peak_analysis(0.0412, 0.76)
        assert report.r_auto_star == pytest.approx(2.2616, abs=1e-4)
        assert report.g2_auto_max == pytest.approx(1.2330, abs=1e-4)

    def test_monotone_curve_has_no_auto_peak(self):
        report = peak_analysis(0.05, 0.0)
        assert report.r_auto_star is None
        assert report.g2_auto_max is None

    @pytest.mark.parametrize("g2, m", [(1.5, 0.5), (2.0, 0.5), (2.0, 1.0), (3.0, 0.2)])
    def test_no_auto_peak_where_the_stationary_point_is_not_positive(self, g2, m):
        # g2_psi >= 1 + m: the curve falls on all of r > 0, its stationary point (1 + m - g2_psi) / m is at r <= 0
        report = peak_analysis(g2, m)
        assert report.r_auto_star is None
        assert report.g2_auto_max is None

    def test_auto_peak_just_inside_the_ratio_domain(self):
        report = peak_analysis(1.49, 0.5)
        assert report.r_auto_star == pytest.approx(0.02, rel=1e-9)
        assert report.g2_auto_max == auto_g2_zero(report.r_auto_star, 1.0, 1.49, 0.5)

    @given(g2=st.floats(1e-4, 1.0), m=st.floats(0.05, 1.0))
    @settings(max_examples=60)
    def test_closed_forms_match_numeric_argmax(self, g2, m):
        report = peak_analysis(g2, m)
        neg_v = lambda r: -hom_visibility(r, 1.0, g2, m)
        found = minimize_scalar(neg_v, bounds=(1e-6, 50.0), method="bounded",
                                options={"xatol": 1e-10})
        assert found.x == pytest.approx(report.r_vhom_star, abs=1e-6)
        assert -found.fun == pytest.approx(report.v_max, abs=1e-9)
        neg_g = lambda r: -auto_g2_zero(r, 1.0, g2, m)
        found = minimize_scalar(neg_g, bounds=(1e-6, 200.0), method="bounded",
                                options={"xatol": 1e-10})
        assert found.x == pytest.approx(report.r_auto_star, rel=1e-5)
        assert -found.fun == pytest.approx(report.g2_auto_max, abs=1e-9)


_SWEEP_POINT = st.tuples(
    st.one_of(st.just(R_POW_ROUNDS), st.floats(1e-3, 1e3)),  # ratio mu_alpha / mu_psi
    st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),  # mu_psi
    st.floats(0.0, 1.0),  # g2_psi
    st.floats(0.0, 1.0),  # m
    st.floats(0.0, 1.0),  # visibility
)


class TestSweepFormsOnArrays:
    """The sweep closed forms take numpy arrays, elementwise bit for bit as floats."""

    @given(points=st.lists(_SWEEP_POINT, min_size=1, max_size=6))
    @example(points=[(R_POW_ROUNDS, 1.0, 0.0412, 0.76, 0.5), (R_POW_ROUNDS, R_POW_ROUNDS, 0.3, 0.1, 0.2)])
    @settings(max_examples=200)
    def test_array_call_matches_scalar_calls(self, points):
        ratio, mu_psi, g2, m, v = (np.array(column) for column in zip(*points))
        mu_alpha = ratio * mu_psi
        scalar_args = list(zip(mu_alpha.tolist(), mu_psi.tolist(), g2.tolist(), m.tolist()))
        for form in (cross_coincidence, hom_visibility, auto_g2_zero):
            want = np.array([form(*args) for args in scalar_args])
            assert form(mu_alpha, mu_psi, g2, m).tobytes() == want.tobytes(), form.__name__
            # a scalar argument broadcasts against the arrays
            want = np.array([form(a, 1.0, g2[0], b) for a, b in zip(ratio.tolist(), m.tolist())])
            assert form(ratio, 1.0, g2[0], m).tobytes() == want.tobytes(), form.__name__
        want = np.array([overlap_from_visibility(a, *args[:3]) for a, args in zip(v.tolist(), scalar_args)])
        assert overlap_from_visibility(v, mu_alpha, mu_psi, g2).tobytes() == want.tobytes()

    @given(r=st.one_of(st.just(R_POW_ROUNDS), st.floats(1e-3, 1e3)), g2=st.floats(0.0, 1.0), m=st.floats(0.0, 1.0))
    @example(r=R_POW_ROUNDS, g2=0.0412, m=0.76)
    @settings(max_examples=200)
    def test_sweep_curves_keep_their_operation_order(self, r, g2, m):
        # the order sweep.csv, points_*.csv and fit.json have always been computed in
        r = np.array([r])
        assert hom_visibility(r, 1.0, g2, m).tobytes() == (2.0 * r * m / (r * r + g2 + 2.0 * r)).tobytes()
        expected = (r * r + g2 + 2.0 * r * (1.0 + m)) / ((r + 1.0) * (r + 1.0))
        assert auto_g2_zero(r, 1.0, g2, m).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda a: cross_coincidence(a, 1.0, 0.0, 0.5), "mu_alpha must be >= 0, got -1.0"),
            (lambda a: cross_coincidence(1.0, a, 0.0, 0.5), "mu_psi must be >= 0, got -1.0"),
            (lambda a: hom_visibility(1.0, 1.0, a, 0.5), "g2_psi must be >= 0, got -1.0"),
            (lambda a: hom_visibility(1.0, 1.0, 0.0, a), "m must be in [0, 1], got -1.0"),
            (lambda a: hom_visibility(1.0, 1.0, 0.0, 1.0 - a), "m must be in [0, 1], got 2.0"),
            (lambda a: auto_g2_zero(1.0, 1.0, 0.0, 1.0 - a / 2.0), "m must be in [0, 1], got 1.5"),
            (lambda a: auto_g2_zero(1.0, a, 0.0, 0.5), "mu_psi must be >= 0, got -1.0"),
            (lambda a: overlap_from_visibility(0.5, 1.0, 1.0, a), "g2_psi must be >= 0, got -1.0"),
        ],
    )
    def test_a_bad_element_raises_as_a_bad_float(self, call, message):
        with pytest.raises(InvalidParameterError) as scalar:
            call(-1.0)
        assert str(scalar.value) == message
        with pytest.raises(InvalidParameterError) as array:
            call(np.array([0.5, -1.0, -2.0]))
        assert str(array.value) == message

    def test_nan_passes_the_sign_checks_as_before(self):
        assert math.isnan(cross_coincidence(math.nan, 1.0, 0.0, 0.5))
        assert np.isnan(cross_coincidence(np.array([math.nan]), 1.0, 0.0, 0.5)).all()
        with pytest.raises(InvalidParameterError, match="m must be in"):
            cross_coincidence(1.0, 1.0, 0.0, np.array([0.5, math.nan]))


class TestSourceParams:
    def test_derived_moments(self):
        src = SourceParams(p1=0.96, p2=0.02, eta=0.5)
        assert src.mu_psi == pytest.approx(0.5)
        assert src.g2_zero == pytest.approx(0.04)

    def test_from_moments_round_trip(self):
        src = SourceParams.from_moments(0.3, 0.0412)
        assert src.mu_psi == pytest.approx(0.3, abs=1e-12)
        assert src.g2_zero == pytest.approx(0.0412, abs=1e-12)

    def test_from_moments_with_explicit_eta(self):
        src = SourceParams.from_moments(0.9, 0.04, eta=0.9)
        assert src.mu_psi == pytest.approx(0.9, abs=1e-12)
        assert src.g2_zero == pytest.approx(0.04, abs=1e-12)

    def test_rejects_inconsistent_probabilities(self):
        with pytest.raises(InvalidParameterError):
            SourceParams(p1=0.8, p2=0.3)

    def test_local_oscillator_polarization_overlap(self):
        lo = LocalOscillator(mu_alpha=0.5, theta=math.pi / 3)
        assert lo.m_p == pytest.approx(0.25, abs=1e-15)
        assert lo.g2_zero == 1.0
