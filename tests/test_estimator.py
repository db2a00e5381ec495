import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from photonmix.analytic_model import peak_analysis
from photonmix.errors import (
    DataFormatError,
    IllConditionedFitError,
    InvalidParameterError,
)
from photonmix.estimator import (
    PowerCalibration,
    SweepPoint,
    auto_model,
    brightness_from_auto_peak,
    calibrate_mu_alpha,
    fit_auto_curve,
    fit_vhom_curve,
    pointwise_overlap,
    polarization_efficiency_correction,
    read_sweep,
    vhom_model,
    write_sweep,
)
from photonmix.fock_oracle import BeamSplitterSpec

G2_REF = 0.0412
M_REF = 0.76


def make_points(model, m, g2, r=None, sigma=0.01):
    r = np.geomspace(0.01, 30.0, 20) if r is None else np.asarray(r, dtype=float)
    y = model(r, m, g2)
    return [SweepPoint(float(a), float(b), sigma) for a, b in zip(r, y)]


class TestCalibration:
    def test_reference_arithmetic(self):
        cal = PowerCalibration(
            p0_watts=1e-9, attenuation_db=50.0, wavelength_m=925e-9, tau_rep_s=1.0 / 82e6
        )
        assert calibrate_mu_alpha(cal) == pytest.approx(5.676e-4, rel=1e-3)

    def test_no_attenuation(self):
        cal = PowerCalibration(1e-9, 0.0, 925e-9, 1.0 / 82e6)
        ref = PowerCalibration(1e-9, 50.0, 925e-9, 1.0 / 82e6)
        assert calibrate_mu_alpha(cal) == pytest.approx(1e5 * calibrate_mu_alpha(ref), rel=1e-12)

    def test_zero_power(self):
        assert calibrate_mu_alpha(PowerCalibration(0.0, 10.0, 925e-9, 1e-8)) == 0.0

    @given(p0=st.floats(1e-12, 1e-6), scale=st.floats(0.1, 10.0))
    @settings(max_examples=50)
    def test_linear_in_power(self, p0, scale):
        base = calibrate_mu_alpha(PowerCalibration(p0, 30.0, 925e-9, 1e-8))
        scaled = calibrate_mu_alpha(PowerCalibration(p0 * scale, 30.0, 925e-9, 1e-8))
        assert scaled == pytest.approx(base * scale, rel=1e-12)

    @given(db=st.floats(0.0, 80.0), extra=st.floats(0.0, 20.0))
    @settings(max_examples=50)
    def test_log_linear_in_attenuation(self, db, extra):
        base = calibrate_mu_alpha(PowerCalibration(1e-9, db, 925e-9, 1e-8))
        deeper = calibrate_mu_alpha(PowerCalibration(1e-9, db + extra, 925e-9, 1e-8))
        assert deeper == pytest.approx(base * 10 ** (-extra / 10.0), rel=1e-12)


class TestPolarizationCorrection:
    def test_equal_rates(self):
        assert polarization_efficiency_correction(1000.0, 1000.0) == 1.0

    def test_reduced_rate(self):
        assert polarization_efficiency_correction(1000.0, 800.0) == pytest.approx(1.25)

    def test_zero_rate_rejected(self):
        with pytest.raises(InvalidParameterError):
            polarization_efficiency_correction(1000.0, 0.0)


class TestVhomFit:
    def test_noiseless_recovery(self):
        points = make_points(vhom_model, M_REF, G2_REF)
        result = fit_vhom_curve(points, G2_REF)
        assert result.m_hat == pytest.approx(M_REF, abs=1e-9)
        assert result.chi2_red == pytest.approx(0.0, abs=1e-18)

    def test_noiseless_recovery_across_grid(self):
        for m in np.linspace(0.0, 1.0, 11):
            result = fit_vhom_curve(make_points(vhom_model, m, G2_REF), G2_REF)
            assert result.m_hat == pytest.approx(m, abs=1e-9)

    def test_coverage_with_relative_noise(self):
        rng = np.random.default_rng(0)
        r = np.geomspace(0.01, 30.0, 20)
        y_true = vhom_model(r, M_REF, G2_REF)
        sigma = 0.02 * y_true
        hits = 0
        trials = 300
        for _ in range(trials):
            y = y_true + rng.normal(size=r.size) * sigma
            pts = [SweepPoint(float(a), float(b), float(s)) for a, b, s in zip(r, y, sigma)]
            res = fit_vhom_curve(pts, G2_REF)
            hits += abs(res.m_hat - M_REF) <= 2.0 * res.m_err
        assert hits / trials >= 0.92

    def test_single_abscissa_rejected(self):
        r_star = np.sqrt(G2_REF)
        points = [SweepPoint(r_star, 0.5, 0.01) for _ in range(5)]
        with pytest.raises(IllConditionedFitError):
            fit_vhom_curve(points, G2_REF)

    def test_too_few_points_rejected(self):
        with pytest.raises(IllConditionedFitError):
            fit_vhom_curve([SweepPoint(0.1, 0.2, 0.01), SweepPoint(1.0, 0.3, 0.01)], G2_REF)

    def test_two_parameter_mode_recovers_scale(self):
        r = np.geomspace(0.05, 10.0, 25)
        y = vhom_model(1.1 * r, 0.6, G2_REF)
        points = [SweepPoint(float(a), float(b), 0.005) for a, b in zip(r, y)]
        result = fit_vhom_curve(points, G2_REF, fit_scale=True)
        assert result.m_hat == pytest.approx(0.6, abs=1e-6)
        assert result.scale_hat == pytest.approx(1.1, abs=1e-6)


class TestAutoFit:
    def test_noiseless_recovery(self):
        result = fit_auto_curve(make_points(auto_model, M_REF, G2_REF), G2_REF)
        assert result.m_hat == pytest.approx(M_REF, abs=1e-9)

    def test_boundary_recovery_at_zero_overlap(self):
        result = fit_auto_curve(make_points(auto_model, 0.0, G2_REF), G2_REF)
        assert abs(result.m_hat - 0.0) <= 2.0 * result.m_err
        assert result.m_hat == pytest.approx(0.0, abs=1e-9)

    def test_sparse_reference_grid_self_consistency(self):
        r = [0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
        result = fit_auto_curve(make_points(auto_model, M_REF, G2_REF, r=r), G2_REF)
        assert result.m_hat == pytest.approx(M_REF, abs=1e-9)

    def test_methods_agree_on_shared_experiment(self):
        rng = np.random.default_rng(42)
        r = np.geomspace(0.05, 10.0, 24)
        m_true = 0.58
        y_v = vhom_model(r, m_true, G2_REF)
        y_a = auto_model(r, m_true, G2_REF)
        sv, sa = 0.02 * y_v, 0.02 * y_a
        pts_v = [
            SweepPoint(float(a), float(b + rng.normal() * s), float(s))
            for a, b, s in zip(r, y_v, sv)
        ]
        pts_a = [
            SweepPoint(float(a), float(b + rng.normal() * s), float(s))
            for a, b, s in zip(r, y_a, sa)
        ]
        res_v = fit_vhom_curve(pts_v, G2_REF)
        res_a = fit_auto_curve(pts_a, G2_REF)
        combined = np.hypot(res_v.m_err, res_a.m_err)
        assert abs(res_v.m_hat - res_a.m_hat) <= 2.0 * combined


class TestClosedFormFit:
    """The closed form against a brute-force minimum of the same chi2."""

    @pytest.mark.parametrize("model, fit", [(vhom_model, fit_vhom_curve), (auto_model, fit_auto_curve)])
    @pytest.mark.parametrize("m_true, at_bound", [(0.6, False), (-0.2, True), (1.3, True)])
    def test_matches_brute_force_minimum(self, model, fit, m_true, at_bound):
        rng = np.random.default_rng(11)
        r = np.geomspace(0.02, 30.0, 18)
        s = 0.01 * (1.0 + rng.random(r.size))
        y = model(r, m_true, G2_REF) + rng.normal(size=r.size) * s
        result = fit([SweepPoint(float(a), float(b), float(c)) for a, b, c in zip(r, y, s)], G2_REF)

        def chi2(m):
            res = (y - model(r, m, G2_REF)) / s
            return float(res @ res)

        found = minimize_scalar(chi2, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
        # the bounded search stops within sqrt(eps) relative of its minimum
        assert result.m_hat == pytest.approx(found.x, abs=1e-7)
        assert chi2(result.m_hat) <= chi2(found.x) * (1.0 + 1e-12)
        assert result.at_bound is at_bound
        # chi2 is quadratic in m: a second difference of any step is its curvature
        curvature = (chi2(0.75) - 2.0 * chi2(0.5) + chi2(0.25)) / 0.25**2
        assert result.m_err == pytest.approx(np.sqrt(2.0 / curvature), rel=1e-9)
        assert result.chi2_red == pytest.approx(chi2(result.m_hat) / (r.size - 1), rel=1e-12)

    def test_non_finite_point_rejected(self):
        points = make_points(vhom_model, M_REF, G2_REF)
        points[3] = SweepPoint(points[3].ratio, float("nan"), points[3].y_err)
        with pytest.raises(InvalidParameterError):
            fit_vhom_curve(points, G2_REF)

    def test_two_parameter_fit_flags_a_bound(self):
        r = np.geomspace(0.05, 10.0, 25)
        inside = [SweepPoint(float(a), float(b), 0.005) for a, b in zip(r, vhom_model(1.1 * r, 0.6, G2_REF))]
        # the visibility peak height does not depend on the ratio scale, so
        # a peak 10 % above the m = 1 curve can only be met by m > 1
        above = [SweepPoint(float(a), float(b), 0.005) for a, b in zip(r, 1.1 * vhom_model(r, 1.0, G2_REF))]
        assert fit_vhom_curve(inside, G2_REF, fit_scale=True).at_bound is False
        clipped = fit_vhom_curve(above, G2_REF, fit_scale=True)
        assert clipped.m_hat == pytest.approx(1.0, abs=1e-9)
        assert clipped.at_bound is True


class TestPointwiseOverlap:
    def test_reference_plateau_point(self):
        points = [SweepPoint(0.203, 0.6318, 0.01)]
        out = pointwise_overlap(points, G2_REF)
        assert out[0].m == pytest.approx(0.760, abs=1e-3)

    def test_zero_visibility(self):
        out = pointwise_overlap([SweepPoint(1.0, 0.0, 0.01)], G2_REF)
        assert out[0].m == 0.0
        assert out[0].m_err > 0.0

    def test_correction_factor_arithmetic(self):
        out = pointwise_overlap([SweepPoint(10.0, 0.1, 0.01)], 0.04)
        assert out[0].m == pytest.approx(0.6002, abs=1e-12)

    def test_error_grows_at_extreme_ratios(self):
        points = [SweepPoint(0.2, 0.5, 0.01), SweepPoint(50.0, 0.02, 0.01)]
        out = pointwise_overlap(points, G2_REF)
        assert out[1].m_err > 10.0 * out[0].m_err

    def test_nonpositive_ratio_skipped(self):
        out = pointwise_overlap([SweepPoint(0.0, 0.5, 0.01)], G2_REF)
        assert out[0].skipped


class TestBrightness:
    def test_ideal_condition(self):
        bs = BeamSplitterSpec(0.5)
        assert brightness_from_auto_peak(2.0, bs, 1.0, 0.0) == pytest.approx(1.0)

    def test_reference_inverse_of_peak(self):
        bs = BeamSplitterSpec(0.5)
        mu = brightness_from_auto_peak(2.2616, bs, M_REF, G2_REF)
        assert mu == pytest.approx(1.0, abs=1e-3)

    def test_linear_in_peak_power(self):
        bs = BeamSplitterSpec(0.5)
        assert brightness_from_auto_peak(4.0, bs, 1.0, 0.0) == pytest.approx(2.0)

    def test_round_trip_with_peak_analysis(self):
        bs = BeamSplitterSpec(0.5)
        for m in (0.3, 0.76, 1.0):
            for g2 in (0.0, 0.0412, 0.2):
                mu_psi = 0.7
                report = peak_analysis(g2, m)
                mu_alpha_star = report.r_auto_star * mu_psi
                back = brightness_from_auto_peak(mu_alpha_star, bs, m, g2)
                assert back == pytest.approx(mu_psi, abs=1e-6)

    def test_zero_overlap_has_no_peak(self):
        with pytest.raises(InvalidParameterError):
            brightness_from_auto_peak(2.0, BeamSplitterSpec(0.5), 0.0, 0.0)


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        points = make_points(vhom_model, 0.5, G2_REF)
        path = tmp_path / "sweep.csv"
        write_sweep(points, path)
        back = read_sweep(path)
        assert back == points

    def test_bad_header(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataFormatError):
            read_sweep(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("ratio,y,y_err\n1.0,0.5,0.01\n1.0,oops,0.01\n")
        with pytest.raises(DataFormatError) as err:
            read_sweep(path)
        assert err.value.line == 3
