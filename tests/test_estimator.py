import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares, minimize_scalar

from photonmix.analytic_model import auto_g2_zero, hom_visibility, overlap_from_visibility
from photonmix.errors import (
    DataFormatError,
    IllConditionedFitError,
    InvalidParameterError,
)
from photonmix.estimator import (
    SWEEP_MODELS,
    PowerCalibration,
    calibrate_mu_alpha,
    fit_sweep,
    read_sweep,
)

from helpers import write_sweep

G2_REF = 0.0412
M_REF = 0.76


def curve(model, r, m, g2=G2_REF):
    return SWEEP_MODELS[model](r, g2, m)


def make_sweep(model, m, g2, r=None, sigma=0.01):
    r = np.geomspace(0.01, 30.0, 20) if r is None else np.asarray(r, dtype=float)
    return r, curve(model, r, m, g2), np.full(r.size, sigma)


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


class TestVhomFit:
    def test_noiseless_recovery(self):
        result = fit_sweep(*make_sweep("vhom", M_REF, G2_REF), "vhom", G2_REF)
        assert result["M_hat"] == pytest.approx(M_REF, abs=1e-9)
        assert result["chi2_red"] == pytest.approx(0.0, abs=1e-18)

    def test_noiseless_recovery_across_grid(self):
        for m in np.linspace(0.0, 1.0, 11):
            result = fit_sweep(*make_sweep("vhom", m, G2_REF), "vhom", G2_REF)
            assert result["M_hat"] == pytest.approx(m, abs=1e-9)

    def test_coverage_with_relative_noise(self):
        rng = np.random.default_rng(0)
        r = np.geomspace(0.01, 30.0, 20)
        y_true = curve("vhom", r, M_REF)
        sigma = 0.02 * y_true
        hits = 0
        trials = 300
        for _ in range(trials):
            y = y_true + rng.normal(size=r.size) * sigma
            res = fit_sweep(r, y, sigma, "vhom", G2_REF)
            hits += abs(res["M_hat"] - M_REF) <= 2.0 * res["M_err"]
        assert hits / trials >= 0.92

    def test_single_abscissa_rejected(self):
        r_star = np.sqrt(G2_REF)
        with pytest.raises(IllConditionedFitError):
            fit_sweep([r_star] * 5, [0.5] * 5, [0.01] * 5, "vhom", G2_REF)

    def test_too_few_points_rejected(self):
        with pytest.raises(IllConditionedFitError):
            fit_sweep([0.1, 1.0], [0.2, 0.3], [0.01, 0.01], "vhom", G2_REF)

    def test_two_parameter_mode_recovers_scale(self):
        r = np.geomspace(0.05, 10.0, 25)
        y = curve("vhom", 1.1 * r, 0.6)
        result = fit_sweep(r, y, np.full(r.size, 0.005), "vhom", G2_REF, fit_scale=True)
        assert result["M_hat"] == pytest.approx(0.6, abs=1e-6)
        assert result["scale_hat"] == pytest.approx(1.1, abs=1e-6)


class TestAutoFit:
    def test_noiseless_recovery(self):
        result = fit_sweep(*make_sweep("auto", M_REF, G2_REF), "auto", G2_REF)
        assert result["M_hat"] == pytest.approx(M_REF, abs=1e-9)

    def test_boundary_recovery_at_zero_overlap(self):
        result = fit_sweep(*make_sweep("auto", 0.0, G2_REF), "auto", G2_REF)
        assert abs(result["M_hat"] - 0.0) <= 2.0 * result["M_err"]
        assert result["M_hat"] == pytest.approx(0.0, abs=1e-9)

    def test_sparse_reference_grid_self_consistency(self):
        r = [0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
        result = fit_sweep(*make_sweep("auto", M_REF, G2_REF, r=r), "auto", G2_REF)
        assert result["M_hat"] == pytest.approx(M_REF, abs=1e-9)

    def test_methods_agree_on_shared_experiment(self):
        rng = np.random.default_rng(42)
        r = np.geomspace(0.05, 10.0, 24)
        m_true = 0.58
        y_v = curve("vhom", r, m_true)
        y_a = curve("auto", r, m_true)
        sv, sa = 0.02 * y_v, 0.02 * y_a
        res_v = fit_sweep(r, y_v + rng.normal(size=r.size) * sv, sv, "vhom", G2_REF)
        res_a = fit_sweep(r, y_a + rng.normal(size=r.size) * sa, sa, "auto", G2_REF)
        combined = np.hypot(res_v["M_err"], res_a["M_err"])
        assert abs(res_v["M_hat"] - res_a["M_hat"]) <= 2.0 * combined


class TestClosedFormFit:
    """The closed form against a brute-force minimum of the same chi2."""

    # the ids keep the case names the test has had since each model had its own fit function
    @pytest.mark.parametrize("model", ["vhom", "auto"], ids=["vhom_model-fit_vhom_curve", "auto_model-fit_auto_curve"])
    @pytest.mark.parametrize("m_true, at_bound", [(0.6, False), (-0.2, True), (1.3, True)])
    def test_matches_brute_force_minimum(self, model, m_true, at_bound):
        rng = np.random.default_rng(11)
        r = np.geomspace(0.02, 30.0, 18)
        s = 0.01 * (1.0 + rng.random(r.size))
        # the closed forms refuse an overlap outside [0, 1]; the curve is affine in m
        y = curve(model, r, 0.0) + m_true * (curve(model, r, 1.0) - curve(model, r, 0.0))
        y += rng.normal(size=r.size) * s
        result = fit_sweep(r, y, s, model, G2_REF)
        assert result["model"] == model

        def chi2(m):
            res = (y - curve(model, r, m)) / s
            return float(res @ res)

        found = minimize_scalar(chi2, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
        # the bounded search stops within sqrt(eps) relative of its minimum
        assert result["M_hat"] == pytest.approx(found.x, abs=1e-7)
        assert chi2(result["M_hat"]) <= chi2(found.x) * (1.0 + 1e-12)
        assert result["at_bound"] is at_bound
        # chi2 is quadratic in m: a second difference of any step is its curvature
        curvature = (chi2(0.75) - 2.0 * chi2(0.5) + chi2(0.25)) / 0.25**2
        assert result["M_err"] == pytest.approx(np.sqrt(2.0 / curvature), rel=1e-9)
        assert result["chi2_red"] == pytest.approx(chi2(result["M_hat"]) / (r.size - 1), rel=1e-12)

    def test_non_finite_point_rejected(self):
        r, y, y_err = make_sweep("vhom", M_REF, G2_REF)
        y[3] = float("nan")
        with pytest.raises(InvalidParameterError):
            fit_sweep(r, y, y_err, "vhom", G2_REF)

    def test_two_parameter_fit_flags_a_bound(self):
        r = np.geomspace(0.05, 10.0, 25)
        s = np.full(r.size, 0.005)
        inside = curve("vhom", 1.1 * r, 0.6)
        # the visibility peak height does not depend on the ratio scale, so
        # a peak 10 % above the m = 1 curve can only be met by m > 1
        above = 1.1 * curve("vhom", r, 1.0)
        assert fit_sweep(r, inside, s, "vhom", G2_REF, fit_scale=True)["at_bound"] is False
        clipped = fit_sweep(r, above, s, "vhom", G2_REF, fit_scale=True)
        assert clipped["M_hat"] == pytest.approx(1.0, abs=1e-9)
        assert clipped["at_bound"] is True


class TestPointwiseOverlap:
    """overlap_from_visibility on a sweep's columns: each point's overlap, and its error from y_err."""

    def test_reference_plateau_point(self):
        m = overlap_from_visibility(np.array([0.6318]), np.array([0.203]), G2_REF)
        assert m[0] == pytest.approx(0.760, abs=1e-3)

    def test_zero_visibility(self):
        r = np.array([1.0])
        assert overlap_from_visibility(np.array([0.0]), r, G2_REF)[0] == 0.0
        assert overlap_from_visibility(np.array([0.01]), r, G2_REF)[0] > 0.0

    def test_correction_factor_arithmetic(self):
        m = overlap_from_visibility(np.array([0.1]), np.array([10.0]), 0.04)
        assert m[0] == pytest.approx(0.6002, abs=1e-12)

    def test_error_grows_at_extreme_ratios(self):
        m_err = overlap_from_visibility(np.array([0.01, 0.01]), np.array([0.2, 50.0]), G2_REF)
        assert m_err[1] > 10.0 * m_err[0]

    def test_inverts_a_sweep(self):
        r = np.geomspace(0.01, 30.0, 20)
        m = overlap_from_visibility(curve("vhom", r, M_REF), r, G2_REF)
        assert m == pytest.approx(np.full(r.size, M_REF), abs=1e-12)

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(InvalidParameterError):
            overlap_from_visibility(np.array([0.5, 0.5]), np.array([1.0, 0.0]), G2_REF)


class TestFitSweep:
    def test_unknown_model_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown sweep model 'vhm'"):
            fit_sweep(*make_sweep("vhom", M_REF, G2_REF), "vhm", G2_REF)

    def test_models_are_the_closed_forms(self):
        assert SWEEP_MODELS == {"vhom": hom_visibility, "auto": auto_g2_zero}

    @pytest.mark.parametrize("columns", [
        ([0.1, 0.5, 1.0], [0.2, 0.3], [0.01, 0.01, 0.01]),
        ([0.1, 0.5, 1.0], [0.2, 0.3, 0.3], 0.01),
        ([[0.1, 0.5, 1.0]], [[0.2, 0.3, 0.3]], [[0.01, 0.01, 0.01]]),
    ])
    def test_columns_of_unequal_shape_rejected(self, columns):
        with pytest.raises(InvalidParameterError, match="1-D and of one length"):
            fit_sweep(*columns, "vhom", G2_REF)

    @pytest.mark.parametrize("fit_scale", [False, True])
    @pytest.mark.parametrize("g2_psi", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_g2_psi_rejected(self, g2_psi, fit_scale):
        with pytest.raises(InvalidParameterError, match=f"g2_psi must be finite, got {g2_psi}"):
            fit_sweep(*make_sweep("vhom", M_REF, G2_REF), "vhom", g2_psi, fit_scale=fit_scale)

    @pytest.mark.parametrize("model", ["vhom", "auto"])
    def test_one_sided_sweep_is_accepted(self, model):
        # every ratio right of the visibility peak at sqrt(g2_psi): m alone is still well-posed
        r = np.geomspace(2.0 * np.sqrt(G2_REF), 30.0, 20)
        y_true = curve(model, r, M_REF)
        sigma = 0.02 * y_true
        rng = np.random.default_rng(0)
        for _ in range(20):
            result = fit_sweep(r, y_true + rng.normal(size=r.size) * sigma, sigma, model, G2_REF)
            assert result["at_bound"] is False
            assert abs(result["M_hat"] - M_REF) <= 3.0 * result["M_err"]

    @pytest.mark.parametrize("model", ["vhom", "auto"])
    def test_scale_fit_differs_from_the_fixed_scale_fit(self, model):
        # ratios read 10 % low; then ratios taken at a nominal brightness mu_psi of 1
        # where it is 0.7, so that nominal / scale_hat is the brightness
        brightness = 0.7
        for r, scale, m, rel_err in [
            (np.geomspace(0.05, 10.0, 25), 1.1, 0.6, None),
            (np.geomspace(0.01, 30.0, 60), 1.0 / brightness, M_REF, 0.02),
        ]:
            y = curve(model, scale * r, m)
            s = np.full(r.size, 0.005) if rel_err is None else rel_err * y
            scaled = fit_sweep(r, y, s, model, G2_REF, fit_scale=True)
            fixed = fit_sweep(r, y, s, model, G2_REF)
            assert scaled["scale_hat"] == pytest.approx(scale, abs=1e-6)
            assert scaled["M_hat"] == pytest.approx(m, abs=1e-6)
            assert scaled["chi2_red"] < 1e-6 < fixed["chi2_red"]
            assert "scale_hat" not in fixed
            assert (scaled["model"], fixed["model"]) == (model, model)
        assert 1.0 / scaled["scale_hat"] == pytest.approx(brightness, abs=1e-6)  # the last case


class TestScaleFitAgainstLeastSquares:
    """The scale fit against scipy's bounded least_squares on the same chi2."""

    @staticmethod
    def reference(r, y, s, model, g2_psi):
        # scipy's default tolerances can stop short of the minimum by more than the compared rel=1e-3
        ls = least_squares(
            lambda p: (y - curve(model, p[1] * r, p[0], g2_psi)) / s,
            x0=[0.5, 1.0],
            bounds=([0.0, 1e-2], [1.0, 1e2]),
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
        )
        m_err, scale_err = np.sqrt(np.diag(np.linalg.inv(ls.jac.T @ ls.jac)))
        return {
            "M_hat": ls.x[0], "scale_hat": ls.x[1], "M_err": m_err, "scale_err": scale_err,
            "chi2_red": 2.0 * ls.cost / max(r.size - 2, 1), "at_bound": bool(np.any(ls.active_mask != 0)),
        }

    @settings(max_examples=100, deadline=None)
    @given(
        model=st.sampled_from(["vhom", "auto"]),
        m=st.floats(0.1, 1.0),
        g2_psi=st.floats(0.0, 0.2),
        scale=st.floats(0.3, 3.0),
        n=st.integers(5, 30),
        r_min=st.floats(0.005, 0.5),
        r_max=st.floats(2.0, 50.0),
        noise=st.floats(0.005, 0.05),
        seed=st.integers(0, 2**32 - 1),
    )
    # the reference at default tolerances stopped at M_hat 6.66737e-4 here, 1.8e-3 above the minimum
    @example(
        model="auto", m=0.1, g2_psi=0.0625, scale=1.21875, n=5, r_min=0.5, r_max=37.0,
        noise=0.04556526115018486, seed=19263,
    )
    def test_matches_least_squares(self, model, m, g2_psi, scale, n, r_min, r_max, noise, seed):
        r = np.geomspace(r_min, r_max, n)
        y_true = curve(model, scale * r, m, g2_psi)
        s = noise * y_true + 1e-3
        y = y_true + np.random.default_rng(seed).normal(size=n) * s
        fit = fit_sweep(r, y, s, model, g2_psi, fit_scale=True)
        ref = self.reference(r, y, s, model, g2_psi)
        assert fit["chi2_red"] <= ref["chi2_red"] * (1.0 + 1e-9)
        if not (fit["at_bound"] or ref["at_bound"]):
            for name in ("M_hat", "scale_hat", "M_err", "scale_err"):
                assert fit[name] == pytest.approx(ref[name], rel=1e-3), name


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: fit_sweep([0.0, 1.0, 10.0], [0.1] * 3, [0.01] * 3, "vhom", 0.03), "sweep ratios must be positive"),
            (lambda: fit_sweep([0.1, 1.0, 10.0], [0.1] * 3, [0.01, 0.0, 0.01], "vhom", 0.03), "sweep uncertainties"),
            (lambda: fit_sweep([0.1, 1.0, 10.0], [0.1] * 3, [0.01] * 3, "vhom", -0.01), "g2_psi must be >= 0"),
            (lambda: PowerCalibration(-1e-9, 50.0, 925e-9, 1.0 / 82e6), "monitor power must be >= 0"),
            (lambda: PowerCalibration(1e-9, 50.0, 0.0, 1.0 / 82e6), "wavelength and repetition period must be positive"),
            (lambda: PowerCalibration(1e-9, 50.0, 925e-9, 0.0), "wavelength and repetition period must be positive"),
        ],
        ids=["ratio", "y_err", "g2_psi", "power", "wavelength", "period"],
    )
    def test_refused(self, call, message):
        with pytest.raises(InvalidParameterError, match=message):
            call()


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        columns = make_sweep("vhom", 0.5, G2_REF)
        path = tmp_path / "sweep.csv"
        write_sweep(path, *columns)
        back = read_sweep(path)
        assert len(back) == 3
        for got, want in zip(back, columns):
            assert got.tolist() == want.tolist()

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
