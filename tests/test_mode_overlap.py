import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonmix.errors import (
    DataFormatError,
    InvalidParameterError,
    UndefinedCorrelationError,
)
from photonmix.mode_overlap import (
    SampledProfile,
    _normalized_on_grid,
    fringe_visibility_overlap,
    overlap_integral,
    read_fringe,
    read_profile,
    spectral_filter,
)

from photonmix.tables import write_table

from helpers import write_time_profile


def exponential_amplitude(tau_ps: float, t_max: float = 3000.0, dt: float = 1.0) -> SampledProfile:
    t = np.arange(0.0, t_max + dt / 2, dt)
    amp = np.exp(-t / (2.0 * tau_ps))
    amp /= np.sqrt(np.trapezoid(amp**2, t))
    return SampledProfile(xs=t, values=amp)


def gaussian_amplitude(center: float, span: float = 8.0, dx: float = 0.01) -> SampledProfile:
    # amplitude whose squared modulus is a unit-variance Gaussian
    x = np.arange(-span, span + dx / 2, dx)
    amp = np.exp(-((x - center) ** 2) / 4.0)
    amp /= np.sqrt(np.trapezoid(amp**2, x))
    return SampledProfile(xs=x, values=amp)


def read_written(path, header, xs, values, kind, domain):
    """``read_profile`` of a profile CSV holding ``xs`` and ``values`` under ``header``."""
    write_table(path, header, [xs, values])
    return read_profile(path, kind, domain)


class TestSampledProfile:
    def test_rejects_decreasing_grid(self):
        with pytest.raises(InvalidParameterError):
            SampledProfile(np.array([0.0, 1.0, 1.0]), np.ones(3))

    def test_has_only_a_grid_and_amplitudes(self):
        assert [f.name for f in dataclasses.fields(SampledProfile)] == ["xs", "values"]


class TestAmplitudeFromIntensity:
    """``read_profile`` turns an intensity file I into the amplitude sqrt(I)."""

    def test_constant_intensity_reads_as_its_root(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 101)
        amp = read_written(tmp_path / "i.csv", ("t_ps", "value"), xs, np.full(101, 7.3), "intensity", "time")
        assert np.all(amp.values == math.sqrt(7.3))
        assert overlap_integral(amp, amp) == pytest.approx(1.0, abs=1e-12)

    def test_exponential_intensity_halves_decay_rate(self, tmp_path):
        xs = np.arange(0.0, 2000.0, 1.0)
        tau = 170.0
        amp = read_written(tmp_path / "i.csv", ("t_ps", "value"), xs, np.exp(-xs / tau), "intensity", "time")
        ratio = amp.values / np.exp(-xs / (2 * tau))
        assert np.allclose(ratio, ratio[0], rtol=1e-12)

    def test_single_bin_spike(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 11)
        values = np.zeros(11)
        values[4] = 2.0
        amp = read_written(tmp_path / "i.csv", ("t_ps", "value"), xs, values, "intensity", "time")
        assert np.count_nonzero(amp.values) == 1

    def test_all_zero_profile_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="every profile value is 0"):
            read_written(tmp_path / "i.csv", ("t_ps", "value"), np.linspace(0, 1, 5), np.zeros(5), "intensity", "time")

    def test_intensity_and_its_root_read_to_the_same_bits(self, tmp_path):
        xs = np.linspace(-5.0, 5.0, 201)
        intensity = np.exp(-(xs**2) / 3.0) + 0.1
        header = ("f_GHz", "value")
        from_intensity = read_written(tmp_path / "i.csv", header, xs, intensity, "intensity", "frequency")
        from_amplitude = read_written(tmp_path / "a.csv", header, xs, np.sqrt(intensity), "amplitude", "frequency")
        assert from_intensity.values.tobytes() == from_amplitude.values.tobytes()


class TestOverlapIntegral:
    def test_identical_profiles(self):
        psi = exponential_amplitude(170.0)
        assert overlap_integral(psi, psi) == pytest.approx(1.0, abs=1e-9)

    def test_exponential_pair_closed_form(self):
        tau1, tau2 = 170.0, 100.0
        m = overlap_integral(exponential_amplitude(tau1), exponential_amplitude(tau2))
        closed = 4 * tau1 * tau2 / (tau1 + tau2) ** 2
        assert closed == pytest.approx(0.9328, abs=1e-4)
        assert m == pytest.approx(closed, abs=1e-4)

    def test_detuned_gaussian_closed_form(self):
        delta = 2.0
        m = overlap_integral(gaussian_amplitude(0.0), gaussian_amplitude(delta))
        closed = math.exp(-(delta**2) / 4.0)
        assert closed == pytest.approx(0.3679, abs=1e-4)
        assert m == pytest.approx(closed, abs=1e-4)

    def test_disjoint_ranges_warn_and_return_zero(self):
        a = SampledProfile(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        b = SampledProfile(np.array([5.0, 6.0]), np.array([1.0, 1.0]))
        assert overlap_integral(a, b) == 0.0

    def test_offset_flat_pulses(self):
        # two 100 ps pulses 50 ps apart share half their light: M = (1/2)^2
        t = np.arange(0.0, 100.05, 0.1)
        a = SampledProfile(t, np.ones(t.size))
        b = SampledProfile(t + 50.0, np.ones(t.size))
        assert overlap_integral(a, b) == pytest.approx(0.25, rel=0.01)

    def test_gaussians_on_different_supports(self):
        # intensity rms 20 ps, centred at -10 and +10 ps, each cut to its own support
        def amplitude(t, center):
            return np.exp(-((t - center) ** 2) / (4.0 * 20.0**2))

        fine = np.arange(-100.0, 100.0 + 5e-4, 1e-3)
        profiles, truth = [], []
        for center, lo, hi in [(-10.0, -100.0, 30.0), (10.0, -30.0, 100.0)]:
            t = np.arange(lo, hi + 0.25, 0.5)
            profiles.append(SampledProfile(t, amplitude(t, center)))
            truth.append(np.where((fine >= lo) & (fine <= hi), amplitude(fine, center), 0.0))
        inner = np.trapezoid(truth[0] * truth[1], fine)
        expected = inner**2 / (np.trapezoid(truth[0] ** 2, fine) * np.trapezoid(truth[1] ** 2, fine))
        assert expected == pytest.approx(0.612, abs=1e-3)
        assert overlap_integral(*profiles) == pytest.approx(expected, abs=1e-2)

    @pytest.mark.parametrize("exponent", [-600, -1, 1, 700])
    def test_power_of_two_scale_keeps_the_bits(self, exponent):
        # the overlap ignores a profile's scale; 2**-600 squares below float64's range and 2**700 above it
        a, b = exponential_amplitude(170.0), exponential_amplitude(100.0, dt=0.7)
        scaled = SampledProfile(b.xs, np.ldexp(b.values, exponent))
        assert overlap_integral(a, scaled) == overlap_integral(a, b)
        assert overlap_integral(scaled, a) == overlap_integral(b, a)

    def test_symmetry(self):
        a = exponential_amplitude(170.0)
        b = exponential_amplitude(100.0)
        assert overlap_integral(a, b) == pytest.approx(overlap_integral(b, a), abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_cauchy_schwarz_on_random_profiles(self, seed):
        rng = np.random.default_rng(seed)

        def profile():  # each on its own grid
            xs = np.unique(rng.uniform(0.0, 10.0, size=40))
            return SampledProfile(xs, rng.uniform(0.0, 1.0, xs.size) + 1e-6)

        a, b = profile(), profile()
        m = overlap_integral(a, b)
        assert 0.0 <= m <= 1.0
        assert overlap_integral(b, a) == pytest.approx(m, abs=1e-12)

    @pytest.mark.parametrize("values", [[1.0, 3.0, 1.0], [1.0, 1.0, 1.0, 1.0]], ids=["peaked", "flat"])
    def test_identical_profiles_give_exactly_one(self, values):
        # unclipped, rounding puts both at 1.0000000000000004
        profile = SampledProfile(np.arange(float(len(values))), np.sqrt(values))
        assert overlap_integral(profile, profile) == 1.0

    def test_the_clip_keeps_the_bits_below_one(self):
        a, b = exponential_amplitude(170.0), exponential_amplitude(100.0, dt=0.7)
        grid = np.union1d(a.xs, b.xs)
        (start_a, f_a), (start_b, f_b) = _normalized_on_grid(a, grid), _normalized_on_grid(b, grid)
        assert start_a == start_b == 0
        stop = min(f_a.size, f_b.size)  # the shorter range ends where both do
        inner = np.trapezoid(f_a[:stop] * f_b[:stop], grid[:stop])
        assert overlap_integral(a, b) == float(inner**2) < 1.0

    def test_each_profile_counts_only_over_its_own_samples(self):
        # flat 100 ps pulses 50 ps apart on 1 ps grids: each has half its light where the other is
        t = np.arange(0.0, 101.0)
        a, b = SampledProfile(t, np.ones(t.size)), SampledProfile(t + 50.0, np.ones(t.size))
        assert overlap_integral(a, b) == pytest.approx(0.25, rel=1e-12)

    def test_far_samples_do_not_stretch_a_partner(self):
        # a partner sampled at +-1e308 leaves the exponential's own 2 ns: they share almost no light
        t = np.arange(0.0, 2000.0)
        wide = SampledProfile(np.array([-1e308, 0.0, 1e308]), np.array([1.0, 2.0, 1.0]))
        assert overlap_integral(wide, SampledProfile(t, np.exp(-t / 200.0))) < 1e-300

    def test_norm_that_underflows_is_a_float_error(self):
        # one trapezoid 5e-324 wide: its area rounds to 0
        profile = SampledProfile(np.array([0.0, 5e-324]), np.ones(2))
        with pytest.raises(FloatingPointError, match="norm underflows to 0"):
            overlap_integral(profile, profile)

    def test_all_zero_profile_is_refused(self):
        zero = SampledProfile(np.arange(3.0), np.zeros(3))
        with pytest.raises(InvalidParameterError, match="profile is 0 at every sample"):
            overlap_integral(zero, exponential_amplitude(100.0))

    def test_grid_refinement_convergence(self):
        tau1, tau2 = 170.0, 100.0
        coarse = overlap_integral(
            exponential_amplitude(tau1, dt=2.0), exponential_amplitude(tau2, dt=2.0)
        )
        fine = overlap_integral(
            exponential_amplitude(tau1, dt=1.0), exponential_amplitude(tau2, dt=1.0)
        )
        assert abs(fine - coarse) < 1e-3


class TestFringeVisibility:
    def test_constant_signal(self):
        result = fringe_visibility_overlap(np.full(2000, 3.7), k_tail=500)
        assert result["visibility"] == 0.0
        assert result["m_p"] == 0.0

    def test_full_swing(self):
        samples = np.concatenate([np.zeros(1000), np.full(1000, 2.0)])
        result = fringe_visibility_overlap(samples, k_tail=500)
        assert result["visibility"] == 1.0
        assert result["m_p"] == 1.0

    def test_two_level_signal_exact(self):
        samples = np.concatenate([np.full(600, 1.0), np.full(600, 3.0)])
        result = fringe_visibility_overlap(samples, k_tail=500)
        assert result["visibility"] == pytest.approx(0.5, abs=1e-15)
        assert result["m_p"] == pytest.approx(0.25, abs=1e-15)

    def test_sinusoid_between_one_and_three(self):
        phi = np.linspace(0.0, 2 * np.pi, 50_000, endpoint=False)
        samples = 2.0 + np.cos(phi)
        result = fringe_visibility_overlap(samples, k_tail=500)
        assert result["visibility"] == pytest.approx(0.5, abs=1e-3)
        assert result["m_p"] == pytest.approx(0.25, abs=1e-3)
        assert result["m_p_err"] > 0.0

    @pytest.mark.parametrize("theta_deg", [0.0, 20.0, 45.0, 60.0, 80.0])
    def test_polarization_fringe_recovers_cos_squared(self, theta_deg):
        theta = math.radians(theta_deg)
        phi = np.linspace(0.0, 2 * np.pi, 50_000, endpoint=False)
        # two unit fields with relative polarization theta and phase phi
        intensity = 2.0 + 2.0 * math.cos(theta) * np.cos(phi)
        result = fringe_visibility_overlap(intensity, k_tail=500)
        assert result["m_p"] == pytest.approx(math.cos(theta) ** 2, abs=1e-3)

    def test_too_few_samples(self):
        with pytest.raises(InvalidParameterError):
            fringe_visibility_overlap(np.ones(10), k_tail=500)

    def test_zero_total_undefined(self):
        samples = np.concatenate([np.full(600, -1.0), np.full(600, 1.0)])
        with pytest.raises(UndefinedCorrelationError):
            fringe_visibility_overlap(samples, k_tail=500)


class TestSpectralFilter:
    def test_hard_window_zeroes_outside(self):
        xs = np.linspace(-10.0, 10.0, 201)
        profile = SampledProfile(xs, np.ones(201))
        cut = spectral_filter(profile, center=1.0, half_width=2.0)
        inside = np.abs(xs - 1.0) <= 2.0
        assert np.all(cut.values[inside] == 1.0)
        assert np.all(cut.values[~inside] == 0.0)

    def test_filter_removes_leakage_peak(self):
        xs = np.linspace(-30.0, 30.0, 2001)
        main = np.exp(-(xs**2) / 2.0)
        leak = 0.3 * np.exp(-((xs - 15.0) ** 2) / 2.0)
        clean = SampledProfile(xs, np.sqrt(main))
        contaminated = SampledProfile(xs, np.sqrt(main + leak))
        raw = overlap_integral(clean, contaminated)
        filtered = overlap_integral(clean, spectral_filter(contaminated, 0.0, 5.0))
        assert filtered > raw

    def test_window_commutes_with_the_root(self):
        # a hard window zeroes the same samples of sqrt(I) as of I
        xs = np.linspace(-10.0, 10.0, 201)
        intensity = np.exp(-((xs - 1.0) ** 2) / 8.0)
        filtered_root = spectral_filter(SampledProfile(xs, np.sqrt(intensity)), 0.5, 3.0).values
        root_of_filtered = np.sqrt(spectral_filter(SampledProfile(xs, intensity), 0.5, 3.0).values)
        assert filtered_root.tobytes() == root_of_filtered.tobytes()


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: SampledProfile(np.arange(3.0), np.ones(4)), "xs and values must be equal-length 1-D arrays"),
            (lambda: fringe_visibility_overlap(np.linspace(0.0, 1.0, 10), k_tail=0), "k_tail must be >= 1"),
            (
                lambda: spectral_filter(SampledProfile(np.arange(3.0), np.ones(3)), 1.0, 0.0),
                "half_width must be positive",
            ),
        ],
        ids=["shape", "k_tail", "half_width"],
    )
    def test_refused(self, call, message):
        with pytest.raises(InvalidParameterError, match=message):
            call()


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        profile = exponential_amplitude(120.0, t_max=50.0)
        path = tmp_path / "profile.csv"
        write_time_profile(path, profile.xs, profile.values)
        back = read_profile(path, "amplitude", "time")
        assert np.allclose(back.xs, profile.xs)
        assert np.allclose(back.values, profile.values)

    def test_frequency_header(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("f_GHz,value\n-1.0,0.25\n0.0,1.0\n1.0,0.25\n")
        profile = read_profile(path, "intensity", "frequency")
        assert profile.values.tolist() == [0.5, 1.0, 0.5]

    @pytest.mark.parametrize("header, declared, expected", [("t_ps", "time", "frequency"), ("f_GHz", "frequency", "time")])
    def test_domain_mismatch_rejected(self, tmp_path, header, declared, expected):
        path = tmp_path / "p.csv"
        path.write_text(f"{header},value\n0.0,1.0\n1.0,1.0\n")
        with pytest.raises(DataFormatError) as err:
            read_profile(path, "intensity", expected)
        assert str(err.value) == f"{path}: profile declares domain {declared!r}, expected {expected!r}"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(DataFormatError):
            read_profile(path, "intensity", "time")

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_ps,value\n1.0,2.0\noops\n")
        with pytest.raises(DataFormatError) as err:
            read_profile(path, "intensity", "time")
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0.0,1.0\n1.0,1.0\n\n1.0,1.0\n0.5,1.0\n", "sample positions must be strictly increasing"),
            ("0.0,1.0\n\n1.0,2.0\n2.0,-0.5\n3.0,-1.0\n", "intensity values must be non-negative"),
        ],
        ids=["repeated-position", "negative-intensity"],
    )
    def test_bad_sample_reports_line(self, tmp_path, rows, message):
        # the first bad row, blank lines counted
        path = tmp_path / "bad.csv"
        path.write_text("t_ps,value\n" + rows)
        with pytest.raises(DataFormatError) as err:
            read_profile(path, "intensity", "time")
        assert str(err.value) == f"{path}: line 5: {message}"

    def test_negative_amplitude_is_read(self, tmp_path):
        path = tmp_path / "amp.csv"
        path.write_text("t_ps,value\n0.0,1.0\n1.0,-0.5\n")
        assert read_profile(path, "amplitude", "time").values.tolist() == [1.0, -0.5]

    def test_fringe_reads_its_readings(self, tmp_path):
        path = tmp_path / "fringe.csv"
        path.write_text("value\n1.5\n0.0\n3.0\n")
        assert read_fringe(path).tolist() == [1.5, 0.0, 3.0]

    def test_one_sample_is_format_error(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("t_ps,value\n0.0,1.0\n")
        with pytest.raises(DataFormatError, match=">= 2 samples"):
            read_profile(path, "amplitude", "time")
