import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import factorial

from photonmix.analytic_model import (
    LocalOscillator,
    SourceParams,
    auto_g2_zero,
    cross_coincidence,
    hom_visibility,
    loss_degraded_probs,
)
from photonmix.errors import (
    InvalidParameterError,
    TruncationError,
    UndefinedCorrelationError,
)
from photonmix.fock_oracle import (
    BeamSplitterSpec,
    OutputState,
    TruncationReport,
    _convolve,
    _sector_unitary,
    apply_loss,
    auto_correlation,
    build_qd_state,
    coherent_tail_mass,
    cross_correlations,
    displacement_matrix,
    lowering_operator,
    mix_on_beam_splitter,
    required_cutoff,
    visibility_from_states,
)

BALANCED = BeamSplitterSpec(0.5)


def theta_for_overlap(m: float) -> float:
    return math.acos(math.sqrt(m))


def complement_tails(mu: float, kmax: int, digits: int) -> list[Decimal]:
    """P(N > k) for k = 0..kmax of a Poisson mean mu, as 1 - (p_0 + ... + p_k).

    The complement cancels down to the tail, so ``digits`` must exceed the
    number of leading digits the smallest tail of interest loses to it.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        m = Decimal(mu)
        term = head = (-m).exp()
        tails = [1 - head]
        for k in range(1, kmax + 1):
            term = term * m / k
            head += term
            tails.append(1 - head)
        return tails


class TestBuildQdState:
    def test_pure_single_photon(self):
        rho = build_qd_state(1.0, 0.0, 4)
        expected = np.zeros((5, 5))
        expected[1, 1] = 1.0
        assert np.allclose(rho, expected, atol=1e-15)

    def test_vacuum(self):
        rho = build_qd_state(0.0, 0.0, 4)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected, atol=1e-15)

    def test_mixture_diagonal(self):
        rho = build_qd_state(0.96, 0.02, 4)
        assert np.allclose(np.diag(rho).real, [0.02, 0.96, 0.02, 0.0, 0.0], atol=1e-15)
        assert np.allclose(rho, np.diag(np.diag(rho)), atol=1e-15)

    def test_rejects_invalid_probabilities(self):
        with pytest.raises(InvalidParameterError):
            build_qd_state(-0.1, 0.0, 4)
        with pytest.raises(InvalidParameterError):
            build_qd_state(0.8, 0.3, 4)
        with pytest.raises(InvalidParameterError):
            build_qd_state(1.0, 0.0, 1)

    def test_state_invariants(self):
        rho = build_qd_state(0.9, 0.05, 4)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


class TestApplyLoss:
    def test_lossless_identity(self):
        rho = build_qd_state(1.0, 0.0, 4)
        assert np.allclose(apply_loss(rho, 1.0), rho, atol=1e-12)

    def test_full_loss_gives_vacuum(self):
        rho = apply_loss(build_qd_state(1.0, 0.0, 4), 0.0)
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_binomial_transform_of_single_photon(self):
        diag = np.diag(apply_loss(build_qd_state(1.0, 0.0, 4), 0.3)).real
        assert np.allclose(diag[:2], [0.7, 0.3], atol=1e-12)
        assert np.allclose(diag[2:], 0.0, atol=1e-12)

    def test_rejects_transmission_outside_unit_interval(self):
        with pytest.raises(InvalidParameterError):
            apply_loss(build_qd_state(1.0, 0.0, 4), 1.5)

    def test_composition_of_losses(self):
        rho = build_qd_state(0.9, 0.05, 4)
        twice = apply_loss(apply_loss(rho, 0.8), 0.6)
        once = apply_loss(rho, 0.48)
        assert np.abs(twice - once).max() < 1e-10

    def test_populations_match_loss_degraded_probs(self):
        p1, p2, eta = 0.9, 0.05, 0.37
        diag = np.diag(apply_loss(build_qd_state(p1, p2, 4), eta)).real
        q0, q1, q2 = loss_degraded_probs(p1, p2, eta)
        vacuum = 1.0 - p1 - p2 + q0
        assert np.allclose(diag[:3], [vacuum, q1, q2], atol=1e-10)

    def test_trace_preserved(self):
        out = apply_loss(build_qd_state(0.9, 0.05, 4), 0.41)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_coherent_superposition_stays_physical(self):
        psi = np.array([1.0, 1.0, 1.0, 0.0]) / math.sqrt(3.0)
        out = apply_loss(np.outer(psi, psi), 0.6)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-10
        # the surviving coherence between 0 and 1 photons is sqrt(eta) / 3 plus
        # the part carried by the two-photon term after losing one photon
        expected = (math.sqrt(0.6) + math.sqrt(0.4) * math.sqrt(2.0 * 0.6 * 0.4)) / 3.0
        assert out[0, 1] == pytest.approx(expected, abs=1e-12)


class TestDisplacement:
    def test_zero_displacement_is_identity(self):
        assert np.allclose(displacement_matrix(0.0, 8), np.eye(9), atol=1e-15)

    def test_coherent_column_amplitudes(self):
        alpha, n = 0.5, 10
        column = displacement_matrix(alpha, n)[:, 0]
        ns = np.arange(n + 1)
        expected = np.exp(-abs(alpha) ** 2 / 2) * alpha**ns / np.sqrt(factorial(ns))
        # truncation of the generator is felt most at the top Fock level; the
        # deviation there tracks the 1e-8 unitarity defect at this cutoff
        assert np.allclose(column, expected, atol=1e-8)
        assert np.allclose(column[:6], expected[:6], atol=1e-13)

    @pytest.mark.parametrize("alpha", [0.3 + 0.2j, 2.0 - 1.5j, math.sqrt(30.0) * np.exp(0.7j)])
    def test_matches_scipy_expm(self, alpha):
        for cutoff in range(1, 41):
            a = lowering_operator(cutoff)
            reference = expm(alpha * a.T - np.conjugate(alpha) * a)
            assert np.abs(displacement_matrix(alpha, cutoff) - reference).max() <= 1e-13

    def test_real_alpha_gives_real_matrix(self):
        assert displacement_matrix(0.5, 10).dtype == np.float64
        assert displacement_matrix(0.5 + 0.5j, 10).dtype == np.complex128

    def test_unitarity_at_adequate_cutoff(self):
        d = displacement_matrix(0.5, 10)
        assert np.abs(d.T @ d - np.eye(d.shape[0])).max() <= 1e-8

    def test_tail_mass_helpers(self):
        assert coherent_tail_mass(0.0, 3) == 0.0
        mu, n = 1.3, 9
        ns = np.arange(n + 1)
        by_hand = 1.0 - math.exp(-mu) * np.sum(mu**ns / factorial(ns))
        assert coherent_tail_mass(mu, n) == pytest.approx(by_hand, abs=1e-12)
        n_req = required_cutoff(mu, 1e-10)
        assert coherent_tail_mass(mu, n_req) < 1e-10
        assert coherent_tail_mass(mu, n_req - 1) >= 1e-10

    def test_tail_mass_is_the_poisson_survival_function(self):
        # The reference is the complement at 400 digits: every tail on the grid
        # is known to about 1e-400, far below the smallest float, so the two
        # may differ only by rounding.  scipy's pdtrc is up to 2.4e-13 off it
        # and would fail this pin.
        for mu in np.geomspace(1e-3, 60.0, 40):
            exact = complement_tails(float(mu), 199, digits=400)
            tails = [coherent_tail_mass(float(mu), k) for k in range(2, 200)]
            assert np.allclose(tails, [float(t) for t in exact[2:]], rtol=1e-15, atol=0.0)

    def test_required_cutoff_matches_exact_tails(self):
        # the smallest cutoff whose 60-digit tail is below the target
        for mu in [1e-4, *np.linspace(1e-3, 30.0, 1201), 0.2, 2.0, 6.0, 10.0]:
            exact = complement_tails(float(mu), 100, digits=60)
            expected = next(n for n in range(2, 101) if exact[n] < 1e-10)
            assert required_cutoff(float(mu), 1e-10) == expected, mu
        # the floor, and the benchmark's mu_alpha grid
        assert required_cutoff(1e-4, 1e-10) == 2
        assert [required_cutoff(mu, 1e-10) for mu in (0.2, 2.0, 6.0, 10.0)] == [7, 16, 27, 36]

    def test_tail_mass_of_a_faint_state(self):
        # the tail above cutoff 0 is 1 - exp(-mu); the series keeps all its digits
        for mu in (math.pi * 1e-20, math.pi * 1e-3, 0.9):
            assert coherent_tail_mass(mu, 0) == pytest.approx(-math.expm1(-mu), rel=1e-15, abs=0.0)

    def test_tail_mass_far_beyond_the_cutoff(self):
        # the head sum keeps the work bounded by the cutoff however large mu is
        assert coherent_tail_mass(1e7, 10) == coherent_tail_mass(math.inf, 10) == 1.0
        assert coherent_tail_mass(40.0, 20) == pytest.approx(float(complement_tails(40.0, 20, 40)[20]), rel=1e-15)
        with pytest.raises(InvalidParameterError, match="no cutoff <= 500"):
            required_cutoff(1e7, 1e-10)
        for bad in (-1.0, math.nan):
            with pytest.raises(InvalidParameterError):
                coherent_tail_mass(bad, 10)


class TestMixOnBeamSplitter:
    def test_lone_photon_never_coincides(self):
        state = mix_on_beam_splitter(
            SourceParams(p1=1.0), LocalOscillator(mu_alpha=0.0), BALANCED, cutoff=4
        )
        assert cross_correlations(state).coincidence == pytest.approx(0.0, abs=1e-12)

    def test_coherent_state_is_poissonian(self):
        state = mix_on_beam_splitter(
            SourceParams(p1=0.0, p2=0.0),
            LocalOscillator(mu_alpha=0.3, theta=0.4),
            BALANCED,
            cutoff=14,
        )
        assert auto_correlation(state) == pytest.approx(1.0, abs=1e-8)

    def test_ideal_displaced_photon_bunching_ceiling(self):
        cutoff = required_cutoff(2.0, 1e-10)
        state = mix_on_beam_splitter(
            SourceParams(p1=1.0), LocalOscillator(mu_alpha=2.0), BALANCED, cutoff
        )
        assert auto_correlation(state) == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_refuses_inadequate_cutoff(self):
        with pytest.raises(TruncationError) as err:
            mix_on_beam_splitter(
                SourceParams(p1=1.0), LocalOscillator(mu_alpha=2.0), BALANCED, cutoff=3
            )
        assert err.value.report.tail_mass >= 1e-6

    def test_single_photon_only_antibunched(self):
        state = mix_on_beam_splitter(
            SourceParams(p1=1.0), LocalOscillator(mu_alpha=0.0), BALANCED, cutoff=4
        )
        assert auto_correlation(state) == pytest.approx(0.0, abs=1e-10)

    def test_reference_bunching_point(self):
        # mu_alpha / mu_psi = 2 with m = 0.76, g2 = 0.0412
        source = SourceParams.from_moments(1.0, 0.0412)
        lo = LocalOscillator(mu_alpha=2.0, theta=theta_for_overlap(0.76))
        state = mix_on_beam_splitter(source, lo, BALANCED, required_cutoff(2.0, 1e-10))
        assert auto_correlation(state) == pytest.approx(1.2312, abs=1e-4)

    def test_mean_photon_number_conserved(self):
        source = SourceParams.from_moments(0.3, 0.0412)
        lo = LocalOscillator(mu_alpha=1.0, theta=0.7)
        state = mix_on_beam_splitter(source, lo, BALANCED, required_cutoff(1.0, 1e-10))
        moments = cross_correlations(state)
        assert moments.mean_2 + moments.mean_3 == pytest.approx(1.3, abs=1e-8)

    def test_unit_fields_visibility_two_thirds(self):
        source = SourceParams(p1=1.0)
        lo = LocalOscillator(mu_alpha=1.0, theta=0.0)
        cutoff = required_cutoff(1.0, 1e-10)
        v = visibility_from_states(
            mix_on_beam_splitter(source, lo, BALANCED, cutoff),
            mix_on_beam_splitter(source, replace(lo, theta=math.pi / 2), BALANCED, cutoff),
        )
        assert v == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_orthogonal_fields_mix_independently(self):
        source = SourceParams.from_moments(0.3, 0.04)
        lo = LocalOscillator(mu_alpha=1.0, theta=math.pi / 2)
        state = mix_on_beam_splitter(source, lo, BALANCED, required_cutoff(1.0, 1e-10))
        moments = cross_correlations(state)
        expected = 0.25 * cross_coincidence(1.0, 0.3, 0.04, 0.0)
        assert moments.coincidence == pytest.approx(expected, abs=1e-8)

    def test_partial_indistinguishability_rescales_overlap(self):
        m, m_psi = 0.8, 0.905
        source = SourceParams.from_moments(0.3, 0.0412, m_psi=m_psi)
        lo = LocalOscillator(mu_alpha=0.6, theta=theta_for_overlap(m))
        cutoff = required_cutoff(0.6, 1e-10)
        state = mix_on_beam_splitter(source, lo, BALANCED, cutoff)
        expected = auto_g2_zero(0.6, 0.3, 0.0412, m * m_psi)
        assert auto_correlation(state) == pytest.approx(expected, abs=1e-8)

    def test_vacuum_output_correlation_undefined(self):
        state = mix_on_beam_splitter(
            SourceParams(p1=0.0, p2=0.0), LocalOscillator(mu_alpha=0.0), BALANCED, 4
        )
        with pytest.raises(UndefinedCorrelationError):
            auto_correlation(state)

    def test_output_state_is_physical(self):
        source = SourceParams.from_moments(0.3, 0.0412)
        lo = LocalOscillator(mu_alpha=0.2, theta=0.5)
        state = mix_on_beam_splitter(source, lo, BALANCED, 8)
        probs = state.distribution
        assert probs.min() >= 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_joint_distribution_normalized(self):
        source = SourceParams.from_moments(0.3, 0.0412)
        lo = LocalOscillator(mu_alpha=0.2, theta=0.5)
        state = mix_on_beam_splitter(source, lo, BALANCED, 8)
        joint = state.distribution
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        moments = cross_correlations(state)
        n2 = np.arange(joint.shape[0])
        assert (joint.sum(axis=1) * n2).sum() == pytest.approx(moments.mean_2, abs=1e-12)


class TestCrossCorrelationsDirect:
    def make_output_state(self, n2: int, n3: int, cutoff: int = 2):
        d = 2 * cutoff + 5
        distribution = np.zeros((d, d))
        distribution[n2, n3] = 1.0
        return OutputState(distribution, TruncationReport(cutoff, 0.0))

    def test_vacuum_state(self):
        moments = cross_correlations(self.make_output_state(0, 0))
        assert moments == (0.0, 0.0, 0.0)

    def test_one_photon_in_each_output(self):
        moments = cross_correlations(self.make_output_state(1, 1))
        assert moments == (1.0, 1.0, 1.0)

    def test_missing_output_modes_rejected(self):
        with pytest.raises(InvalidParameterError):
            auto_correlation(self.make_output_state(1, 1), "out_4")


def exact_sector_unitary(transmission: float, total: int) -> np.ndarray:
    """Sector unitary from U x+ U+ = c x+ - s y+ and U y+ U+ = s x+ + c y+.

    Column a is (c x+ - s y+)^a (s x+ + c y+)^b |0, 0> / sqrt(a! b!) with
    b = total - a, expanded binomially in decimal arithmetic.
    """
    out = np.zeros((total + 1, total + 1))
    with localcontext() as ctx:
        ctx.prec = 40
        c, s = Decimal(transmission).sqrt(), Decimal(1.0 - transmission).sqrt()
        c_pow, s_pow = [Decimal(1)], [Decimal(1)]  # powers by products: Decimal 0 ** 0 is invalid
        for _ in range(total):
            c_pow.append(c_pow[-1] * c)
            s_pow.append(s_pow[-1] * s)
        for a in range(total + 1):
            b = total - a
            amp = [Decimal(0)] * (total + 1)
            for p in range(a + 1):
                for q in range(b + 1):
                    term = math.comb(a, p) * math.comb(b, q) * (-1) ** (a - p)
                    amp[p + q] += term * c_pow[p + b - q] * s_pow[a - p + q]
            for k in range(total + 1):
                norm = Decimal(math.factorial(k) * math.factorial(total - k))
                norm /= Decimal(math.factorial(a) * math.factorial(b))
                out[k, a] = float(amp[k] * norm.sqrt())
    return out


class TestSectorMaps:
    def test_sector_unitary_matches_dense_two_mode_unitary(self):
        # reference: the mixing generator built on the full two-mode product space
        cutoff, transmission = 5, 0.3
        a = lowering_operator(cutoff)
        x, y = np.kron(a, np.eye(cutoff + 1)), np.kron(np.eye(cutoff + 1), a)
        theta = math.acos(math.sqrt(transmission))
        dense = expm(theta * (x.T @ y - x @ y.T))
        for total in range(cutoff + 1):
            j = np.arange(total + 1)
            flat = j * (cutoff + 1) + (total - j)  # |j>_x |total - j>_y
            block = dense[np.ix_(flat, flat)]
            assert np.abs(block - _sector_unitary(transmission, total)).max() < 1e-13

    @pytest.mark.parametrize("transmission", [0.0, 0.3, 0.5, 1.0])
    def test_sector_unitary_matches_exact_expansion(self, transmission):
        # scipy's expm is itself up to 1.8e-13 off the exact map at 40 photons,
        # so the reference is the binomial expansion in 40-digit decimals
        for total in range(41):
            exact = exact_sector_unitary(transmission, total)
            assert np.abs(_sector_unitary(transmission, total) - exact).max() <= 1e-13

    def test_convolution_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        a, b = rng.random((4, 6)), rng.random((5, 3))
        direct = np.zeros((8, 8))
        for (i, j), value in np.ndenumerate(b):
            direct[i : i + 4, j : j + 6] += value * a
        assert np.allclose(_convolve(a, b), direct, rtol=1e-14, atol=0.0)


class TestStateSize:
    def test_arrays_stay_two_mode(self):
        cutoff = required_cutoff(2.0, 1e-10)
        state = mix_on_beam_splitter(
            SourceParams(p1=1.0), LocalOscillator(mu_alpha=2.0), BALANCED, cutoff
        )
        assert state.distribution.shape == (2 * cutoff + 5, 2 * cutoff + 5)

    def test_branches_reproduce_lossy_source_populations(self):
        # with no coherent light, n2 + n3 counts the source photons that survived the loss
        source = SourceParams(p1=0.9, p2=0.05, eta=0.7)
        state = mix_on_beam_splitter(source, LocalOscillator(mu_alpha=0.0), BALANCED, 12)
        populations = np.diag(apply_loss(build_qd_state(0.9, 0.05, 2), 0.7))
        dist = state.distribution
        n2, n3 = np.indices(dist.shape)
        totals = np.bincount((n2 + n3).ravel(), weights=dist.ravel())
        assert np.allclose(totals[:3], populations, atol=1e-15)
        assert np.allclose(totals[3:], 0.0, atol=1e-15)

    def test_orthogonal_run_adds_branches(self):
        m_psi, lo = 0.9, LocalOscillator(mu_alpha=0.5, theta=0.4)
        source = SourceParams.from_moments(0.3, 0.04)
        mixed = mix_on_beam_splitter(replace(source, m_psi=m_psi), lo, BALANCED, 12)
        configured = mix_on_beam_splitter(source, lo, BALANCED, 12)
        orthogonal = mix_on_beam_splitter(source, replace(lo, theta=math.pi / 2.0), BALANCED, 12)
        expected = m_psi * configured.distribution + (1.0 - m_psi) * orthogonal.distribution
        assert np.allclose(mixed.distribution, expected, rtol=0.0, atol=1e-15)


class TestOracleInvariants:
    params = dict(
        mu_alpha=st.floats(0.0, 3.0),
        mu_psi=st.floats(0.01, 1.0),
        g2=st.floats(0.0, 0.2),
        theta=st.floats(0.0, math.pi),
        transmission=st.floats(0.0, 1.0),
        m_psi=st.floats(0.0, 1.0),
    )

    @staticmethod
    def distribution(mu_alpha, mu_psi, g2, theta, transmission, m_psi):
        source = SourceParams.from_moments(mu_psi, g2, m_psi=m_psi)
        lo = LocalOscillator(mu_alpha=mu_alpha, theta=theta)
        cutoff = required_cutoff(mu_alpha, 1e-10)
        state = mix_on_beam_splitter(source, lo, BeamSplitterSpec(transmission), cutoff)
        return state.distribution

    @given(**params)
    @settings(max_examples=40, deadline=None)
    def test_photon_number_conserved(self, mu_alpha, mu_psi, g2, theta, transmission, m_psi):
        dist = self.distribution(mu_alpha, mu_psi, g2, theta, transmission, m_psi)
        n2 = np.arange(dist.shape[0])
        n3 = np.arange(dist.shape[1])
        total = n2 @ dist.sum(axis=1) + dist.sum(axis=0) @ n3
        assert total == pytest.approx(mu_alpha + mu_psi, abs=1e-8)

    @given(**params)
    @settings(max_examples=40, deadline=None)
    def test_output_swap_under_transmission_swap(
        self, mu_alpha, mu_psi, g2, theta, transmission, m_psi
    ):
        dist = self.distribution(mu_alpha, mu_psi, g2, theta, transmission, m_psi)
        swapped = self.distribution(mu_alpha, mu_psi, g2, theta, 1.0 - transmission, m_psi)
        assert np.abs(dist - swapped.T).max() <= 1e-12

    @given(**params)
    @settings(max_examples=40, deadline=None)
    def test_distribution_is_normalized(self, mu_alpha, mu_psi, g2, theta, transmission, m_psi):
        dist = self.distribution(mu_alpha, mu_psi, g2, theta, transmission, m_psi)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.min() >= -1e-15


class TestOracleAgainstClosedForms:
    """Spot equivalence checks; the full grid runs in the acceptance suite."""

    @pytest.mark.parametrize("mu_alpha", [0.1, 1.0])
    @pytest.mark.parametrize("mu_psi", [0.3, 1.0])
    @pytest.mark.parametrize("m", [0.0, 0.5, 1.0])
    def test_auto_and_visibility_match(self, mu_alpha, mu_psi, m):
        g2 = 0.04
        source = SourceParams.from_moments(mu_psi, g2)
        lo = LocalOscillator(mu_alpha=mu_alpha, theta=theta_for_overlap(m))
        cutoff = required_cutoff(mu_alpha, 1e-10)
        state = mix_on_beam_splitter(source, lo, BALANCED, cutoff)
        assert auto_correlation(state) == pytest.approx(
            auto_g2_zero(mu_alpha, mu_psi, g2, m), abs=1e-6
        )
        orthogonal = mix_on_beam_splitter(source, replace(lo, theta=math.pi / 2), BALANCED, cutoff)
        assert visibility_from_states(state, orthogonal) == pytest.approx(
            hom_visibility(mu_alpha, mu_psi, g2, m), abs=1e-6
        )

    def test_cross_moment_matches_reduced_interference_form(self):
        # discriminates the coincidence-suppressing overlap term from a
        # bunching-signed alternative
        mu_alpha, mu_psi, g2, m = 1.0, 0.3, 0.04, 0.5
        source = SourceParams.from_moments(mu_psi, g2)
        lo = LocalOscillator(mu_alpha=mu_alpha, theta=theta_for_overlap(m))
        state = mix_on_beam_splitter(source, lo, BALANCED, required_cutoff(mu_alpha, 1e-10))
        raw = 4.0 * cross_correlations(state).coincidence
        suppressing = cross_coincidence(mu_alpha, mu_psi, g2, m)
        enhancing = mu_alpha**2 + mu_psi**2 * g2 + 2 * mu_alpha * mu_psi * (1 + m)
        assert raw == pytest.approx(suppressing, abs=1e-6)
        assert abs(raw - enhancing) > 0.1
