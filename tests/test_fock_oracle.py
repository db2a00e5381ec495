import ast
import math
import re
import time
from dataclasses import replace
from decimal import Decimal, localcontext
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import factorial

from photonmix import fock_oracle
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
    TAIL_REFUSAL,
    BeamSplitterSpec,
    _coherent_input_ket,
    _create,
    _split,
    auto_correlation,
    coherent_tail_mass,
    cross_correlations,
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


def source_photon_totals(source: SourceParams) -> np.ndarray:
    """Distribution of n2 + n3 with no coherent light: the source photons that arrive."""
    dist = mix_on_beam_splitter(source, LocalOscillator(mu_alpha=0.0), BALANCED, 2)
    n2, n3 = np.indices(dist.shape)
    return np.bincount((n2 + n3).ravel(), weights=dist.ravel())


class TestBuildQdState:
    """The source is a mixture of zero, one and two photons, as its totals show at eta = 1."""

    def test_pure_single_photon(self):
        totals = source_photon_totals(SourceParams(p1=1.0))
        assert np.allclose(totals, [0.0, 1.0] + [0.0] * (totals.size - 2), atol=1e-15)

    def test_vacuum(self):
        totals = source_photon_totals(SourceParams(p1=0.0))
        assert np.allclose(totals, [1.0] + [0.0] * (totals.size - 1), atol=1e-15)

    def test_mixture_diagonal(self):
        totals = source_photon_totals(SourceParams(p1=0.96, p2=0.02))
        assert np.allclose(totals[:3], [0.02, 0.96, 0.02], atol=1e-15)
        assert np.allclose(totals[3:], 0.0, atol=1e-15)

    def test_rejects_invalid_probabilities(self):
        with pytest.raises(InvalidParameterError):
            SourceParams(p1=-0.1)
        with pytest.raises(InvalidParameterError):
            SourceParams(p1=0.8, p2=0.3)

    def test_state_invariants(self):
        totals = source_photon_totals(SourceParams(p1=0.9, p2=0.05))
        assert abs(totals.sum() - 1.0) < 1e-12
        assert totals.min() >= 0.0


class TestApplyLoss:
    """Each emitted photon reaches the beam splitter with probability eta."""

    def test_lossless_identity(self):
        totals = source_photon_totals(SourceParams(p1=1.0, eta=1.0))
        assert np.allclose(totals[:3], [0.0, 1.0, 0.0], atol=1e-12)

    def test_full_loss_gives_vacuum(self):
        totals = source_photon_totals(SourceParams(p1=1.0, eta=0.0))
        assert totals[0] == pytest.approx(1.0, abs=1e-12)

    def test_binomial_transform_of_single_photon(self):
        totals = source_photon_totals(SourceParams(p1=1.0, eta=0.3))
        assert np.allclose(totals[:2], [0.7, 0.3], atol=1e-12)
        assert np.allclose(totals[2:], 0.0, atol=1e-12)

    def test_rejects_transmission_outside_unit_interval(self):
        with pytest.raises(InvalidParameterError):
            SourceParams(p1=1.0, eta=1.5)

    def test_composition_of_losses(self):
        def kept(populations, eta):
            return _split(populations, np.ones((1, 1)), eta, 1.0 - eta).sum(axis=1)

        populations = np.array([0.05, 0.9, 0.05])
        twice = kept(kept(populations, 0.8), 0.6)
        once = kept(populations, 0.48)
        assert np.abs(twice - once).max() < 1e-15

    @given(p1=st.floats(0.0, 1.0), p2=st.floats(0.0, 1.0), eta=st.floats(0.0, 1.0))
    @example(p1=0.9, p2=0.05, eta=0.0)
    @example(p1=0.9, p2=0.05, eta=1.0)
    @example(p1=0.0, p2=1.0, eta=0.0)
    @example(p1=0.0, p2=1.0, eta=1.0)
    @settings(max_examples=200, deadline=None)
    def test_populations_match_loss_degraded_probs(self, p1, p2, eta):
        assume(p1 + p2 <= 1.0)
        totals = source_photon_totals(SourceParams(p1=p1, p2=p2, eta=eta))
        q0, q1, q2 = loss_degraded_probs(p1, p2, eta)
        assert np.abs(totals[:3] - [1.0 - p1 - p2 + q0, q1, q2]).max() <= 1e-15
        assert np.abs(totals[3:]).max() <= 1e-15

    def test_trace_preserved(self):
        totals = source_photon_totals(SourceParams(p1=0.9, p2=0.05, eta=0.41))
        assert totals.sum() == pytest.approx(1.0, abs=1e-12)


def lowering_operator(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1.0)), 1)


def exact_coherent_amplitudes(alpha: float, cutoff: int) -> list[Decimal]:
    """exp(-alpha^2 / 2) alpha^n / sqrt(n!) for n <= cutoff, in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        a = Decimal(alpha)
        amps = [(-a * a / 2).exp()]
        for n in range(1, cutoff + 1):
            amps.append(amps[-1] * a / Decimal(n).sqrt())
        return amps


def exact_coherent_ket(alpha: float, cutoff: int) -> np.ndarray:
    """The coherent amplitudes up to the cutoff, renormalized."""
    amps = exact_coherent_amplitudes(alpha, cutoff)
    with localcontext() as ctx:
        ctx.prec = 60
        norm = sum(c * c for c in amps).sqrt()
        return np.array([float(c / norm) for c in amps])


def padded(ket: np.ndarray, cutoff: int) -> np.ndarray:
    """The ket with the trailing zeros the oracle drops put back."""
    out = np.zeros(cutoff + 1)
    out[: ket.size] = ket
    return out


CUTOFFS = [*range(1, 41), 71, 170, 475]
#: mu_alpha and the CLI's cutoff for it, required_cutoff(mu_alpha, 1e-10)
CLI_REACH = [(0.2, 7), (2.0, 16), (6.0, 27), (10.0, 36), (30.0, 71), (100.0, 170), (350.0, 475)]


class TestDisplacement:
    """The oracle's coherent input, the displaced vacuum, and the tail its truncation drops."""

    def test_zero_displacement_is_identity(self):
        assert _coherent_input_ket(0.0, 8).tolist() == [1.0]

    def test_coherent_column_amplitudes(self):
        alpha, n = 0.5, 10
        column = _coherent_input_ket(alpha, n)
        ns = np.arange(n + 1)
        expected = np.exp(-abs(alpha) ** 2 / 2) * alpha**ns / np.sqrt(factorial(ns))
        expected /= np.linalg.norm(expected)
        assert np.allclose(column, expected, rtol=0.0, atol=1e-15)

    # A weak and a negative field at every cutoff; the orthogonal run's field
    # of 1.9e-16 and a field of 1e-150, whose amplitudes underflow after a few
    # levels; the CLI's cutoffs from mu_alpha 0.2 to 350; and mu_alpha = 1500,
    # beyond the CLI's reach, where amplitudes multiplied up from n = 0 would
    # overflow, at its own cutoff and truncated far below its mean.
    @pytest.mark.parametrize(
        "alpha, cutoffs",
        [
            (0.3, CUTOFFS), (-2.0, CUTOFFS),
            (math.sqrt(10.0) * math.cos(math.pi / 2.0), CUTOFFS), (1e-150, CUTOFFS),
            *[(math.sqrt(mu), [cutoff]) for mu, cutoff in CLI_REACH],
            (math.sqrt(1500.0), [500, 1760]),
        ],
        ids=["0.3", "-2", "orthogonal", "1e-150", *[f"sqrt{mu:g}" for mu, _ in CLI_REACH], "sqrt1500"],
    )
    def test_matches_exact_amplitudes(self, alpha, cutoffs):
        for cutoff in cutoffs:
            ket = _coherent_input_ket(alpha, cutoff)
            assert np.isfinite(ket).all() and ket[0] >= 0.0
            assert np.abs(padded(ket, cutoff) - exact_coherent_ket(alpha, cutoff)).max() <= 1e-15, cutoff

    def test_ket_keeps_what_the_tail_mass_drops(self):
        # exp(-mu) sum_{n <= c} mu^n / n! is 1 - coherent_tail_mass(mu, c), and
        # the ket is exactly the amplitudes divided by the square root of it
        assert coherent_tail_mass(1500.0, 1760) < 1e-10
        assert [required_cutoff(mu, 1e-10) for mu, _ in CLI_REACH] == [c for _, c in CLI_REACH]
        for mu, cutoff in [*CLI_REACH, (1500.0, 1760)]:
            amps = exact_coherent_amplitudes(math.sqrt(mu), cutoff)
            with localcontext() as ctx:
                ctx.prec = 60
                kept = float(sum(c * c for c in amps))
            assert kept == pytest.approx(1.0 - coherent_tail_mass(mu, cutoff), rel=1e-15, abs=0.0), mu
            ket = padded(_coherent_input_ket(math.sqrt(mu), cutoff), cutoff)
            assert np.abs(ket * math.sqrt(kept) - np.array(amps, dtype=float)).max() <= 1e-15, mu

    def test_real_alpha_gives_real_matrix(self):
        # the coherent ket is real for real alpha
        assert _coherent_input_ket(0.5, 10).dtype == np.float64

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

    def test_bright_field_is_refused_fast(self):
        # simulate reaches this with oracle_check_ratios=[1e6]; without the head
        # branch the tail series climbs to the Poisson mode first, for seconds
        start = time.perf_counter()
        with pytest.raises(InvalidParameterError, match="no cutoff <= 500"):
            required_cutoff(1e6)
        assert coherent_tail_mass(1e6, 500) == 1.0
        assert time.perf_counter() - start < 1.0


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
        tail = coherent_tail_mass(2.0, 3)
        assert tail >= TAIL_REFUSAL
        message = f"cutoff 3 keeps only {1 - tail:.9f} of the coherent state (tail {tail:.3e} >= 1e-06)"
        with pytest.raises(TruncationError, match=re.escape(message)):
            mix_on_beam_splitter(
                SourceParams(p1=1.0), LocalOscillator(mu_alpha=2.0), BALANCED, cutoff=3
            )

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
        expected = 0.25 * 0.3**2 * cross_coincidence(1.0 / 0.3, 0.04, 0.0)
        assert moments.coincidence == pytest.approx(expected, abs=1e-8)

    def test_partial_indistinguishability_rescales_overlap(self):
        # a source of indistinguishability m_psi mixes in an orthogonal run at weight 1 - m_psi
        m, m_psi = 0.8, 0.905
        source = SourceParams.from_moments(0.3, 0.0412)
        lo = LocalOscillator(mu_alpha=0.6, theta=theta_for_overlap(m))
        cutoff = required_cutoff(0.6, 1e-10)
        configured = mix_on_beam_splitter(source, lo, BALANCED, cutoff)
        orthogonal = mix_on_beam_splitter(source, replace(lo, theta=math.pi / 2.0), BALANCED, cutoff)
        state = m_psi * configured + (1.0 - m_psi) * orthogonal
        expected = auto_g2_zero(0.6 / 0.3, 0.0412, m * m_psi)
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
        probs = mix_on_beam_splitter(source, lo, BALANCED, 8)
        assert probs.min() >= 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_joint_distribution_normalized(self):
        source = SourceParams.from_moments(0.3, 0.0412)
        lo = LocalOscillator(mu_alpha=0.2, theta=0.5)
        joint = mix_on_beam_splitter(source, lo, BALANCED, 8)
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        moments = cross_correlations(joint)
        n2 = np.arange(joint.shape[0])
        assert (joint.sum(axis=1) * n2).sum() == pytest.approx(moments.mean_2, abs=1e-12)


class TestCrossCorrelationsDirect:
    def point_distribution(self, n2: int, n3: int, cutoff: int = 2):
        d = 2 * cutoff + 5
        distribution = np.zeros((d, d))
        distribution[n2, n3] = 1.0
        return distribution

    def test_vacuum_state(self):
        moments = cross_correlations(self.point_distribution(0, 0))
        assert moments == (0.0, 0.0, 0.0)

    def test_one_photon_in_each_output(self):
        moments = cross_correlations(self.point_distribution(1, 1))
        assert moments == (1.0, 1.0, 1.0)

    def test_mean_whose_square_underflows_is_undefined(self):
        distribution = self.point_distribution(0, 0)
        distribution[1, 0] = 1e-300  # a mean of 1e-300, whose square is 0 in float64
        with pytest.raises(UndefinedCorrelationError, match="squares below the smallest normal float64"):
            auto_correlation(distribution)


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


@lru_cache(maxsize=1024)
def reference_sector_unitary(transmission: float, total: int) -> np.ndarray:
    """Two-mode mixing unitary on (x, y) restricted to ``total`` photons, by eigh.

    The unitary is expm(theta (x+ y - x y+)) with cos(theta) = sqrt(T), so
    x_out = sqrt(T) x + sqrt(R) y.  Row and column j stand for the basis
    state |j>_x |total - j>_y.  One Hermitian eigendecomposition per
    photon-number sector: the reference for the creation-operator steps.
    """
    j = np.arange(total)
    hop = np.diag(np.sqrt((j + 1.0) * (total - j)), -1)  # matrix of x+ y
    theta = math.acos(min(1.0, math.sqrt(transmission)))
    w, v = np.linalg.eigh(-1j * theta * (hop - hop.T))
    return ((v * np.exp(1j * w)) @ v.conj().T).real


def reference_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full 2-D convolution of two arrays, one Toeplitz product per row of b."""
    (rows_a, cols_a), (rows_b, cols_b) = a.shape, b.shape
    shift = np.arange(cols_a + cols_b - 1) - np.arange(cols_a)[:, None]
    inside = (shift >= 0) & (shift < cols_b)
    out = np.zeros((rows_a + rows_b - 1, cols_a + cols_b - 1))
    for i, row in enumerate(b):
        out[i : i + rows_a] += a @ np.where(inside, row[np.clip(shift, 0, cols_b - 1)], 0.0)
    return out


def reference_mix_on_beam_splitter(source, lo, bs, cutoff) -> np.ndarray:
    """Reference output distribution from sector unitaries and a 2-D convolution.

    Loss keeps the Kraus elements K_k[j, j + k] = U_{j+k}[j, j + k] of the
    sector unitaries; each source branch |n>_x meets the coherent ket in
    y sector by sector (the x slot exits as out_3, the y slot as out_2), and
    the perpendicular pair distribution is convolved in.
    """
    rho = np.diag([1.0 - source.p1 - source.p2, source.p1, source.p2])
    populations = np.zeros(3)
    for k in range(3):
        kraus = np.zeros((3, 3))
        for j in range(3 - k):
            kraus[j, j + k] = reference_sector_unitary(source.eta, j + k)[j, j + k]
        populations += np.diag(kraus @ rho @ kraus.T)
    size = cutoff + 3

    def pair(n_x, ket_y):
        amp = np.zeros((size, size))
        for k, c in enumerate(ket_y):
            total = n_x + k
            j = np.arange(total + 1)
            amp[total - j, j] = c * reference_sector_unitary(bs.transmission, total)[:, n_x]
        return np.abs(amp) ** 2

    ket_par = exact_coherent_ket(lo.alpha * math.cos(lo.theta), cutoff)
    ket_perp = exact_coherent_ket(lo.alpha * math.sin(lo.theta), cutoff)
    parallel = sum(populations[n] * pair(n, ket_par) for n in range(3))
    return reference_convolve(parallel, pair(0, ket_perp))


def creation_column(transmission: float, total: int, a: int) -> np.ndarray:
    """Column a of the sector unitary from fock_oracle's creation-operator helper.

    The column is (sqrt(T) x+ - sqrt(R) y+)^a (sqrt(R) x+ + sqrt(T) y+)^b
    |0, 0> / sqrt(a! b!) with b = total - a; x exits as out_3 and y as out_2.
    """
    c, s = math.sqrt(transmission), math.sqrt(1.0 - transmission)
    amp = np.ones((1, 1))
    for k in range(1, total - a + 1):
        amp = _create(amp, c / math.sqrt(k), s / math.sqrt(k))
    for k in range(1, a + 1):
        amp = _create(amp, -s / math.sqrt(k), c / math.sqrt(k))
    j = np.arange(total + 1)
    return amp[total - j, j]


def creation_sector_unitary(transmission: float, total: int) -> np.ndarray:
    return np.column_stack([creation_column(transmission, total, a) for a in range(total + 1)])


def oracle_columns(total: int) -> list[int]:
    """Columns the oracle forms: at most two source photons (mixing) or two lost ones (loss)."""
    return sorted({0, 1, 2, total - 2, total - 1, total} & set(range(total + 1)))


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
            assert np.abs(block - creation_sector_unitary(transmission, total)).max() < 1e-13

    @pytest.mark.parametrize("transmission", [0.0, 0.3, 0.5, 1.0])
    def test_sector_unitary_matches_exact_expansion(self, transmission):
        # scipy's expm is itself up to 1.8e-13 off the exact map at 40 photons,
        # so the reference is the binomial expansion in 40-digit decimals.  The
        # columns are those the oracle forms; one with many photons of both
        # kinds loses digits to the alternating signs (1e-11 at 40 photons).
        for total in range(41):
            exact = exact_sector_unitary(transmission, total)
            for a in oracle_columns(total):
                column = creation_column(transmission, total, a)
                assert np.abs(column - exact[:, a]).max() <= 1e-13

    @pytest.mark.parametrize("total", [200, 475])
    def test_columns_match_eigh_reference_at_large_totals(self, total):
        # 475 photons fill the largest sector of the CLI's largest cutoff
        for transmission in (0.3, 0.5):
            reference = reference_sector_unitary(transmission, total)
            for a in oracle_columns(total):
                column = creation_column(transmission, total, a)
                assert np.abs(column - reference[:, a]).max() <= 1e-12


class TestAgainstSectorReference:
    @given(
        p1=st.floats(0.0, 1.0),
        p2=st.floats(0.0, 1.0),
        eta=st.floats(0.0, 1.0),
        theta=st.floats(0.0, math.pi),
        transmission=st.floats(0.0, 1.0),
        mu_alpha=st.floats(0.0, 5.0),
        cutoff=st.integers(2, 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_distribution_matches_reference(self, p1, p2, eta, theta, transmission, mu_alpha, cutoff):
        assume(p1 + p2 <= 1.0 and coherent_tail_mass(mu_alpha, cutoff) < TAIL_REFUSAL)
        source = SourceParams(p1=p1, p2=p2, eta=eta)
        lo = LocalOscillator(mu_alpha=mu_alpha, theta=theta)
        bs = BeamSplitterSpec(transmission)
        dist = mix_on_beam_splitter(source, lo, bs, cutoff)
        reference = reference_mix_on_beam_splitter(source, lo, bs, cutoff)
        assert dist.shape == reference.shape
        assert np.abs(dist - reference).max() <= 1e-14


def names_in(tree: ast.AST) -> set[str]:
    """Every identifier, attribute, imported name and string constant in a syntax tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(part for part in (node.name, node.asname) if part)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def linalg_names_in(tree: ast.AST) -> set[str]:
    """Every name taken from a ``linalg`` module, as ``x.linalg.name`` or ``from ... linalg import name``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            if node.value.attr == "linalg":
                names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg":
            names.update(alias.name for alias in node.names)
    return names


class TestIndependence:
    closed_forms = {
        "cross_coincidence", "hom_visibility", "auto_g2_zero", "overlap_from_visibility",
        "g2_from_probs", "loss_degraded_probs", "peak_analysis",
    }

    def test_oracle_names_no_closed_form(self):
        # the oracle checks the closed forms, so it must not compute with them
        tree = ast.parse(Path(fock_oracle.__file__).read_text())
        assert names_in(tree) & self.closed_forms == set()

    def test_a_named_closed_form_is_found(self):
        tree = ast.parse("from .analytic_model import loss_degraded_probs as q\nx = am.hom_visibility")
        assert names_in(tree) & self.closed_forms == {"loss_degraded_probs", "hom_visibility"}

    def test_oracle_calls_no_lapack(self):
        # the coherent amplitudes are multiplied out elementwise; only the
        # renormalization takes a norm
        tree = ast.parse(Path(fock_oracle.__file__).read_text())
        assert linalg_names_in(tree) <= {"norm"}

    def test_a_linalg_call_is_found(self):
        tree = ast.parse("w, v = np.linalg.eigh(h)\nfrom numpy.linalg import expm as e\nn = np.linalg.norm(v)")
        assert linalg_names_in(tree) == {"eigh", "expm", "norm"}


class TestStateSize:
    def test_arrays_stay_two_mode(self):
        cutoff = required_cutoff(2.0, 1e-10)
        dist = mix_on_beam_splitter(
            SourceParams(p1=1.0), LocalOscillator(mu_alpha=2.0), BALANCED, cutoff
        )
        assert isinstance(dist, np.ndarray) and dist.dtype == np.float64
        assert dist.shape == (2 * cutoff + 5, 2 * cutoff + 5)

    def test_branches_reproduce_lossy_source_populations(self):
        # with no coherent light, n2 + n3 counts the source photons that survived the loss
        source = SourceParams(p1=0.9, p2=0.05, eta=0.7)
        dist = mix_on_beam_splitter(source, LocalOscillator(mu_alpha=0.0), BALANCED, 12)
        q0, q1, q2 = loss_degraded_probs(0.9, 0.05, 0.7)
        n2, n3 = np.indices(dist.shape)
        totals = np.bincount((n2 + n3).ravel(), weights=dist.ravel())
        assert np.allclose(totals[:3], [1.0 - 0.9 - 0.05 + q0, q1, q2], atol=1e-15)
        assert np.allclose(totals[3:], 0.0, atol=1e-15)


class TestOracleInvariants:
    params = dict(
        mu_alpha=st.floats(0.0, 3.0),
        mu_psi=st.floats(0.01, 1.0),
        g2=st.floats(0.0, 0.2),
        theta=st.floats(0.0, math.pi),
        transmission=st.floats(0.0, 1.0),
    )

    @staticmethod
    def distribution(mu_alpha, mu_psi, g2, theta, transmission):
        source = SourceParams.from_moments(mu_psi, g2)
        lo = LocalOscillator(mu_alpha=mu_alpha, theta=theta)
        cutoff = required_cutoff(mu_alpha, 1e-10)
        return mix_on_beam_splitter(source, lo, BeamSplitterSpec(transmission), cutoff)

    @given(**params)
    @settings(max_examples=40, deadline=None)
    def test_photon_number_conserved(self, mu_alpha, mu_psi, g2, theta, transmission):
        dist = self.distribution(mu_alpha, mu_psi, g2, theta, transmission)
        n2 = np.arange(dist.shape[0])
        n3 = np.arange(dist.shape[1])
        total = n2 @ dist.sum(axis=1) + dist.sum(axis=0) @ n3
        assert total == pytest.approx(mu_alpha + mu_psi, abs=1e-8)

    @given(**params)
    @settings(max_examples=40, deadline=None)
    def test_output_swap_under_transmission_swap(self, mu_alpha, mu_psi, g2, theta, transmission):
        dist = self.distribution(mu_alpha, mu_psi, g2, theta, transmission)
        swapped = self.distribution(mu_alpha, mu_psi, g2, theta, 1.0 - transmission)
        assert np.abs(dist - swapped.T).max() <= 1e-12

    @given(**params)
    @settings(max_examples=40, deadline=None)
    def test_distribution_is_normalized(self, mu_alpha, mu_psi, g2, theta, transmission):
        dist = self.distribution(mu_alpha, mu_psi, g2, theta, transmission)
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
            auto_g2_zero(mu_alpha / mu_psi, g2, m), abs=1e-6
        )
        orthogonal = mix_on_beam_splitter(source, replace(lo, theta=math.pi / 2), BALANCED, cutoff)
        assert visibility_from_states(state, orthogonal) == pytest.approx(
            hom_visibility(mu_alpha / mu_psi, g2, m), abs=1e-6
        )

    def test_cross_moment_matches_reduced_interference_form(self):
        # discriminates the coincidence-suppressing overlap term from a
        # bunching-signed alternative
        mu_alpha, mu_psi, g2, m = 1.0, 0.3, 0.04, 0.5
        source = SourceParams.from_moments(mu_psi, g2)
        lo = LocalOscillator(mu_alpha=mu_alpha, theta=theta_for_overlap(m))
        state = mix_on_beam_splitter(source, lo, BALANCED, required_cutoff(mu_alpha, 1e-10))
        raw = 4.0 * cross_correlations(state).coincidence
        suppressing = mu_psi**2 * cross_coincidence(mu_alpha / mu_psi, g2, m)
        enhancing = mu_alpha**2 + mu_psi**2 * g2 + 2 * mu_alpha * mu_psi * (1 + m)
        assert raw == pytest.approx(suppressing, abs=1e-6)
        assert abs(raw - enhancing) > 0.1
