"""Quantum interference of a pulsed single-photon stream with a weak coherent field.

Library layout:

- :mod:`photonmix.fock_oracle`: brute-force truncated Fock-space simulation
  of the mixing experiment with photon-number-sector unitaries, whose output
  state is the (2 cutoff + 5)^2 joint photon-number distribution P[n2, n3];
  the ground truth for every closed form.
- :mod:`photonmix.analytic_model`: closed-form photon correlations,
  visibility, overlap inversion and peak identities.
- :mod:`photonmix.mode_overlap`: per-degree-of-freedom mode overlaps from
  sampled profiles and fringe records.
- :mod:`photonmix.tagstream`: detector time-tag ingestion, correlation
  histograms and g2(0) extraction.
- :mod:`photonmix.estimator`: power calibration, the sweep fit and brightness
  estimation.
- :mod:`photonmix.synthetic`: seeded Monte Carlo tag generators.
- :mod:`photonmix.tables`: the CSV table format every reader and writer shares.
- :mod:`photonmix.workers`: child processes that run one call each.
- :mod:`photonmix.cli`: the ``photonmix`` command-line front end.
"""

__version__ = "0.1.0"

from .analytic_model import (
    LocalOscillator,
    PeakReport,
    SourceParams,
    auto_g2_zero,
    cross_coincidence,
    g2_from_probs,
    hom_visibility,
    loss_degraded_probs,
    overlap_from_visibility,
    peak_analysis,
)
from .fock_oracle import (
    BeamSplitterSpec,
    OutputState,
    TruncationReport,
    apply_loss,
    auto_correlation,
    build_qd_state,
    coherent_tail_mass,
    cross_correlations,
    displacement_matrix,
    mix_on_beam_splitter,
    required_cutoff,
    visibility_from_states,
)
from .mode_overlap import (
    OverlapBreakdown,
    SampledProfile,
    amplitude_from_intensity,
    fringe_visibility_overlap,
    overlap_integral,
    total_overlap,
)
from .tagstream import (
    CorrelationHistogram,
    G2Result,
    TagStream,
    build_histogram,
    g2_zero,
    parse_tags,
    visibility_from_histograms,
)
from .estimator import (
    FitResult,
    PowerCalibration,
    brightness_from_auto_peak,
    calibrate_mu_alpha,
    fit_sweep,
    polarization_efficiency_correction,
)

__all__ = [name for name in dir() if not name.startswith("_")]
