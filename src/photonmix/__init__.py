"""Quantum interference of a pulsed single-photon stream with a weak coherent field.

Library layout (names are imported from their modules, e.g.
``from photonmix.fock_oracle import mix_on_beam_splitter``):

- :mod:`photonmix.fock_oracle`: brute-force truncated Fock-space simulation
  of the mixing experiment, whose output is built photon by photon with the
  beam splitter's creation operators into the (2 cutoff + 5)^2 joint
  photon-number distribution P[n2, n3]; the ground truth for every closed
  form.
- :mod:`photonmix.analytic_model`: closed-form photon correlations,
  visibility, overlap inversion and peak identities.
- :mod:`photonmix.mode_overlap`: per-degree-of-freedom mode overlaps from
  sampled profiles and fringe records.
- :mod:`photonmix.tagstream`: detector time-tag ingestion, correlation
  histograms and g2(0) extraction.
- :mod:`photonmix.estimator`: power calibration and the sweep fit, whose ratio
  scale gives the source brightness.
- :mod:`photonmix.synthetic`: seeded Monte Carlo tag generators.
- :mod:`photonmix.tables`: the CSV table format every reader and writer shares.
- :mod:`photonmix.workers`: child processes that run one call each.
- :mod:`photonmix.cli`: the ``photonmix`` command-line front end.
"""

__version__ = "0.1.0"
