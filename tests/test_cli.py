import gzip
import io
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from contextlib import contextmanager, redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from photonmix.analytic_model import LocalOscillator, SourceParams, auto_g2_zero, hom_visibility
from photonmix import cli, tagstream
from photonmix.cli import _SCHEMAS, _load_config, _violations, cmd_analyze, main
from photonmix.errors import ConfigError, DataFormatError, PhotonmixError
from photonmix.fock_oracle import BeamSplitterSpec, coherent_tail_mass, required_cutoff
from photonmix.synthetic import displaced_fock_tags, pulsed_coherent_tags
from photonmix.tagstream import parse_tags

from helpers import write_sweep, write_tags_csv, write_time_profile

REP = 12195
TAU_MAX = 122_000


def run(args) -> int:
    return main(args)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def output_files(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


class TestSimulate:
    def test_reference_curve_peaks_at_expected_bin(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            ["simulate", "--out", str(out), "--set", "m=0.76", "--set", "g2_psi=0.0412"]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        data = np.array([[float(c) for c in row.split(",")] for row in rows])
        grid, v = data[:, 0], data[:, 1]
        peak_bin = grid[np.argmax(v)]
        nearest = grid[np.argmin(np.abs(grid - 0.203))]
        assert peak_bin == nearest
        report = read_json(out / "report.json")
        assert report["peaks"]["r_vhom_star"] == pytest.approx(0.2030, abs=1e-4)

    def test_zero_overlap_flat_visibility(self, tmp_path):
        out = tmp_path / "run"
        assert run(["simulate", "--out", str(out), "--set", "m=0", "--set", "g2_psi=0.04"]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        v = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(v == 0.0)
        report = read_json(out / "report.json")
        assert set(report) == {"peaks", "oracle_checks"}
        # the bunching curve is monotone at m = 0: its peak keys are there, and null
        assert set(report["peaks"]) == {"r_vhom_star", "v_max", "r_auto_star", "g2_auto_max"}
        assert report["peaks"]["r_auto_star"] is None and report["peaks"]["g2_auto_max"] is None

    def test_ideal_bunching_peak_reported(self, tmp_path):
        out = tmp_path / "run"
        assert run(["simulate", "--out", str(out), "--set", "m=1", "--set", "g2_psi=0"]) == 0
        report = read_json(out / "report.json")
        assert report["peaks"]["g2_auto_max"] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert report["peaks"]["r_auto_star"] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("g2_psi", [1.5, 2])
    def test_monotone_bunching_curve_has_no_peak(self, tmp_path, capsys, g2_psi):
        # g2_psi >= 1 + m puts the bunching curve's stationary point at r <= 0
        out = tmp_path / "run"
        assert run(["simulate", "--out", str(out), "--set", "m=0.5", "--set", f"g2_psi={g2_psi}"]) == 0
        assert capsys.readouterr().err == ""
        peaks = read_json(out / "report.json")["peaks"]
        assert peaks["r_auto_star"] is None
        assert peaks["g2_auto_max"] is None

    def test_peak_beyond_float64_is_config_error(self, tmp_path, capsys):
        # r_auto_star = (1 + m - g2_psi) / m overflows for a subnormal m
        out = tmp_path / "run"
        assert run(["simulate", "--out", str(out), "--set", "m=1e-320", "--set", "g2_psi=0"]) == 2
        assert capsys.readouterr().err == (
            "config error: the r_auto_star at m=1e-320, g2_psi=0 leaves the float64 range (inf)\n"
        )
        assert list(out.iterdir()) == []

    def test_oracle_spot_checks(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            [
                "simulate", "--out", str(out),
                "--set", "m=0.5", "--set", "g2_psi=0.04", "--set", "mu_psi=0.3",
                "--set", "oracle_check_ratios=[0.5,2.0]",
            ]
        )
        assert code == 0
        report = read_json(out / "report.json")
        assert len(report["oracle_checks"]) == 2
        for check in report["oracle_checks"]:
            assert set(check) == {
                "ratio", "mu_alpha", "cutoff", "tail_mass", "v_hom_analytic", "v_hom_oracle",
                "g2_auto_analytic", "g2_auto_oracle", "max_abs_diff",
            }
            assert check["max_abs_diff"] < 1e-6
            assert check["tail_mass"] == coherent_tail_mass(check["mu_alpha"], check["cutoff"])
            assert check["tail_mass"] < 1e-10  # the default tail_target
            # the cutoff is the smallest whose tail at cutoff - 2, the share of <n(n-1)> it drops, is below the target
            assert coherent_tail_mass(check["mu_alpha"], check["cutoff"] - 2) < 1e-10
            assert check["cutoff"] == 4 or coherent_tail_mass(check["mu_alpha"], check["cutoff"] - 3) >= 1e-10

    def test_oracle_reaches_sweep_end(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            [
                "simulate", "--out", str(out),
                "--set", "m=0.76", "--set", "g2_psi=0.0412",
                "--set", "oracle_check_ratios=[0.01,30]",
            ]
        )
        assert code == 0
        checks = read_json(out / "report.json")["oracle_checks"]
        assert [c["ratio"] for c in checks] == [0.01, 30]
        for check in checks:
            assert check["max_abs_diff"] <= 1e-6
            assert check["tail_mass"] == coherent_tail_mass(check["mu_alpha"], check["cutoff"])
            assert check["tail_mass"] < 1e-10
            assert coherent_tail_mass(check["mu_alpha"], check["cutoff"] - 2) < 1e-10
            assert check["cutoff"] == 4 or coherent_tail_mass(check["mu_alpha"], check["cutoff"] - 3) >= 1e-10

    def test_smallest_accepted_scale_agrees(self):
        # bisect mu_psi, on a log scale, down to the edge of the refusal of subnormal normalizations
        def report(mu_psi):
            cfg = _load_config("simulate", None, ["m=0.76", "g2_psi=0.0412", "oracle_check_ratios=[1]"], None)
            return cli.cmd_simulate({**cfg, "mu_psi": mu_psi})[0]["report.json"]

        refused, accepted = 1e-160, 1e-150
        while accepted / refused > 1 + 1e-12:
            mid = math.sqrt(refused * accepted)
            try:
                report(mid)
                accepted = mid
            except ConfigError as exc:
                assert "loses precision" in str(exc) and f"mu_psi={mid!r}" in str(exc)
                refused = mid
        assert 1e-154 < accepted < 1e-153
        assert report(accepted)["oracle_checks"][0]["max_abs_diff"] <= 1e-6

    def test_faint_coherent_field_takes_the_smallest_cutoff(self):
        # mu_alpha = 1e-160 leaves no tail at the smallest cutoff; the source is bright, so the check is precise
        cfg = _load_config("simulate", None, ["m=0.76", "g2_psi=0.04", "oracle_check_ratios=[1e-160]"], None)
        (check,) = cli.cmd_simulate(cfg)[0]["report.json"]["oracle_checks"]
        assert check["cutoff"] == 4
        assert check["max_abs_diff"] <= 1e-6

    def test_missing_required_key_is_config_error(self, tmp_path):
        assert run(["simulate", "--out", str(tmp_path), "--set", "m=0.5"]) == 2

    def test_out_of_range_value_is_config_error(self, tmp_path):
        code = run(
            ["simulate", "--out", str(tmp_path), "--set", "m=1.5", "--set", "g2_psi=0"]
        )
        assert code == 2

    def test_mu_psi_above_one_is_config_error(self, tmp_path):
        # the oracle source is a 0/1/2-photon mixture, which cannot reach mu_psi > 1
        code = run(
            ["simulate", "--out", str(tmp_path), "--set", "m=0.5", "--set", "g2_psi=0.04",
             "--set", "mu_psi=2"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "settings, message",
        [
            (["g2_psi=3", "oracle_check_ratios=[1]"], "g2_psi=3 too large for emitted mean 1.0"),
            (
                ["g2_psi=0.04", "oracle_check_ratios=[1,1e6]"],
                "the oracle check at oracle_check_ratios entry 1000000.0 and mu_psi=1.0: "
                "no cutoff <= 500 reaches tail mass 1e-10 for mu = 1000000.0",
            ),
            # both normalizations are positive at positive mu_psi and ratio: a 0 is an underflow
            (
                ["g2_psi=0", "oracle_check_ratios=[5e-324]"],
                "the oracle check at oracle_check_ratios entry 5e-324 and mu_psi=1.0 loses precision: "
                "the orthogonal run's <n2 n3>, 0.0, is below the smallest normal float64",
            ),
            (
                ["g2_psi=0.04", "mu_psi=5e-324", "oracle_check_ratios=[1]"],
                "the oracle check at oracle_check_ratios entry 1 and mu_psi=5e-324 loses precision: "
                "the mean at 'out_2', 5e-324, squares below the smallest normal float64",
            ),
            (
                ["g2_psi=0.04", "mu_psi=1e-200", "oracle_check_ratios=[1e200]"],
                "the g2_auto_analytic at oracle_check_ratios entry 1e+200 and mu_psi=1e-200 leaves the "
                "float64 range (nan)",
            ),
        ],
        ids=["source", "cutoff", "coincidences", "mean", "closed_form"],
    )
    def test_oracle_check_config_error_writes_no_file(self, tmp_path, capsys, settings, message):
        args = ["simulate", "--out", str(tmp_path / "run"), "--set", "m=0.5"]
        for setting in settings:
            args += ["--set", setting]
        assert run(args) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list((tmp_path / "run").iterdir()) == []

    def test_sweep_too_large_for_memory_is_config_error(self, tmp_path, capsys):
        # 10**15 float64 points, 7 PiB: no allocation of that size succeeds, so nothing large starts
        args = ["simulate", "--out", str(tmp_path / "run"), "--set", "m=0.5", "--set", "g2_psi=0.04",
                "--set", f"n_points={10**15}"]
        assert run(args) == 2
        assert capsys.readouterr().err == f"config error: a sweep of n_points={10**15} does not fit in memory\n"
        assert list((tmp_path / "run").iterdir()) == []

    @pytest.mark.parametrize(
        "settings, keys",
        [
            # the closed forms square the ratio, which overflows above about 1.3e154
            (
                ["g2_psi=0.04", "r_max=1e308", "noise_sigma_rel=0.1"],
                "r_min=0.01, r_max=1e+308, noise_sigma_rel=0.1",
            ),
            # noise of 1e307 times a bunching value near 100
            (
                ["g2_psi=100", "noise_sigma_rel=1e307", "noise_model=auto"],
                "r_min=0.01, r_max=30.0, noise_sigma_rel=1e+307",
            ),
        ],
        ids=["r_max", "noise"],
    )
    def test_sweep_beyond_float64_is_config_error(self, tmp_path, capsys, settings, keys):
        args = ["simulate", "--out", str(tmp_path / "run"), "--set", "m=0.76", "--set", "n_points=3"]
        assert run([*args, *[arg for s in settings for arg in ("--set", s)]]) == 2
        assert capsys.readouterr().err == (
            f"config error: the sweep at {keys} leaves the float64 range (overflow encountered in multiply)\n"
        )
        assert list((tmp_path / "run").iterdir()) == []

    def test_relative_noise_on_zero_visibility_is_config_error(self, tmp_path, capsys):
        # V_HOM is zero at m = 0, so relative noise would write y_err = 0, which fit rejects
        args = ["simulate", "--set", "m=0", "--set", "g2_psi=0.02", "--set", "noise_sigma_rel=0.1"]
        assert run([*args, "--out", str(tmp_path / "vhom")]) == 2
        assert capsys.readouterr().err == (
            "config error: noise_sigma_rel=0.1 on the vhom curve gives points that fit refuses "
            "(sweep uncertainties must be positive)\n"
        )
        # the auto-correlation curve is positive for every r > 0
        out = tmp_path / "auto"
        assert run([*args, "--set", "noise_model=auto", "--out", str(out)]) == 0
        rows = (out / "points_auto.csv").read_text().splitlines()[1:]
        assert rows and all(float(row.split(",")[2]) > 0 for row in rows)

    def test_noise_model_without_noise_is_config_error(self, tmp_path, capsys):
        # noise_model only picks the curve noise_sigma_rel perturbs: alone it would do nothing
        args = ["simulate", "--out", str(tmp_path), "--set", "m=0.5", "--set", "g2_psi=0.02",
                "--set", "noise_model=auto"]
        assert run(args) == 2
        assert "'noise_sigma_rel' is a dependency of 'noise_model'" in capsys.readouterr().err
        assert not (tmp_path / "points_auto.csv").exists()

    @pytest.mark.parametrize("key, value", [("n_points", 5), ("seed", 3)])
    def test_integral_float_of_integer_key_runs_as_int(self, tmp_path, key, value):
        # JSON Schema's integer admits 5.0; the run must not differ from the one with 5
        args = ["simulate", "--set", "m=0.76", "--set", "g2_psi=0.0412", "--set", "noise_sigma_rel=0.02",
                "--set", "oracle_check_ratios=[1]"]
        assert run([*args, "--set", f"{key}={value}", "--out", str(tmp_path / "int")]) == 0
        assert run([*args, "--set", f"{key}={value}.0", "--out", str(tmp_path / "float")]) == 0
        assert output_files(tmp_path / "float") == output_files(tmp_path / "int")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 0.76, "g2_psi": 0.0412, "noise_sigma_rel": 0.02}))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
        for name in ("sweep.csv", "report.json", "sweep.meta.json", "points_vhom.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_noisy_points_feed_fit(self, tmp_path):
        out = tmp_path / "run"
        cfg = {"m": 0.76, "g2_psi": 0.0412, "noise_sigma_rel": 0.02, "seed": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        fit_out = tmp_path / "fit"
        code = run(
            [
                "fit", str(out / "points_vhom.csv"), "--out", str(fit_out),
                "--set", "model=vhom", "--set", "g2_psi=0.0412",
            ]
        )
        assert code == 0
        result = read_json(fit_out / "fit.json")
        assert abs(result["M_hat"] - 0.76) <= 2.0 * result["M_err"]


@pytest.fixture(scope="module")
def coherent_tagfile(tmp_path_factory):
    path = tmp_path_factory.mktemp("tags") / "coherent.csv"
    stream = pulsed_coherent_tags({2: 0.3}, 150_000, REP, seed=13)
    write_tags_csv(stream, path)
    return path


class TestAnalyze:
    def analyze_args(self, tagfile, out, extra=()):
        return [
            "analyze", str(tagfile), "--out", str(out),
            "--set", "pair=[2,2]", "--set", "bin_width=25",
            "--set", f"tau_max={TAU_MAX}", "--set", f"rep_period={REP}",
            *extra,
        ]

    def test_coherent_tags_give_unit_g2(self, tmp_path, coherent_tagfile):
        out = tmp_path / "run"
        assert run(self.analyze_args(coherent_tagfile, out)) == 0
        result = read_json(out / "g2.json")
        assert set(result) == {
            "value", "stat_err", "peak_area_0", "side_mean", "window_ps", "n_side_peaks",
        }
        assert abs(result["value"] - 1.0) <= 3.0 * result["stat_err"]
        hist_rows = (out / "histogram.csv").read_text().splitlines()
        assert hist_rows[0] == "tau_ps,counts"
        assert len(hist_rows) == 2 * (TAU_MAX // 25) + 2

    @staticmethod
    def fault_args(tags, out, *extra):
        return [
            "analyze", str(tags), "--out", str(out), "--set", "pair=[1,2]",
            "--set", "bin_width=1", "--set", "tau_max=100", "--set", "rep_period=10",
            "--set", "n_side_peaks=2", *extra,
        ]

    @pytest.fixture
    def negative_tagfile(self, tmp_path):
        # negative times, one step back by 2 ps, and a pair on the first side
        # peak, so that the analysis itself succeeds
        path = tmp_path / "negative.csv"
        path.write_text("1,-10\n2,-5\n2,-7\n2,0\n")
        return path

    def test_reorder_window_beyond_int64_is_config_error(self, tmp_path, capsys, negative_tagfile):
        out = tmp_path / "run"
        assert run(self.fault_args(negative_tagfile, out, "--set", f"reorder_window={2**63}")) == 2
        err = capsys.readouterr().err
        assert "reorder_window: 9223372036854775808 is greater than the maximum" in err
        assert not out.exists()

    def test_widest_reorder_window_does_not_wrap(self, tmp_path, negative_tagfile):
        widest, narrow = tmp_path / "widest", tmp_path / "narrow"
        assert run(self.fault_args(negative_tagfile, widest, "--set", f"reorder_window={2**63 - 1}")) == 0
        assert run(self.fault_args(negative_tagfile, narrow, "--set", "reorder_window=2")) == 0
        for name in ("g2.json", "histogram.csv"):
            assert (widest / name).read_bytes() == (narrow / name).read_bytes()

    def test_timestamp_span_beyond_int64_is_data_error(self, tmp_path, capsys):
        tags = tmp_path / "span.csv"
        tags.write_text(f"1,{-(2**63)}\n2,{2**63 - 1}\n")
        assert run(self.fault_args(tags, tmp_path / "run")) == 3
        assert capsys.readouterr().err == f"data error: {tags}: line 2: timestamps span more than 2**63 - 1 ps\n"

    def test_empty_tagfile_is_data_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run(self.analyze_args(empty, tmp_path / "run")) == 3

    def test_missing_tagfile_is_data_error(self, tmp_path):
        assert run(self.analyze_args(tmp_path / "nope.csv", tmp_path / "run")) == 3

    @pytest.mark.parametrize("pair, channel", [("[0,0]", "0"), ("[5,2]", "5")])
    def test_unknown_channel_is_config_error(self, tmp_path, coherent_tagfile, capsys, pair, channel):
        args = self.analyze_args(coherent_tagfile, tmp_path / "run", ("--set", f"pair={pair}"))
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"{channel} is not one of" in err

    def test_malformed_tagfile_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,100\n9,200\n")
        assert run(self.analyze_args(bad, tmp_path / "run")) == 3

    def test_non_utf8_tagfile_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,10\n2,\xff20\n")
        assert run(self.analyze_args(bad, tmp_path / "run")) == 3
        assert "not UTF-8" in capsys.readouterr().err

    def test_compressed_tagfile_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "tags.csv.gz"
        bad.write_bytes(gzip.compress(b"2,10\n2,20\n"))
        assert run(self.analyze_args(bad, tmp_path / "run")) == 3
        assert "not UTF-8" in capsys.readouterr().err

    def test_tag_field_beyond_int64_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,10\n2,9223372036854775808\n")
        assert run(self.analyze_args(bad, tmp_path / "run")) == 3
        assert "line 2: integer outside the 64-bit range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tau_max, bin_width, message",
        [
            (10**13, 1, "a histogram of 20000000000001 bins"),
            (2**62, 2**62, "overflows the int64 delay arithmetic"),
        ],
    )
    def test_histogram_size_is_config_error(self, tmp_path, capsys, tau_max, bin_width, message):
        tags = tmp_path / "tags.csv"
        tags.write_text("2,10\n2,20\n2,30\n2,40\n")
        extra = ("--set", f"tau_max={tau_max}", "--set", f"bin_width={bin_width}")
        assert run(self.analyze_args(tags, tmp_path / "run", extra)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert message in err

    def test_visibility_pair_matches_fixture_truth(self, tmp_path):
        m, g2 = 0.76, 0.0412
        source = SourceParams.from_moments(0.3, g2)
        bs = BeamSplitterSpec(0.5)
        cutoff = required_cutoff(0.15, 1e-10)
        lo_par = LocalOscillator(mu_alpha=0.15, theta=math.acos(math.sqrt(m)))
        lo_perp = LocalOscillator(mu_alpha=0.15, theta=math.pi / 2)
        stream_par, truth_par = displaced_fock_tags(
            source, lo_par, bs, cutoff, 600_000, REP, seed=31, channel_2=2, channel_3=1, lifetime_ps=170.0
        )
        stream_perp, truth_perp = displaced_fock_tags(
            source, lo_perp, bs, cutoff, 600_000, REP, seed=32, channel_2=2, channel_3=1, lifetime_ps=170.0
        )
        par_path = tmp_path / "par.csv"
        perp_path = tmp_path / "perp.csv"
        write_tags_csv(stream_par, par_path)
        write_tags_csv(stream_perp, perp_path)
        out = tmp_path / "run"
        code = run(
            [
                "analyze", str(par_path), "--out", str(out),
                "--set", "pair=[1,2]", "--set", "bin_width=25",
                "--set", f"tau_max={TAU_MAX}", "--set", f"rep_period={REP}",
                "--set", f'perp_tagfile="{perp_path}"',
            ]
        )
        assert code == 0
        vis = read_json(out / "visibility.json")
        assert set(vis) == {"v_hom", "err", "g2_par", "g2_perp"}
        expected = 1.0 - truth_par["g2_cross"] / truth_perp["g2_cross"]
        assert abs(vis["v_hom"] - expected) <= 3.0 * vis["err"]

    def test_integral_floats_of_integer_keys_run_as_ints(self, tmp_path, coherent_tagfile):
        # JSON Schema's integer admits 25.0; the run must not differ from the one with 25
        assert run(self.analyze_args(coherent_tagfile, tmp_path / "int", ("--set", "window=400"))) == 0
        floats = [
            "--set", "bin_width=25.0", "--set", f"tau_max={TAU_MAX}.0", "--set", f"rep_period={REP}.0",
            "--set", "window=400.0", "--set", "n_side_peaks=10.0", "--set", "reorder_window=0.0",
            "--set", "pair=[2.0,2]",  # an enum of ints admits 2.0 too
        ]
        assert run(self.analyze_args(coherent_tagfile, tmp_path / "float", floats)) == 0
        assert output_files(tmp_path / "float") == output_files(tmp_path / "int")

    def test_deterministic_outputs(self, tmp_path, coherent_tagfile):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(self.analyze_args(coherent_tagfile, out)) == 0
        for name in ("histogram.csv", "g2.json", "analyze.meta.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.fixture(scope="module")
def perp_tagfile(tmp_path_factory):
    path = tmp_path_factory.mktemp("tags") / "perp.csv"
    write_tags_csv(pulsed_coherent_tags({2: 0.3}, 60_000, REP, seed=14), path)
    return path


# a tag file whose second record has an unknown channel
_MALFORMED_TAGS = "1,100\n9,200\n"


def set_cpus(monkeypatch, n):
    """Give this process an affinity mask of ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@contextmanager
def deadline(seconds):
    """Fail the block with TimeoutError if it runs longer than ``seconds``, instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestAnalyzePair:
    """analyze with perp_tagfile: the orthogonal run is analyzed beside the parallel one."""

    def args(self, tagfile, perp, out):
        return [
            "analyze", str(tagfile), "--out", str(out),
            "--set", "pair=[2,2]", "--set", "bin_width=25",
            "--set", f"tau_max={TAU_MAX}", "--set", f"rep_period={REP}",
            *(["--set", f"perp_tagfile={json.dumps(str(perp))}"] if perp else []),
        ]

    def bad_file(self, tmp_path, body, name="bad.csv"):
        path = tmp_path / name
        if body is not None:  # None: the file is missing
            path.write_text(body)
        return path

    @pytest.mark.parametrize(
        "body, message",
        [(None, "No such file or directory"), (_MALFORMED_TAGS, "line 2: unknown channel 9"), ("", "contains no records")],
    )
    def test_bad_orthogonal_file_is_reported_as_alone(self, tmp_path, capsys, coherent_tagfile, body, message):
        bad = self.bad_file(tmp_path, body)
        assert run(self.args(bad, None, tmp_path / "alone")) == 3
        alone = capsys.readouterr().err
        assert message in alone
        assert run(self.args(coherent_tagfile, bad, tmp_path / "pair")) == 3
        assert capsys.readouterr().err == alone

    def test_bad_orthogonal_file_keeps_its_line(self, tmp_path, coherent_tagfile):
        bad = self.bad_file(tmp_path, _MALFORMED_TAGS)
        cfg = _load_config("analyze", None, self.args(coherent_tagfile, bad, tmp_path)[5::2], None)
        with pytest.raises(DataFormatError) as err:
            cmd_analyze(str(coherent_tagfile), cfg)
        assert err.value.line == 2
        assert str(err.value) == f"{bad}: line 2: unknown channel 9"

    @pytest.mark.parametrize("bad_is_perp", [False, True], ids=["tagfile", "perp_tagfile"])
    def test_data_error_names_its_file(self, tmp_path, capsys, coherent_tagfile, bad_is_perp):
        bad = self.bad_file(tmp_path, "1,10\nx,200\n")
        files = (coherent_tagfile, bad) if bad_is_perp else (bad, coherent_tagfile)
        assert run(self.args(*files, tmp_path / "run")) == 3
        assert capsys.readouterr().err == f"data error: {bad}: line 2: expected int fields in row 'x,200'\n"

    @pytest.mark.parametrize("bad_is_perp", [False, True], ids=["tagfile", "perp_tagfile"])
    def test_undefined_g2_names_its_file(self, tmp_path, capsys, coherent_tagfile, bad_is_perp):
        # no record on the pair's channel: every side peak of this file is empty
        bad = self.bad_file(tmp_path, "1,10\n1,200\n")
        files = (coherent_tagfile, bad) if bad_is_perp else (bad, coherent_tagfile)
        assert run(self.args(*files, tmp_path / "run")) == 4
        assert capsys.readouterr().err == f"numerical failure: {bad}: all side peaks are empty: cannot normalize\n"
        assert list((tmp_path / "run").iterdir()) == []

    def test_parallel_file_error_wins(self, tmp_path, capsys):
        par = self.bad_file(tmp_path, _MALFORMED_TAGS, "par.csv")
        perp = self.bad_file(tmp_path, "", "perp.csv")
        assert run(self.args(par, perp, tmp_path / "run")) == 3
        assert capsys.readouterr().err == f"data error: {par}: line 2: unknown channel 9\n"

    @pytest.mark.parametrize("body", [None, _MALFORMED_TAGS, ""], ids=["missing", "malformed", "empty"])
    def test_orthogonal_failure_writes_nothing(self, tmp_path, coherent_tagfile, body):
        # the parallel file succeeds, but its outputs wait for the orthogonal one's
        out = tmp_path / "pair"
        assert run(self.args(coherent_tagfile, self.bad_file(tmp_path, body), out)) == 3
        assert list(out.iterdir()) == []

    def test_reruns_match_and_match_one_file_runs(self, tmp_path, coherent_tagfile, perp_tagfile):
        for name in ("a", "b"):
            assert run(self.args(coherent_tagfile, perp_tagfile, tmp_path / name)) == 0
        pair = output_files(tmp_path / "a")
        assert output_files(tmp_path / "b") == pair
        assert set(pair) == {
            "analyze.meta.json", "g2.json", "g2_perp.json", "histogram.csv", "histogram_perp.csv", "visibility.json",
        }
        for tagfile, suffix in ((coherent_tagfile, ""), (perp_tagfile, "_perp")):
            assert run(self.args(tagfile, None, tmp_path / f"alone{suffix}")) == 0
            alone = output_files(tmp_path / f"alone{suffix}")
            assert pair[f"histogram{suffix}.csv"] == alone["histogram.csv"]
            assert pair[f"g2{suffix}.json"] == alone["g2.json"]

    def test_worker_dying_without_result_is_an_error(self, tmp_path, capsys, monkeypatch, coherent_tagfile):
        parent, analyze_one = os.getpid(), cli._analyze_one

        def dying(tagfile, cfg, processes=1):
            if tagfile == str(coherent_tagfile):
                return analyze_one(tagfile, cfg, processes)
            assert os.getpid() != parent, "the orthogonal file was analyzed in the calling process"
            os._exit(9)

        monkeypatch.setattr(cli, "_analyze_one", dying)
        with deadline(60):
            assert run(self.args(coherent_tagfile, coherent_tagfile.with_name("perp.csv"), tmp_path)) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "perp.csv" in err and "status 9" in err
        assert multiprocessing.active_children() == []

    def test_parallel_failure_kills_the_worker(self, tmp_path, monkeypatch):
        analyze_one = cli._analyze_one

        def stuck(tagfile, cfg, processes=1):
            if tagfile.endswith("perp.csv"):
                time.sleep(120)
            return analyze_one(tagfile, cfg, processes)

        monkeypatch.setattr(cli, "_analyze_one", stuck)
        par = self.bad_file(tmp_path, _MALFORMED_TAGS)
        with deadline(30):
            assert run(self.args(par, tmp_path / "perp.csv", tmp_path / "run")) == 3
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad", ["none", "parallel", "interrupt"])
    def test_no_worker_outlives_the_command(self, tmp_path, monkeypatch, coherent_tagfile, perp_tagfile, bad):
        par = self.bad_file(tmp_path, _MALFORMED_TAGS) if bad == "parallel" else coherent_tagfile
        args = self.args(par, perp_tagfile, tmp_path / "run")
        if bad == "interrupt":
            def interrupt(*_):
                raise KeyboardInterrupt

            monkeypatch.setattr(cli, "write_table", interrupt)
            with pytest.raises(KeyboardInterrupt):
                run(args)
        else:
            assert run(args) == (3 if bad == "parallel" else 0)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("platform_methods, used", [(["fork", "spawn"], "fork"), (["spawn"], "spawn")])
    def test_start_methods_give_identical_outputs(
        self, tmp_path, monkeypatch, coherent_tagfile, perp_tagfile, platform_methods, used
    ):
        set_cpus(monkeypatch, 2)  # one process per file: the worker is the only child started
        assert run(self.args(coherent_tagfile, perp_tagfile, tmp_path / "reference")) == 0
        contexts, get_context = [], multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: platform_methods)
        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method=None: contexts.append(method) or get_context(method)
        )
        assert run(self.args(coherent_tagfile, perp_tagfile, tmp_path / "run")) == 0
        assert contexts == [used]
        assert output_files(tmp_path / "run") == output_files(tmp_path / "reference")


class TestSplitSweep:
    """A one-file analyze splits its offset sweep over the CPUs in its affinity mask."""

    def args(self, tagfile, out, *extra):
        return [
            "analyze", str(tagfile), "--out", str(out),
            "--set", "pair=[2,2]", "--set", "bin_width=25",
            "--set", f"tau_max={TAU_MAX}", "--set", f"rep_period={REP}", *extra,
        ]

    @pytest.fixture
    def split(self, monkeypatch):
        # two CPUs and blocks of 4096 records: the sweep of the coherent file is split in two
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(tagstream, "_SWEEP_BLOCK", 4096)

    def patch_sweep(self, monkeypatch, in_child, in_parent=None):
        """Replace the sweep with ``in_child`` in child processes and ``in_parent`` here."""
        parent, sweep = os.getpid(), tagstream._sweep

        def patched(*args):
            if os.getpid() != parent:
                return in_child()
            return in_parent() if in_parent else sweep(*args)

        monkeypatch.setattr(tagstream, "_sweep", patched)

    def record_processes(self, monkeypatch, log: Path) -> list[int]:
        """The ``processes`` of each histogram built in this process, which itself sweeps alone.

        The worker's, built in another process, are appended to ``log``.
        """
        seen, build, parent = [], cli.build_histogram, os.getpid()

        def recording(*args, processes, **kwargs):
            if os.getpid() == parent:
                seen.append(processes)
            else:
                with open(log, "a") as fh:
                    fh.write(f"{processes}\n")
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "build_histogram", recording)
        return seen

    @pytest.mark.parametrize("n_cpus, one_file, two_files", [(1, 1, 1), (2, 2, 1), (4, 4, 2)])
    def test_processes_per_file(self, tmp_path, monkeypatch, coherent_tagfile, perp_tagfile, n_cpus, one_file, two_files):
        set_cpus(monkeypatch, n_cpus)
        log = tmp_path / "worker.txt"
        seen = self.record_processes(monkeypatch, log)
        assert run(self.args(coherent_tagfile, tmp_path / "one")) == 0
        perp = ("--set", f"perp_tagfile={json.dumps(str(perp_tagfile))}")
        assert run(self.args(coherent_tagfile, tmp_path / "two", *perp)) == 0
        assert seen == [one_file, two_files]
        # the worker sweeps the orthogonal file alone on any CPU count
        assert log.read_text() == "1\n"

    @pytest.mark.parametrize("cpu_count, processes", [(3, 3), (None, 1)])
    def test_cpu_count_without_affinity(self, tmp_path, monkeypatch, coherent_tagfile, cpu_count, processes):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        seen = self.record_processes(monkeypatch, tmp_path / "worker.txt")
        assert run(self.args(coherent_tagfile, tmp_path / "run")) == 0
        assert seen == [processes]

    def test_split_outputs_match_one_process(self, tmp_path, monkeypatch, split, coherent_tagfile):
        assert run(self.args(coherent_tagfile, tmp_path / "split")) == 0
        set_cpus(monkeypatch, 1)
        assert run(self.args(coherent_tagfile, tmp_path / "alone")) == 0
        assert output_files(tmp_path / "split") == output_files(tmp_path / "alone")

    def test_sweep_child_dying_is_an_error(self, tmp_path, capsys, monkeypatch, split, coherent_tagfile):
        self.patch_sweep(monkeypatch, lambda: os._exit(9))
        with deadline(60):
            assert run(self.args(coherent_tagfile, tmp_path)) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: the process sweeping the blocks from record ") and "status 9" in err
            stream = parse_tags(coherent_tagfile)
            with pytest.raises(PhotonmixError, match="exited with status 9 without a result"):
                tagstream.build_histogram(stream, (2, 2), 25, TAU_MAX, processes=2)
        assert multiprocessing.active_children() == []

    def test_sweep_child_exception_is_raised_again(self, tmp_path, capsys, monkeypatch, split, coherent_tagfile):
        def failing():
            raise DataFormatError("bad block", line=7)

        self.patch_sweep(monkeypatch, failing)
        assert run(self.args(coherent_tagfile, tmp_path)) == 3
        assert capsys.readouterr().err == "data error: line 7: bad block\n"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fault", [None, RuntimeError, KeyboardInterrupt])
    def test_no_sweep_child_outlives_the_command(self, tmp_path, monkeypatch, split, coherent_tagfile, fault):
        if fault is not None:
            def fail():
                raise fault("the parent's own range failed")

            # the child is stuck while the parent fails: it must be killed, not waited for
            self.patch_sweep(monkeypatch, lambda: time.sleep(120), fail)
        with deadline(30):
            if fault is None:
                assert run(self.args(coherent_tagfile, tmp_path)) == 0
            else:
                with pytest.raises(fault):
                    run(self.args(coherent_tagfile, tmp_path))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fault", ["parallel", "worker"])
    def test_no_process_outlives_a_failed_pair(self, tmp_path, capsys, monkeypatch, coherent_tagfile, perp_tagfile, fault):
        # on 4 CPUs this process splits the parallel file's sweep.  A child of the worker would
        # outlive the worker killed after a parallel fault, and would hold the worker's pipe
        # open after the worker died, so the run would hang
        set_cpus(monkeypatch, 4)
        monkeypatch.setattr(tagstream, "_SWEEP_BLOCK", 4096)
        parent, sweep, started = os.getpid(), tagstream._sweep, tmp_path / "worker sweeping"
        perp_size = int(np.count_nonzero(parse_tags(perp_tagfile).channels == 2))
        assert perp_size != np.count_nonzero(parse_tags(coherent_tagfile).channels == 2)

        def patched(t, *args):
            if os.getpid() == parent:
                if fault == "parallel":
                    waited = time.monotonic()
                    while not started.exists() and time.monotonic() - waited < 20:
                        time.sleep(0.05)
                    raise DataFormatError("the parallel file failed")
            elif t.size == perp_size:
                if os.getppid() != parent:  # a child of the worker: it outlives the test's deadline
                    time.sleep(120)
                    os._exit(0)
                if fault == "worker":
                    os._exit(9)
                started.touch()
                time.sleep(120)  # until the parallel fault kills the worker
            return sweep(t, *args)

        monkeypatch.setattr(tagstream, "_sweep", patched)
        perp = ("--set", f"perp_tagfile={json.dumps(str(perp_tagfile))}")
        # every process forked from here on holds ``alive`` open until it exits
        done, alive = os.pipe()
        try:
            with deadline(60):
                assert run(self.args(coherent_tagfile, tmp_path / "run", *perp)) == (3 if fault == "parallel" else 4)
                os.close(alive)
                alive = None
                assert os.read(done, 1) == b""
        finally:
            os.close(done)
            if alive is not None:
                os.close(alive)
        err = capsys.readouterr().err
        assert ("the parallel file failed" if fault == "parallel" else "status 9") in err
        assert multiprocessing.active_children() == []

    def test_spawn_gives_identical_outputs(self, tmp_path, monkeypatch, split, coherent_tagfile):
        assert run(self.args(coherent_tagfile, tmp_path / "fork")) == 0
        contexts, get_context = [], multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method=None: contexts.append(method) or get_context(method)
        )
        assert run(self.args(coherent_tagfile, tmp_path / "spawn")) == 0
        assert contexts == ["spawn"]
        assert output_files(tmp_path / "spawn") == output_files(tmp_path / "fork")


class TestConfigBeforeTags:
    """analyze rejects a config fault before it reads a tag or starts a worker."""

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("n_side_peaks=3", "n_side_peaks must be an even count >= 2"),
            ("window=20000", "window must satisfy 0 < window < rep_period / 2, got 20000"),
            ("n_side_peaks=40", f"histogram range {TAU_MAX} ps too small for 20 side peaks at rep_period {REP} ps"),
            ("bin_width=6100", f"bin_width 6100 too coarse for rep_period {REP}"),
            ("bin_width=7", f"bin_width 7 must divide tau_max {TAU_MAX}"),
        ],
    )
    @pytest.mark.parametrize("two_files", [False, True])
    def test_config_error_wins_over_the_data(self, tmp_path, capsys, monkeypatch, setting, message, two_files):
        def unreachable(*args, **kwargs):
            raise AssertionError("reached after a config fault")

        monkeypatch.setattr(cli, "parse_tags", unreachable)
        monkeypatch.setattr(cli, "in_child", unreachable)
        bad = tmp_path / "bad.csv"
        bad.write_text(_MALFORMED_TAGS)  # a data error (exit 3) if it were read
        args = [
            "analyze", str(bad), "--out", str(tmp_path / "run"),
            "--set", "pair=[2,2]", "--set", "bin_width=25",
            "--set", f"tau_max={TAU_MAX}", "--set", f"rep_period={REP}", "--set", setting,
        ]
        if two_files:
            args += ["--set", f"perp_tagfile={json.dumps(str(bad))}"]
        assert run(args) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list((tmp_path / "run").iterdir()) == []


class TestOverlapCommand:
    def make_time_profiles(self, tmp_path):
        t = np.arange(0.0, 2000.0, 1.0)
        paths = []
        for tau in (170.0, 100.0):
            path = tmp_path / f"tau{int(tau)}.csv"
            write_time_profile(path, t, np.exp(-t / tau))
            paths.append(str(path))
        return paths

    def test_time_profile_overlap(self, tmp_path):
        paths = self.make_time_profiles(tmp_path)
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"time_profiles": paths}))
        assert run(["overlap", "--config", str(cfg), "--out", str(out)]) == 0
        payload = read_json(out / "overlap.json")
        assert set(payload) == {"breakdown", "sources"}
        assert set(payload["breakdown"]) == {"m_t", "m_f", "m_p", "m_s", "m_total", "m_tilde"}
        assert set(payload["sources"]) == {"m_t", "m_f", "m_p"}
        expected = 4 * 170 * 100 / 270.0**2
        assert payload["breakdown"]["m_t"] == pytest.approx(expected, abs=1e-4)
        assert payload["sources"]["m_t"] == "profiles"
        assert payload["sources"]["m_p"] == "default"

    def test_direct_factors_and_fringe(self, tmp_path):
        phi = np.linspace(0.0, 2 * np.pi, 20_000, endpoint=False)
        fringe = tmp_path / "fringe.csv"
        fringe.write_text("value\n" + "\n".join(repr(float(v)) for v in 2.0 + np.cos(phi)) + "\n")
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"m_t": 0.910, "m_f": 0.85, "fringe_file": str(fringe), "k_tail": 200,
                 "m_psi": 0.905}
            )
        )
        assert run(["overlap", "--config", str(cfg), "--out", str(out)]) == 0
        payload = read_json(out / "overlap.json")
        assert set(payload) == {"breakdown", "sources", "fringe"}
        assert set(payload["fringe"]) == {"visibility", "visibility_err", "m_p", "m_p_err", "n_samples", "k_tail"}
        assert payload["breakdown"]["m_p"] == pytest.approx(0.25, abs=1e-3)
        assert payload["breakdown"]["m_total"] == pytest.approx(
            0.910 * 0.85 * payload["breakdown"]["m_p"], abs=1e-12
        )
        assert payload["breakdown"]["m_tilde"] == pytest.approx(
            payload["breakdown"]["m_total"] * 0.905, abs=1e-12
        )

    def test_fringe_header_must_be_value(self, tmp_path):
        fringe = tmp_path / "fringe.csv"
        fringe.write_text("reading\n" + "\n".join(str(v) for v in range(400)) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fringe_file": str(fringe), "k_tail": 100}))
        assert run(["overlap", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3

    def test_domain_mismatch_is_data_error(self, tmp_path, capsys):
        paths = self.make_time_profiles(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frequency_profiles": paths}))
        assert run(["overlap", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err == (
            f"data error: {paths[0]}: profile declares domain 'time', expected 'frequency'\n"
        )

    @pytest.mark.parametrize("kind", ["intensity", "amplitude"])
    def test_all_zero_profile_is_data_error(self, tmp_path, capsys, kind):
        good = self.make_time_profiles(tmp_path)[0]
        zero = tmp_path / "zero.csv"
        write_time_profile(zero, np.arange(0.0, 100.0), np.zeros(100))
        out = tmp_path / "run"
        args = ["--set", f"time_profiles={json.dumps([good, str(zero)])}", "--set", f"profile_kind={kind}"]
        assert run(["overlap", "--out", str(out), *args]) == 3
        assert capsys.readouterr().err == f"data error: {zero}: every profile value is 0\n"
        assert list(out.iterdir()) == []

    def test_profiles_that_never_meet_overlap_zero(self, tmp_path):
        # a is 1 before 50 ps and 0 to 99 ps; b is 1 from 60 ps: their shared range holds no light of a
        t = np.arange(0.0, 100.0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_time_profile(a, t, np.where(t < 50.0, 1.0, 0.0))
        write_time_profile(b, t + 60.0, np.ones(t.size))
        out = tmp_path / "run"
        assert run(["overlap", "--out", str(out), "--set", f"time_profiles={json.dumps([str(a), str(b)])}"]) == 0
        assert read_json(out / "overlap.json")["breakdown"]["m_t"] == 0.0

    @pytest.mark.parametrize("readings", [(-3.0, -1.0), (-1.0, 3.0)], ids=["all-negative", "some-negative"])
    def test_negative_fringe_reading_is_data_error(self, tmp_path, capsys, readings):
        # readings are intensities or visibilities; negative ones would give V = -0.5, or M_p = 4
        fringe = tmp_path / "fringe.csv"
        fringe.write_text("value\n\n" + f"{readings[0]!r}\n" * 600 + f"{readings[1]!r}\n" * 600)
        out = tmp_path / "run"
        assert run(["overlap", "--out", str(out), "--set", f"fringe_file={json.dumps(str(fringe))}"]) == 3
        assert capsys.readouterr().err == f"data error: {fringe}: line 3: negative reading {readings[0]!r}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "key, body, k_tail, fault",
        [
            # Python's float ** in the visibility's error raises OverflowError
            ("fringe_file", "value\n" + "1e200\n" * 500 + "2e200\n" * 500, 10,
             "the fringe's arithmetic leaves the float64 range (Numerical result out of range)"),
            ("fringe_file", "value\n" + "1e308\n" * 1000, 500,
             "the fringe's arithmetic leaves the float64 range (overflow encountered in reduce)"),
            # trapezoids 1e308 ps wide under a level that still squares near 1 once scaled
            ("time_profiles", "t_ps,value\n-1e308,1.9\n0,1.9\n1e308,1.9\n", 500,
             "the overlap's arithmetic leaves the float64 range (overflow encountered in multiply)"),
        ],
        ids=["fringe-square", "fringe-sum", "profile-span"],
    )
    def test_overlap_beyond_float64_is_data_error(self, tmp_path, capsys, key, body, k_tail, fault):
        bad = tmp_path / "bad.csv"
        bad.write_text(body)
        files = str(bad) if key == "fringe_file" else [str(bad), self.make_time_profiles(tmp_path)[0]]
        out = tmp_path / "run"
        args = ["--set", f"{key}={json.dumps(files)}", "--set", f"k_tail={k_tail}", "--set", "profile_kind=amplitude"]
        assert run(["overlap", "--out", str(out), *args]) == 3
        blamed = files if key == "fringe_file" else ", ".join(files)
        assert capsys.readouterr().err == f"data error: {blamed}: {fault}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "key, body, extra, fault",
        [
            # one trapezoid 5e-324 ps wide: the norm's area rounds to 0
            ("time_profiles", "t_ps,value\n0,1\n5e-324,1\n", [], "the profile's norm underflows to 0"),
            # the window's distance from its center, -1e308 - 1e308
            ("frequency_profiles", "f_GHz,value\n-1e308,1\n0,1\n1,1\n",
             ['spectral_filter={"center":1e308,"half_width":1e308}'], "overflow encountered in subtract"),
        ],
        ids=["norm-underflow", "filter-overflow"],
    )
    def test_pair_beyond_float64_is_data_error(self, tmp_path, capsys, key, body, extra, fault):
        bad = tmp_path / "bad.csv"
        bad.write_text(body)
        out = tmp_path / "run"
        args = ["--set", f"{key}={json.dumps([str(bad)] * 2)}", *(a for s in extra for a in ("--set", s))]
        assert run(["overlap", "--out", str(out), *args]) == 3
        assert capsys.readouterr().err == (
            f"data error: {bad}, {bad}: the overlap's arithmetic leaves the float64 range ({fault})\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "key, body, kind",
        [
            ("time_profiles", "t_ps,value\n0,1\n1,3\n2,1\n", "intensity"),
            ("frequency_profiles", "f_GHz,value\n0,1\n1,1\n2,1\n3,1\n", "amplitude"),
        ],
        ids=["time", "frequency"],
    )
    def test_a_file_against_itself_overlaps_exactly_one(self, tmp_path, key, body, kind):
        # rounding alone would give 1.0000000000000004
        profile = tmp_path / "p.csv"
        profile.write_text(body)
        out = tmp_path / "run"
        args = ["--set", f"{key}={json.dumps([str(profile)] * 2)}", "--set", f"profile_kind={kind}"]
        assert run(["overlap", "--out", str(out), *args]) == 0
        assert read_json(out / "overlap.json")["breakdown"]["m_" + key[0]] == 1.0

    @pytest.mark.parametrize(
        "factors, m_total",
        [
            ({"m_t": 0.910, "m_f": 0.85, "m_p": 0.976}, pytest.approx(0.755, abs=1e-3)),  # the paper's parallel column
            ({"m_t": 0.910, "m_f": 0.85, "m_p": 0.34}, pytest.approx(0.263, abs=1e-3)),  # and its rotated one
            ({"m_t": 1.0, "m_f": 1.0, "m_p": 1.0, "m_s": 1.0}, 1.0),
            ({"m_t": 0.91, "m_f": 0.85, "m_p": 0.34, "m_s": 0.99, "m_psi": 0.905}, 0.91 * 0.85 * 0.34 * 0.99),
            ({"m_t": 1, "m_p": 0.5}, 0.5),  # an int factor stays an int
            ({"m_t": 1.2}, None),  # beyond [0, 1]
        ],
        ids=["parallel", "rotated", "unit", "m_psi", "int", "out-of-range"],
    )
    def test_config_factors_and_their_product(self, tmp_path, capsys, factors, m_total):
        out = tmp_path / "run"
        args = [a for key, value in factors.items() for a in ("--set", f"{key}={json.dumps(value)}")]
        code = run(["overlap", "--out", str(out), *args])
        if m_total is None:
            assert code == 2
            assert capsys.readouterr().err == "config error: config key m_t: 1.2 is greater than the maximum of 1\n"
            assert not out.exists()
            return
        assert code == 0
        payload = read_json(out / "overlap.json")
        b = payload["breakdown"]
        assert b["m_total"] == m_total
        assert b["m_total"] == b["m_t"] * b["m_f"] * b["m_p"] * b["m_s"]
        assert b["m_tilde"] == (b["m_total"] * factors["m_psi"] if "m_psi" in factors else None)
        for key in ("m_t", "m_f", "m_p", "m_s"):
            value = factors.get(key, 1.0)
            assert (b[key], type(b[key])) == (value, type(value))
        assert payload["sources"] == {key: "config" if key in factors else "default" for key in ("m_t", "m_f", "m_p")}

    def test_profile_scale_leaves_the_overlap(self, tmp_path, capsys):
        # squared as read, 1e200 overflows float64 and 1e-170 underflows it
        paths = []
        for scale in (1e200, 1e-170):
            path = tmp_path / f"{scale!r}.csv"
            write_time_profile(path, np.arange(3.0), scale * np.array([1.0, 2.0, 1.0]))
            paths.append(str(path))
        out = tmp_path / "run"
        args = ["--set", f"time_profiles={json.dumps(paths)}", "--set", "profile_kind=amplitude"]
        assert run(["overlap", "--out", str(out), *args]) == 0
        assert capsys.readouterr().err == ""
        assert read_json(out / "overlap.json")["breakdown"]["m_t"] == pytest.approx(1.0, rel=1e-15)

    @staticmethod
    def forbid_reads(monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a file was read after a config fault")

        monkeypatch.setattr(cli, "read_profile", unreachable)
        monkeypatch.setattr(cli, "read_fringe", unreachable)

    @pytest.mark.parametrize(
        "key, measured_by, files",
        [
            ("m_t", "time_profiles", ["a.csv", "b.csv"]),
            ("m_f", "frequency_profiles", ["a.csv", "b.csv"]),
            ("m_p", "fringe_file", "fringe.csv"),
        ],
    )
    def test_factor_set_beside_its_measurement_is_config_error(
        self, tmp_path, capsys, monkeypatch, key, measured_by, files
    ):
        # the set value would silently replace the measured one
        self.forbid_reads(monkeypatch)
        out = tmp_path / "run"
        args = ["overlap", "--out", str(out), "--set", f"{measured_by}={json.dumps(files)}", "--set", f"{key}=0.3"]
        assert run(args) == 2
        assert capsys.readouterr().err == f"config error: {key} and {measured_by} both give {key}: set one of them\n"
        assert list(out.iterdir()) == []

    @staticmethod
    def write_profiles(tmp_path, transform, name):
        # two exponential decays, and a Gaussian line with a leakage peak at 10 GHz beside the same line 1.5 GHz away
        t, f = np.arange(0.0, 3000.0), np.linspace(-20.0, 20.0, 801)
        intensities = {
            "t_ps": [np.exp(-t / tau) for tau in (170.0, 100.0)],
            "f_GHz": [np.exp(-((f - c) ** 2) / 2.0) + 0.2 * np.exp(-((f - 10.0) ** 2) / 2.0) for c in (0.0, 1.5)],
        }
        paths = {}
        for (header, pair), xs in zip(intensities.items(), (t, f)):
            paths[header] = [str(tmp_path / f"{name}_{header}_{i}.csv") for i in range(2)]
            for path, intensity in zip(paths[header], pair):
                rows = "".join(f"{x!r},{v!r}\n" for x, v in zip(xs.tolist(), transform(intensity).tolist()))
                Path(path).write_text(f"{header},value\n{rows}")
        return paths["t_ps"], paths["f_GHz"]

    @pytest.mark.parametrize("window", [None, {"center": 0, "half_width": 5}], ids=["unfiltered", "filtered"])
    def test_intensity_and_its_root_give_the_same_bits(self, tmp_path, window):
        # an intensity file I and an amplitude file of repr(sqrt(I)) hold one profile
        filt = [] if window is None else ["--set", f"spectral_filter={json.dumps(window)}"]
        breakdowns = []
        for kind, transform in (("intensity", np.asarray), ("amplitude", np.sqrt)):
            time_paths, frequency_paths = self.write_profiles(tmp_path, transform, kind)
            out = tmp_path / kind
            args = ["--set", f"time_profiles={json.dumps(time_paths)}",
                    "--set", f"frequency_profiles={json.dumps(frequency_paths)}", "--set", f"profile_kind={kind}"]
            assert run(["overlap", "--out", str(out), *args, *filt]) == 0
            breakdowns.append(read_json(out / "overlap.json")["breakdown"])
        assert breakdowns[0] == breakdowns[1]

    def test_filter_that_leaves_a_profile_dark_is_config_error(self, tmp_path, capsys):
        paths = self.write_profiles(tmp_path, np.asarray, "spec")[1]
        out = tmp_path / "run"
        args = ["--set", f"frequency_profiles={json.dumps(paths)}",
                "--set", 'spectral_filter={"center":1000,"half_width":1}']
        assert run(["overlap", "--out", str(out), *args]) == 2
        assert capsys.readouterr().err == (
            f"config error: spectral_filter (center 1000, half_width 1 GHz) zeroes every value of {paths[0]}\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0.0,1.0\n2.0,1.0\n1.0,1.0\n", "line 4: sample positions must be strictly increasing"),
            ("0.0,1.0\n1.0,-1.0\n2.0,1.0\n", "line 3: intensity values must be non-negative"),
        ],
        ids=["decreasing", "negative"],
    )
    def test_bad_profile_sample_names_its_line(self, tmp_path, capsys, rows, message):
        good = self.make_time_profiles(tmp_path)[0]
        bad = tmp_path / "bad.csv"
        bad.write_text("t_ps,value\n" + rows)
        out = tmp_path / "run"
        assert run(["overlap", "--out", str(out), "--set", f"time_profiles={json.dumps([good, str(bad)])}"]) == 3
        assert capsys.readouterr().err == f"data error: {bad}: {message}\n"
        assert list(out.iterdir()) == []


# the files a fuzzed overlap run starts from: two time and two frequency profiles, and a fringe record
_OVERLAP_FILES = {
    "t1.csv": ("t_ps,value", [[0.0, 1.0], [1.0, 3.0], [2.0, 1.0]]),
    "t2.csv": ("t_ps,value", [[0.0, 1.0], [1.0, 0.5], [2.0, 0.25], [3.0, 0.125]]),
    "f1.csv": ("f_GHz,value", [[-1.0, 0.5], [0.0, 1.0], [1.0, 0.5]]),
    "f2.csv": ("f_GHz,value", [[-1.0, 1.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]),
    "fringe.csv": ("value", [[2.0 + math.cos(k * math.pi / 8)] for k in range(16)]),
}

# signed zeros, the smallest subnormal, the smallest normal, +-1e308; in a file also inf and nan
_EDGE_NUMBERS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]


@st.composite
def overlap_runs(draw):
    """``(files, cfg)``: the files of ``_OVERLAP_FILES``, each edited up to 3 times, and an overlap config over them.

    An edit sets one number, duplicates, swaps or deletes rows, or gives the file another file's header.
    The config names files by their keys.
    """
    in_files = st.sampled_from([*_EDGE_NUMBERS, math.inf, -math.inf, math.nan]) | st.floats()
    files = {}
    for name, (header, rows) in _OVERLAP_FILES.items():
        rows = [list(row) for row in rows]
        for _ in range(draw(st.integers(0, 3))):
            if not rows:
                break
            i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
            edit = draw(st.sampled_from(["number", "duplicate", "swap", "delete", "header"]))
            if edit == "number":
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(in_files)
            elif edit == "duplicate":
                rows.insert(j, list(rows[i]))
            elif edit == "swap":
                rows[i], rows[j] = rows[j], rows[i]
            elif edit == "delete":
                del rows[i]
            else:
                header = draw(st.sampled_from(sorted({h for h, _ in _OVERLAP_FILES.values()})))
        files[name] = header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    cfg = {"profile_kind": draw(st.sampled_from(["intensity", "amplitude"]))}
    for key, domain in (("time_profiles", "t"), ("frequency_profiles", "f")):
        if draw(st.booleans()):
            cfg[key] = [f"{domain}{draw(st.sampled_from('12'))}.csv" for _ in range(2)]
    if "frequency_profiles" in cfg and draw(st.booleans()):
        in_config = st.sampled_from(_EDGE_NUMBERS) | st.floats(-3.0, 3.0)
        cfg["spectral_filter"] = {"center": draw(in_config), "half_width": draw(in_config)}
    if draw(st.booleans()):
        cfg["fringe_file"] = "fringe.csv"
        cfg["k_tail"] = draw(st.integers(1, 9))
    for key in ("m_t", "m_f", "m_p", "m_s", "m_psi"):
        if draw(st.integers(0, 3)) == 0:
            cfg[key] = draw(st.sampled_from([0, 1, 0.0, 0.5, 1.0]))
    return files, cfg


def _refuse_constant(token):
    raise AssertionError(f"{token} in the JSON output")


class TestOverlapContract:
    """Any overlap run exits 0, 2, 3 or 4 with no traceback or warning, and writes only when it succeeds.

    A config error (exit 2) names a key the config sets: a fault found only in the files is exit 3.
    """

    @given(case=overlap_runs())
    @example(case=({"t.csv": "t_ps,value\n0,1\n1,3\n2,1\n"}, {"time_profiles": ["t.csv", "t.csv"]})).via(
        "an identical time pair rounds to 1.0000000000000004"
    )
    @example(
        case=({"f.csv": "f_GHz,value\n0,1\n1,1\n2,1\n3,1\n"},
              {"frequency_profiles": ["f.csv", "f.csv"], "profile_kind": "amplitude"})
    ).via("an identical flat spectrum rounds to 1.0000000000000004")
    @example(case=({"t.csv": "t_ps,value\n0,1\n5e-324,1\n"}, {"time_profiles": ["t.csv", "t.csv"]})).via(
        "a norm that underflows to 0"
    )
    @example(
        case=({"f.csv": "f_GHz,value\n-1e308,1\n0,1\n1,1\n"},
              {"frequency_profiles": ["f.csv", "f.csv"], "spectral_filter": {"center": 1e308, "half_width": 1e308}})
    ).via("a filter window whose distance overflows")
    @example(case=({"fringe.csv": "value\n" + "1e308\n" * 20}, {"fringe_file": "fringe.csv", "k_tail": 10})).via(
        "fringe tails whose sum overflows"
    )
    @example(
        case=({"a.csv": "t_ps,value\n0,1e200\n1,2e200\n2,1e200\n",
               "b.csv": "t_ps,value\n0,1e-170\n1,2e-170\n2,1e-170\n"},
              {"time_profiles": ["a.csv", "b.csv"], "profile_kind": "amplitude"})
    ).via("amplitudes whose squares overflow and underflow")
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_exit_code_contract(self, case):
        files, cfg = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, text in files.items():
                (tmp / name).write_text(text)

            def placed(key, value):
                if key == "fringe_file":
                    return str(tmp / value)
                return [str(tmp / name) for name in value] if key.endswith("_profiles") else value

            config = tmp / "cfg.json"
            config.write_text(json.dumps({key: placed(key, value) for key, value in cfg.items()}))
            out = tmp / "run"
            code, message = run_under_contract(["overlap", "--config", str(config), "--out", str(out)], out)
            if code == 2:
                assert any(key in message for key in cfg)
            if code == 0:
                breakdown = read_json(out / "overlap.json")["breakdown"]
                assert all(0.0 <= value <= 1.0 for value in breakdown.values() if value is not None)


def run_under_contract(argv, out: Path) -> tuple[int, str]:
    """``main(argv)``, checked against the exit-code contract; returns its exit code and stderr.

    The exit code is 0, 2, 3 or 4, with no traceback and no warning.  A failure prints one line
    and leaves ``out`` as it was (absent or empty); a success prints nothing and writes only
    finite numbers: JSON with no ``NaN`` or ``Infinity`` token, tables with no ``nan`` or ``inf``.
    """
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert [str(w.message) for w in caught] == []
    message = err.getvalue()
    if code != 0:
        assert message.startswith(("config error: ", "data error: ", "numerical failure: ", "error: "))
        assert message.count("\n") == 1 and "Warning" not in message
        assert not out.exists() or list(out.iterdir()) == []
        return code, message
    assert message == ""
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=_refuse_constant)
        else:
            assert all(math.isfinite(float(field)) for row in text.splitlines()[1:] for field in row.split(","))
    return code, message


# the sweep a fuzzed fit run starts from: a visibility curve at m = 0.6, g2_psi = 0.03, 2 % errors
_FIT_RATIOS = [0.05, 0.2, 0.7, 2.0, 6.0, 15.0]
_FIT_ROWS = [
    [r, v, 0.02 * v] for r, v in zip(_FIT_RATIOS, hom_visibility(np.array(_FIT_RATIOS), 0.03, 0.6).tolist())
]

# bytes a file may hold by mistake: a BOM, a lone CR, a NUL, a byte that is not UTF-8
_STRAY_BYTES = [b"\xef\xbb\xbf", b"\r", b"\x00", b"\xff"]


def edited_rows(draw, rows, numbers):
    """``rows``, edited up to 3 times: one field set from ``numbers``, a row duplicated, swapped or deleted."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        edit = draw(st.sampled_from(["number", "duplicate", "swap", "delete"]))
        if edit == "number":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(numbers)
        elif edit == "duplicate":
            rows.insert(j, list(rows[i]))
        elif edit == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        else:
            del rows[i]
    return rows


def rarely(usual, unusual):
    """``usual`` seven times in eight, else ``unusual``."""
    # not k == 0: hypothesis draws the bounds of a range often
    return st.integers(0, 7).flatmap(lambda k: unusual if k == 5 else usual)


def with_stray_bytes(draw, data: bytes) -> bytes:
    """``data`` with up to 2 of ``_STRAY_BYTES`` inserted anywhere."""
    for _ in range(draw(rarely(st.just(0), st.integers(1, 2)))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_STRAY_BYTES)) + data[at:]
    return data


@st.composite
def fit_runs(draw):
    """``(sweep, cfg)``: the bytes of ``_FIT_ROWS`` edited as a sweep CSV, and a fit config."""
    numbers = (
        st.sampled_from([*_EDGE_NUMBERS, math.inf, -math.inf, math.nan, 10**400, 2**63, -(2**63) - 1])
        | st.floats()
    )
    other_headers = st.sampled_from(["ratio,y", "ratio,y,y_err,model", "y_err,y,ratio", ""])
    header = draw(rarely(st.just("ratio,y,y_err"), other_headers))
    rows = edited_rows(draw, _FIT_ROWS, numbers)
    sweep = header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    # g2_psi at its bound of 0, past it, and beyond float64
    edges = st.sampled_from([0, 0.0, -0.0, 5e-324, -5e-324, -1e-300, 1e308, math.inf, math.nan])
    cfg = {
        "model": draw(rarely(st.sampled_from(["vhom", "auto"]), st.sampled_from(["VHOM", 1]))),
        "g2_psi": draw(rarely(st.floats(0.0, 2.0), edges | st.floats())),
        "fit_scale": draw(rarely(st.booleans(), st.sampled_from([0, "true"]))),
    }
    return with_stray_bytes(draw, sweep.encode()), cfg


class TestFitContract:
    """Any fit run exits 0, 2, 3 or 4 with no traceback or warning, and writes only when it succeeds."""

    @given(case=fit_runs())
    @example(
        case=(b"ratio,y,y_err\n0.1,0.3,0.01\n1.0,0.4,0.01\n5.0,0.2,0.01\n", {"model": "vhom", "g2_psi": -5e-324})
    ).via("g2_psi just past its bound of 0")
    @example(
        case=(b"ratio,y,y_err\n0.1,0.3,5e-324\n1.0,0.4,0.01\n5.0,0.2,0.01\n", {"model": "auto", "g2_psi": 0})
    ).via("a y_err whose weight overflows")
    @example(
        case=(b"ratio,y,y_err\n0.1,0.3,1e-150\n1.0,0.4,1e-150\n5.0,0.2,1e-150\n20.0,0.1,1e-150\n",
              {"model": "vhom", "g2_psi": 0.03, "fit_scale": True})
    ).via("a scale fit whose normal matrix nears the float64 bound")
    @example(case=(b"\xef\xbb\xbfratio,y,y_err\n0.1,0.3,0.01\n", {"model": "vhom", "g2_psi": 0.03})).via(
        "a byte-order mark before the header"
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_exit_code_contract(self, case):
        sweep, cfg = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "sweep.csv").write_bytes(sweep)
            (tmp / "cfg.json").write_text(json.dumps(cfg))
            out = tmp / "run"
            argv = ["fit", str(tmp / "sweep.csv"), "--config", str(tmp / "cfg.json"), "--out", str(out)]
            run_under_contract(argv, out)


# the tag files a fuzzed analyze run starts from: about 1e3 records each, on channels 2 and 3
_ANALYZE_TAGS = {
    name: [[int(c), int(t)] for c, t in zip(stream.channels, stream.times)]
    for name, stream in (
        ("par.csv", pulsed_coherent_tags({2: 0.5, 3: 0.5}, 1_000, REP, seed=1)),
        ("perp.csv", pulsed_coherent_tags({2: 0.5, 3: 0.5}, 1_000, REP, seed=2)),
    )
}

_INT64 = (-(2**63), 2**63 - 1)


@st.composite
def analyze_runs(draw):
    """``(files, cfg)``: the tag files of ``_ANALYZE_TAGS``, edited, and an analyze config over them.

    Beyond the row edits of ``edited_rows`` a record may move back in time or lose or gain a field.
    Every binning keeps ``tau_max / bin_width`` at or below 1e5, so no histogram is large.
    """
    numbers = st.sampled_from([0, 1, 4, 9, -1, *_INT64, 2**63, 2**64, 1.5, math.nan]) | st.integers(*_INT64)
    files = {}
    for name, rows in _ANALYZE_TAGS.items():
        if draw(st.booleans()):
            files[name] = "".join(f"{c},{t}\n" for c, t in rows).encode()
            continue
        rows = edited_rows(draw, rows, numbers)
        for _ in range(draw(st.integers(0, 2)) if rows else 0):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            edit = draw(st.sampled_from(["back", "back", "short", "long"]))
            if edit == "back":  # out of order by up to a few periods, or by far more
                row[-1] -= draw(st.integers(1, 5 * REP) | st.integers(1, 2**62))
            elif edit == "short":
                row.pop()
            else:
                row.append(draw(numbers))
        text = "".join(",".join(map(str, row)) + "\n" for row in rows)
        files[name] = with_stray_bytes(draw, text.encode())
    channels = rarely(st.sampled_from([2, 3]), st.just(1))  # no record is on channel 1
    n_side_peaks = draw(rarely(st.sampled_from([2, 4, 10]), st.sampled_from([0, 1, 3, 2**63])))
    if draw(rarely(st.just(True), st.just(False))):  # about the files' period, in a range that holds the side peaks
        bin_width = draw(st.integers(1, 2_000))
        rep_period = draw(rarely(st.just(REP), st.integers(1, 4 * REP)))
        needed = -(-(n_side_peaks // 2 * rep_period + rep_period // 4) // bin_width)
        tau_max = bin_width * min(100_000, needed + draw(st.integers(-1, 2_000)))
    else:  # anything, up to the int64 bounds and past them
        bin_width = draw(st.integers(1, 2**63 - 1))
        tau_max = bin_width * draw(st.integers(1, 100_000))
        rep_period = draw(st.integers(1, 2**64))
    if draw(st.integers(0, 7)) == 5:  # a width that does not divide the range
        tau_max += draw(st.integers(1, bin_width))
    bad_pairs = st.sampled_from([[0, 2], [2], [2, 3, 3]])
    reorder_windows = st.sampled_from([2**63 - 1, 2**63]) | st.integers(0, 2**63 - 1)
    cfg = {
        "pair": draw(rarely(st.lists(channels, min_size=2, max_size=2), bad_pairs)),
        "bin_width": bin_width,
        "tau_max": tau_max,
        "rep_period": rep_period,
        "n_side_peaks": n_side_peaks,
        "reorder_window": draw(rarely(st.sampled_from([0, REP]), reorder_windows)),
    }
    if draw(st.booleans()):
        cfg["window"] = draw(rarely(st.integers(1, max(1, rep_period // 2)), st.integers(-1, 2**64)))
    if draw(st.integers(0, 7)) == 5:
        cfg["perp_tagfile"] = "perp.csv"
    return files, cfg


class TestAnalyzeContract:
    """Any analyze run exits 0, 2, 3 or 4 with no traceback or warning, and writes only when it succeeds."""

    @given(case=analyze_runs())
    @example(
        case=({"par.csv": b"2,0\n2,0\n2,12195\n2,12195\n", "perp.csv": b"2,0\n2,12195\n"},
              {"pair": [2, 2], "bin_width": 5, "tau_max": 24390, "rep_period": REP, "n_side_peaks": 2,
               "reorder_window": 0, "perp_tagfile": "perp.csv"})
    ).via("an orthogonal run with no zero-delay pair, refused after both histograms were written")
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_exit_code_contract(self, case):
        files, cfg = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, data in files.items():
                (tmp / name).write_bytes(data)
            if "perp_tagfile" in cfg:
                cfg = {**cfg, "perp_tagfile": str(tmp / cfg["perp_tagfile"])}
            (tmp / "cfg.json").write_text(json.dumps(cfg))
            out = tmp / "run"
            argv = ["analyze", str(tmp / "par.csv"), "--config", str(tmp / "cfg.json"), "--out", str(out)]
            run_under_contract(argv, out)


# an oracle check takes about 0.1 s at mu_alpha = ratio * mu_psi = 100 and 2.5 s at 350, so the
# drawn checks keep mu_alpha at or below this cap, or at 1e4 and above, where required_cutoff refuses
_MU_ALPHA_CAP = 30.0


@st.composite
def simulate_runs(draw):
    """A simulate config: each key inside its schema bounds, at them or past them, or left out.

    ``m`` and ``g2_psi`` are rarely left out; the other keys are set half the time.  Up to 3 oracle
    checks are drawn, each at or below ``_MU_ALPHA_CAP`` in ``mu_alpha`` or at 1e4 and above.
    """
    beyond = st.sampled_from([*_EDGE_NUMBERS, math.inf, math.nan])

    def values(usual, edges):
        return rarely(usual, st.sampled_from(edges) | beyond)

    cfg = {
        "m": draw(values(st.floats(0.0, 1.0), [0, 1, 1e-320, 1e-160, 1.0000000000000002])),
        "g2_psi": draw(values(st.floats(0.0, 1.0), [0, 1, 2, 1e154, 1e308])),
    }
    if draw(st.integers(0, 15)) == 5:
        del cfg[draw(st.sampled_from(["m", "g2_psi"]))]
    optional = [
        ("mu_psi", st.floats(0.0, 1.0, exclude_min=True), [1, 1e-300, 1e-200, 1e-5, 1.0000000000000002]),
        # r_min below 1 and r_max above it, so that a run usually has r_min < r_max
        ("r_min", st.floats(1e-3, 1.0), [1e-300, 1e154, 1e155]),
        ("r_max", st.floats(1.0, 1e3), [1e-300, 1e154, 1e155]),
        ("n_points", st.integers(2, 6), [0, 1, 2.0, 2.5, 10**15]),
        ("tail_target", st.floats(1e-14, 1e-6), [1e-6, 1.0000000000000002e-06, 1e-300]),
        ("noise_sigma_rel", st.floats(1e-3, 0.1), [1, 1e307]),
        ("seed", st.integers(0, 2**32), [2**64, 10**30, -1, 1.5, True]),
    ]
    for key, usual, edges in optional:
        if draw(st.booleans()):
            cfg[key] = draw(values(usual, edges))
    # noise_model needs noise_sigma_rel
    if draw(st.booleans() if "noise_sigma_rel" in cfg else rarely(st.just(False), st.just(True))):
        cfg["noise_model"] = draw(values(st.sampled_from(["vhom", "auto"]), ["VHOM", 1]))
    if draw(st.integers(0, 3)) > 0:
        mu_psi = cfg.get("mu_psi", 1.0)
        ratio = values(st.floats(1e-3, _MU_ALPHA_CAP), [1e-300, 30, 1e6, 1e200, -1]).filter(
            lambda r: not _MU_ALPHA_CAP < r * mu_psi < 1e4
        )
        cfg["oracle_check_ratios"] = draw(st.lists(ratio, min_size=1, max_size=3))
    return cfg


def names_a_key(message: str, cfg: dict) -> bool:
    """Whether ``message`` names, as a whole word, a key ``cfg`` sets or a required ``simulate`` key it leaves out."""
    keys = [*cfg, *(key for key in _SCHEMAS["simulate"]["required"] if key not in cfg)]
    return any(re.search(rf"(?<!\w){re.escape(key)}(?!\w)", message) for key in keys)


class TestSimulateContract:
    """Any simulate run exits 0, 2, 3 or 4 with no traceback or warning, and writes only when it succeeds.

    A config error (exit 2) names a key behind it.  A success's oracle checks agree with the closed forms within
    1e-6 at every tail_target the schema accepts, and ``fit`` exits 0 on every sweep of noisy points it writes.
    """

    @given(cfg=simulate_runs())
    @example(cfg={"m": 0.76, "g2_psi": 0, "oracle_check_ratios": [5e-324]}).via(
        "an orthogonal run whose coincidences underflow, refused after sweep.csv was written"
    )
    @example(cfg={"m": 0.76, "g2_psi": 0.0412, "mu_psi": 5e-324, "oracle_check_ratios": [1]}).via(
        "a mean photon number whose square underflows"
    )
    @example(cfg={"m": 1e-320, "g2_psi": 0}).via("a bunching peak beyond float64 for a subnormal m")
    @example(cfg={"m": 0.76, "g2_psi": 0.0412, "mu_psi": 1e-200, "oracle_check_ratios": [1e200]}).via(
        "a closed form whose squared ratio overflows"
    )
    @example(cfg={"m": 0.76, "g2_psi": 0.0412, "oracle_check_ratios": [100]}).via(
        "an oracle check above the drawn cap on mu_alpha"
    )
    @example(cfg={"m": 0.76, "g2_psi": 0.0412, "r_max": 1e308, "noise_sigma_rel": 0.1, "n_points": 3}).via(
        "a sweep beyond float64, refused without naming a key"
    )
    @example(cfg={"m": 0.5, "g2_psi": 0.04, "n_points": 10**15}).via(
        "a sweep too large for memory, refused without naming a key"
    )
    @example(cfg={"m": 0, "g2_psi": 0, "n_points": 1e308}).via("a sweep beyond numpy's index range, a ValueError")
    @example(cfg={"m": 0, "g2_psi": 0, "n_points": 2**63 - 1}).via("a sweep at numpy's index range, an IndexError")
    @example(cfg={"m": 0.76, "g2_psi": 0.0412, "oracle_check_ratios": [1e4]}).via(
        "an oracle check with no cutoff, refused without naming a key"
    )
    @example(cfg={"m": 0.76, "g2_psi": 0.0412, "mu_psi": 1e-160, "oracle_check_ratios": [1]}).via(
        "subnormal two-photon terms, once accepted with max_abs_diff 5.2e-4"
    )
    @example(cfg={"m": 0, "g2_psi": 0, "mu_psi": 1e-5, "oracle_check_ratios": [30]}).via(
        "a small mu_alpha at cutoff 2, once accepted with max_abs_diff 2.8e-4"
    )
    @example(cfg={"m": 0, "g2_psi": 0, "mu_psi": 0.00390625, "oracle_check_ratios": [1]}).via(
        "a small mu_alpha at cutoff 3, once accepted with max_abs_diff 1.9e-6"
    )
    @example(cfg={"m": 0, "g2_psi": 0, "tail_target": 4.065331962950943e-07, "oracle_check_ratios": [1]}).via(
        "a coarse tail_target, once accepted with max_abs_diff 2.3e-6"
    )
    @example(cfg={"m": 0, "g2_psi": 0, "mu_psi": 0.3, "tail_target": 1e-6, "oracle_check_ratios": [2]}).via(
        "the coarsest tail_target, once accepted with max_abs_diff 1.5e-5"
    )
    @example(cfg={"m": 0.76, "g2_psi": 0.04, "oracle_check_ratios": [1e-160]}).via(
        "a mu_alpha of 1e-160 at the smallest cutoff, at a bright source"
    )
    @example(cfg={"m": 0.76, "g2_psi": 0.0412, "n_points": 4, "noise_sigma_rel": 5e-324}).via(
        "relative noise whose product with the visibility underflows, once written with y_err 0"
    )
    @example(cfg={"m": 0.76, "g2_psi": 1e300, "r_min": 1e-300, "noise_sigma_rel": 0.02}).via(
        "a visibility curve that underflows to 0, once written with y_err 0"
    )
    @example(cfg={"m": 0.76, "g2_psi": 0.0412, "noise_sigma_rel": 0.02, "r_max": 1e153}).via(
        "points whose 1 / y_err^2 overflows, once written and refused by fit"
    )
    @example(cfg={"m": 0.76, "g2_psi": 0.0412, "noise_sigma_rel": 0.02, "n_points": 2}).via(
        "two points, once written and refused by fit"
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_exit_code_contract(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "cfg.json").write_text(json.dumps(cfg))
            out = tmp / "run"
            code, message = run_under_contract(["simulate", "--config", str(tmp / "cfg.json"), "--out", str(out)], out)
            if code == 2:
                assert names_a_key(message, cfg)
            for check in read_json(out / "report.json")["oracle_checks"] if code == 0 else []:
                assert check["max_abs_diff"] <= 1e-6
            for points in out.glob("points_*.csv") if code == 0 else []:
                model = points.stem.removeprefix("points_")
                args = ["--set", f"model={model}", "--set", f"g2_psi={json.dumps(cfg['g2_psi'])}"]
                assert run_under_contract(["fit", str(points), "--out", str(tmp / "fit"), *args], tmp / "fit")[0] == 0


class TestFitCommand:
    def test_noiseless_sweep(self, tmp_path):
        r = np.geomspace(0.02, 20.0, 15)
        sweep = tmp_path / "sweep.csv"
        write_sweep(sweep, r, hom_visibility(r, 0.03, 0.5), np.full(r.size, 0.01))
        out = tmp_path / "run"
        code = run(
            ["fit", str(sweep), "--out", str(out), "--set", "model=vhom", "--set", "g2_psi=0.03"]
        )
        assert code == 0
        result = read_json(out / "fit.json")
        assert set(result) == {"M_hat", "M_err", "chi2_red", "n_points", "model", "at_bound"}
        assert result["at_bound"] is False
        assert result["M_hat"] == pytest.approx(0.5, abs=1e-9)
        assert result["model"] == "vhom"
        assert (out / "residuals.csv").exists()

    @pytest.mark.parametrize("model", ["vhom", "auto"])
    def test_clipped_fit_is_flagged_at_bound(self, tmp_path, model):
        # a sweep taken at m = 1 whose signal reads 10 % high asks for m > 1
        r = np.geomspace(0.02, 20.0, 15)
        fn = hom_visibility if model == "vhom" else auto_g2_zero
        sweep = tmp_path / "sweep.csv"
        write_sweep(sweep, r, 1.1 * fn(r, 0.03, 1.0), np.full(r.size, 0.01))
        out = tmp_path / "run"
        code = run(
            ["fit", str(sweep), "--out", str(out), "--set", f"model={model}", "--set", "g2_psi=0.03"]
        )
        assert code == 0
        result = read_json(out / "fit.json")
        assert result["M_hat"] == 1.0
        assert result["at_bound"] is True

    @pytest.mark.parametrize("model, curve", [("vhom", hom_visibility), ("auto", auto_g2_zero)])
    @pytest.mark.parametrize("fit_scale", [False, True])
    def test_residuals_hold_the_fitted_curve(self, tmp_path, model, curve, fit_scale):
        # a sweep taken with the ratio read 10 % low: only the scale fit meets every point
        r = np.geomspace(0.05, 10.0, 25)
        y = curve(1.1 * r, 0.03, 0.6)
        sweep = tmp_path / "sweep.csv"
        write_sweep(sweep, r, y, np.full(r.size, 0.005))
        out = tmp_path / "run"
        args = ["--set", f"model={model}", "--set", "g2_psi=0.03", "--set", f"fit_scale={json.dumps(fit_scale)}"]
        assert run(["fit", str(sweep), "--out", str(out), *args]) == 0
        result = read_json(out / "fit.json")
        scale = result.get("scale_hat", 1.0)
        scale_keys = {"scale_hat", "scale_err"} if fit_scale else set()
        assert set(result) == {"M_hat", "M_err", "chi2_red", "n_points", "model", "at_bound", *scale_keys}
        header, *rows = (out / "residuals.csv").read_text().splitlines()
        assert header == "ratio,y,y_err,model,residual_sigma"
        table = np.array([[float(c) for c in row.split(",")] for row in rows])
        assert table[:, 3].tolist() == curve(scale * r, 0.03, result["M_hat"]).tolist()
        assert bool(np.abs(table[:, 4]).max() < 1e-3) is fit_scale

    def test_degenerate_sweep_is_numerical_error(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("ratio,y,y_err\n1.0,0.4,0.01\n1.0,0.41,0.01\n")
        code = run(
            ["fit", str(sweep), "--out", str(tmp_path / "r"), "--set", "model=vhom",
             "--set", "g2_psi=0.03"]
        )
        assert code == 4

    def test_malformed_sweep_is_data_error(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("ratio,y\n1.0,0.4\n")
        code = run(
            ["fit", str(sweep), "--out", str(tmp_path / "r"), "--set", "model=vhom",
             "--set", "g2_psi=0.03"]
        )
        assert code == 3

    def test_nan_field_is_data_error(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("ratio,y,y_err\n0.1,0.3,0.01\n0.5,nan,0.01\n2.0,0.2,0.01\n")
        code = run(
            ["fit", str(sweep), "--out", str(tmp_path / "r"), "--set", "model=vhom",
             "--set", "g2_psi=0.03"]
        )
        assert code == 3
        assert "line 3: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0.5,0.3,0.0", "0.5,0.3,-0.01", "0.0,0.3,0.01", "-0.5,0.3,0.01"])
    def test_nonpositive_ratio_or_error_is_data_error(self, tmp_path, capsys, row):
        # the blank line counts, so the bad row sits at file line 4
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(f"ratio,y,y_err\n0.1,0.3,0.01\n\n{row}\n2.0,0.2,0.01\n")
        code = run(
            ["fit", str(sweep), "--out", str(tmp_path / "r"), "--set", "model=vhom",
             "--set", "g2_psi=0.03"]
        )
        assert code == 3
        assert "line 4: ratio and y_err must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, model, fit_scale, fault",
        [
            ("1e200,0.001,0.01", "vhom", False, "overflow"),  # the ratio squares beyond float64
            ("1e200,0.001,0.01", "auto", False, "overflow"),
            ("1e153,0.001,0.01", "vhom", True, "overflow"),  # only at the scale grid's top, 1e2
            ("2.0,0.2,1e-200", "vhom", False, "divide by zero"),  # the weight 1 / y_err^2
            ("2.0,1e300,1e-10", "vhom", False, "overflow"),  # the residual
        ],
    )
    def test_sweep_beyond_float64_is_data_error(self, tmp_path, capsys, row, model, fit_scale, fault):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text(f"ratio,y,y_err\n0.1,0.5,0.01\n1,0.3,0.01\n{row}\n")
        out = tmp_path / "run"
        args = ["--set", f"model={model}", "--set", "g2_psi=0.04", "--set", f"fit_scale={json.dumps(fit_scale)}"]
        assert run(["fit", str(sweep), "--out", str(out), *args]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {sweep}: the fit's arithmetic leaves the float64 range ({fault} encountered")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_unknown_model_is_config_error(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("ratio,y,y_err\n1.0,0.4,0.01\n")
        code = run(
            ["fit", str(sweep), "--out", str(tmp_path / "r"), "--set", "model=spline",
             "--set", "g2_psi=0.03"]
        )
        assert code == 2


class TestOutDirectory:
    """An ``--out`` that cannot be made a directory is a config error that writes no file."""

    def fit_args(self, tmp_path, out):
        r = np.geomspace(0.02, 20.0, 15)
        sweep = tmp_path / "sweep.csv"
        write_sweep(sweep, r, hom_visibility(r, 0.03, 0.5), np.full(r.size, 0.01))
        return ["fit", str(sweep), "--out", str(out), "--set", "model=vhom", "--set", "g2_psi=0.03"]

    @pytest.mark.parametrize("out, reason", [("some_file", "File exists"), ("some_file/sub", "Not a directory")])
    def test_out_through_a_file_is_config_error(self, tmp_path, capsys, out, reason):
        (tmp_path / "some_file").write_bytes(b"kept")
        args = self.fit_args(tmp_path, tmp_path / out)
        assert run(args) == 2
        assert capsys.readouterr().err == f"config error: cannot create output directory {tmp_path / out}: {reason}\n"
        assert (tmp_path / "some_file").read_bytes() == b"kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["some_file", "sweep.csv"]

    def test_unwritable_out_is_config_error(self, tmp_path, capsys, monkeypatch):
        # a mkdir refused for permission is a fault of the --out path too, not of the input data
        def refused(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        args = self.fit_args(tmp_path, tmp_path / "run")
        monkeypatch.setattr(Path, "mkdir", refused)
        assert run(args) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot create output directory {tmp_path / 'run'}: Permission denied\n"
        )
        assert not (tmp_path / "run").exists()


class TestRefusalsWriteNoFile:
    """A config fault exits 2 before ``--out`` is made; a fit that cannot constrain M exits 4 and writes no file."""

    @pytest.mark.parametrize(
        "config, overrides, message",
        [
            (None, [], "cannot read config"),
            ("{", [], "is not valid JSON"),
            ("[1, 2]", [], "config document must be a JSON object"),
            ("{}", ["--set", "model"], "--set expects key=value"),
        ],
        ids=["missing-config", "invalid-json", "json-array", "set-without-equals"],
    )
    def test_config_fault_is_refused_before_out(self, tmp_path, capsys, config, overrides, message):
        # the sweep file does not exist either: the config is refused before any input is read
        cfg = tmp_path / "cfg.json"
        if config is not None:
            cfg.write_text(config)
        out = tmp_path / "run"
        assert run(["fit", str(tmp_path / "sweep.csv"), "--config", str(cfg), *overrides, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    def test_vanishing_curvature_is_a_numerical_failure(self, tmp_path, capsys):
        # the visibility's slope in m, about 50 r, squares below the smallest subnormal at r ~ 1e-170
        r = np.array([1e-170, 2e-170, 3e-170])
        sweep = tmp_path / "sweep.csv"
        write_sweep(sweep, r, np.zeros(3), np.full(3, 0.01))
        out = tmp_path / "run"
        assert run(["fit", str(sweep), "--set", "model=vhom", "--set", "g2_psi=0.04", "--out", str(out)]) == 4
        assert capsys.readouterr().err == "numerical failure: objective curvature vanished at the optimum\n"
        assert list(out.iterdir()) == []


class TestConfigDefaults:
    @pytest.mark.parametrize(
        "command, overrides, expected",
        [
            (
                "simulate",
                ["m=0.5", "g2_psi=0"],
                {"m": 0.5, "g2_psi": 0, "mu_psi": 1.0, "r_min": 0.01, "r_max": 30.0,
                 "n_points": 60, "oracle_check_ratios": [], "tail_target": 1e-10, "seed": 0},
            ),
            (
                "analyze",
                ["pair=[2,3]", "bin_width=25", "tau_max=1000", "rep_period=500"],
                {"pair": [2, 3], "bin_width": 25, "tau_max": 1000, "rep_period": 500,
                 "n_side_peaks": 10, "reorder_window": 0},
            ),
            (
                "overlap",
                [],
                {"profile_kind": "intensity", "k_tail": 500, "m_s": 1.0},
            ),
            (
                "fit",
                ["model=auto", "g2_psi=0.03"],
                {"model": "auto", "g2_psi": 0.03, "fit_scale": False},
            ),
        ],
    )
    def test_resolved_defaults(self, command, overrides, expected):
        assert _load_config(command, None, overrides, None) == expected

    def test_defaults_are_not_shared_between_runs(self):
        first = _load_config("simulate", None, ["m=0.5", "g2_psi=0"], None)
        first["oracle_check_ratios"].append(1.0)
        second = _load_config("simulate", None, ["m=0.5", "g2_psi=0"], None)
        assert second["oracle_check_ratios"] == []


class TestCommandSurface:
    """Only simulate draws random numbers, so only simulate takes a seed."""

    @pytest.fixture
    def sweep(self, tmp_path):
        r = np.geomspace(0.02, 20.0, 15)
        path = tmp_path / "sweep.csv"
        write_sweep(path, r, hom_visibility(r, 0.03, 0.5), np.full(r.size, 0.01))
        return path

    # a valid config of each command
    settings = {
        "simulate": ["m=0.5", "g2_psi=0.02"],
        "analyze": ["pair=[2,2]", "bin_width=25", f"tau_max={TAU_MAX}", f"rep_period={REP}"],
        "overlap": [],
        "fit": ["model=vhom", "g2_psi=0.03"],
    }

    def command_args(self, command, out, tagfile="tags.csv", sweep="sweep.csv"):
        files = {"analyze": [str(tagfile)], "fit": [str(sweep)]}.get(command, [])
        return [command, *files, "--out", str(out), *(a for s in self.settings[command] for a in ("--set", s))]

    @pytest.mark.parametrize("command", ["analyze", "overlap", "fit"])
    def test_seed_flag_is_a_usage_error(self, tmp_path, capsys, command):
        args = self.command_args(command, tmp_path / "run")
        with pytest.raises(SystemExit) as exit_:
            run([*args, "--seed", "1"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["analyze", "overlap", "fit"])
    def test_seed_key_is_a_config_error(self, tmp_path, capsys, command):
        args = self.command_args(command, tmp_path / "run")
        assert run([*args, "--set", "seed=0"]) == 2
        assert capsys.readouterr().err == (
            "config error: config key <root>: Additional properties are not allowed ('seed' was unexpected)\n"
        )
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, sidecar", [("simulate", "sweep"), ("analyze", "analyze"), ("overlap", "overlap"), ("fit", "fit")]
    )
    def test_sidecar_keys(self, tmp_path, coherent_tagfile, sweep, command, sidecar):
        out = tmp_path / "run"
        assert run(self.command_args(command, out, coherent_tagfile, sweep)) == 0
        meta = read_json(out / f"{sidecar}.meta.json")
        assert set(meta) == {"command", "config", "inputs", "version"}
        assert meta["command"] == command
        assert meta["inputs"] == {"analyze": [str(coherent_tagfile)], "fit": [str(sweep)]}.get(command, [])
        assert ("seed" in meta["config"]) is (command == "simulate")

    @pytest.mark.parametrize(
        "command, written",
        [
            ("simulate", ["sweep.csv", "report.json", "points_vhom.csv", "sweep.meta.json"]),
            (
                "analyze",
                [
                    "histogram.csv", "g2.json", "histogram_perp.csv", "g2_perp.json", "visibility.json",
                    "analyze.meta.json",
                ],
            ),
            ("overlap", ["overlap.json", "overlap.meta.json"]),
            ("fit", ["fit.json", "residuals.csv", "fit.meta.json"]),
        ],
        ids=["simulate", "analyze", "overlap", "fit"],
    )
    def test_command_writes_nothing_and_main_writes_its_outputs(
        self, tmp_path, monkeypatch, coherent_tagfile, perp_tagfile, sweep, command, written
    ):
        pulse = tmp_path / "pulse.csv"
        write_time_profile(pulse, np.arange(3.0), np.array([1.0, 3.0, 1.0]))
        # a setting that adds each command's optional outputs or inputs
        extra = {
            "simulate": ["noise_sigma_rel=0.02"],
            "analyze": [f'perp_tagfile="{perp_tagfile}"'],
            "overlap": [f'time_profiles=["{pulse}","{pulse}"]'],
            "fit": [],
        }[command]
        function, _, _, sidecar = cli._COMMANDS[command]
        files = {"analyze": [str(coherent_tagfile)], "fit": [str(sweep)]}.get(command, [])
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        outputs, _ = function(*files, _load_config(command, None, [*self.settings[command], *extra], None))
        assert list(cwd.iterdir()) == []
        assert [*outputs, sidecar] == written

        opened, real_open = [], open

        def recording_open(path, mode="r", *args, **kwargs):
            if "w" in mode:
                opened.append(Path(path).name)
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", recording_open)
        out = tmp_path / "run"
        args = self.command_args(command, out, coherent_tagfile, sweep)
        code = run([*args, *(arg for setting in extra for arg in ("--set", setting))])
        monkeypatch.setattr("builtins.open", real_open)
        assert code == 0
        assert opened == written
        assert sorted(p.name for p in out.iterdir()) == sorted(written)

    def test_simulate_records_its_seed_in_config(self, tmp_path):
        out = tmp_path / "run"
        assert run([*self.command_args("simulate", out), "--seed", "7"]) == 0
        assert read_json(out / "sweep.meta.json")["config"]["seed"] == 7


_VALID = {
    "simulate": ["m=0.5", "g2_psi=0.02"],
    "analyze": ["pair=[1,2]", "bin_width=25", "tau_max=1000", "rep_period=100"],
    "overlap": [],
    "fit": ["model=vhom", "g2_psi=0.02"],
}

# one fault each: the command, overrides added to a valid config, and the message
_FAULTS = [
    ("simulate", ["mu_psi=0"], "mu_psi: 0 is less than or equal to the minimum of 0"),
    ("simulate", ["m=1.5"], "m: 1.5 is greater than the maximum of 1"),
    ("simulate", ["n_points=1"], "n_points: 1 is less than the minimum of 2"),
    ("simulate", ["n_points=5.5"], "n_points: 5.5 is not of type 'integer'"),
    ("simulate", ["m=true"], "m: True is not of type 'number'"),
    ("simulate", ["oracle_check_ratios=[1,0]"], "oracle_check_ratios/1: 0 is less than or equal to the minimum of 0"),
    ("simulate", ['noise_model="auto"'], "<root>: 'noise_sigma_rel' is a dependency of 'noise_model'"),
    ("simulate", ["z=1"], "<root>: Additional properties are not allowed ('z' was unexpected)"),
    ("simulate", ["b=1", "a=2"], "<root>: Additional properties are not allowed ('a', 'b' were unexpected)"),
    ("analyze", ["pair=[1]"], "pair: [1] is too short"),
    ("analyze", ["pair=[1,2,3]"], "pair: [1, 2, 3] is too long"),
    ("analyze", ["pair=[2,true]"], "pair/1: True is not one of [1, 2, 3]"),
    ("analyze", ["perp_tagfile=7"], "perp_tagfile: 7 is not of type 'string'"),
    ("overlap", ['frequency_profiles=["a","b"]', 'spectral_filter={"center":1}'],
     "spectral_filter: 'half_width' is a required property"),
    ("overlap", ['frequency_profiles=["a","b"]', 'spectral_filter={"center":1,"half_width":0}'],
     "spectral_filter/half_width: 0 is less than or equal to the minimum of 0"),
    ("fit", ["fit_scale=1"], "fit_scale: 1 is not of type 'boolean'"),
    ("fit", ['model="quad"'], "model: 'quad' is not one of ['vhom', 'auto']"),
    # appended last, so the ids of the cases above keep their indices
    ("overlap", ['spectral_filter={"center":0,"half_width":1}'],
     "<root>: 'frequency_profiles' is a dependency of 'spectral_filter'"),
]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=3)
    | st.sampled_from([0, 1, 2, 0.0, 1.0, 5.0, 1e-6, 1e-10, 30.0]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)

# every property name of every schema, so that random edits often hit a known key
_KNOWN_KEYS = sorted(
    {key for schema in _SCHEMAS.values() for key in schema["properties"]} | {"center", "half_width"}
)


def holds_non_finite(value) -> bool:
    if isinstance(value, dict):
        return any(map(holds_non_finite, value.values()))
    if isinstance(value, list):
        return any(map(holds_non_finite, value))
    return isinstance(value, float) and not math.isfinite(value)


def valid_values(schema: dict):
    """Values that satisfy ``schema``, integral floats of integers included."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind in ("number", "integer"):
        lo = schema.get("minimum", schema.get("exclusiveMinimum", -10))
        hi = schema.get("maximum", lo + 100)
        if kind == "integer":
            return st.integers(lo, hi).flatmap(lambda n: st.sampled_from([n, float(n)]))
        return st.floats(lo, hi, exclude_min="exclusiveMinimum" in schema)
    if kind == "boolean":
        return st.booleans()
    if kind == "string":
        return st.text(max_size=5)
    if kind == "array":
        return st.lists(
            valid_values(schema["items"]), min_size=schema.get("minItems", 0), max_size=schema.get("maxItems", 3)
        )
    return valid_objects(schema)


@st.composite
def valid_objects(draw, schema: dict):
    props = schema["properties"]
    keys = draw(st.sets(st.sampled_from(sorted(props)))) | set(schema.get("required", []))
    for key, needed in schema.get("dependentRequired", {}).items():
        if key in keys:
            keys |= set(needed)
    return {key: draw(valid_values(props[key])) for key in sorted(keys)}


def edit_values(schema: dict):
    """Any JSON value, or a number at or next to one of ``schema``'s bounds."""
    bounds = [schema[kw] for kw in ("minimum", "maximum", "exclusiveMinimum") if kw in schema]
    edges = sorted({v for b in bounds for v in (b, float(b), b - 1, b + 1, b / 2, -b)})
    return _JSON | st.sampled_from(edges) if edges else _JSON


@st.composite
def edited_configs(draw, schema: dict):
    """A valid config after one to three random edits, at its top level or one level down."""
    cfg = draw(valid_objects(schema))
    for _ in range(draw(st.integers(1, 3))):
        target, sub = cfg, schema
        nested = [key for key, value in cfg.items() if isinstance(value, (list, dict)) and key in schema["properties"]]
        if nested and draw(st.booleans()):
            key = draw(st.sampled_from(nested))
            target, sub = cfg[key], schema["properties"][key]
        if isinstance(target, list):
            if target and draw(st.booleans()):
                target[draw(st.integers(0, len(target) - 1))] = draw(edit_values(sub.get("items", {})))
            elif target and draw(st.booleans()):
                target.pop()
            else:
                target.append(draw(edit_values(sub.get("items", {}))))
        else:
            props = sub.get("properties", {})
            key = draw(st.sampled_from(sorted(props) or _KNOWN_KEYS) | st.sampled_from(_KNOWN_KEYS) | st.text(max_size=3))
            if key in target and draw(st.booleans()):
                del target[key]
            else:
                target[key] = draw(edit_values(props.get(key, {})))
    return cfg


class TestConfigValidator:
    @pytest.mark.parametrize("command, overrides, message", _FAULTS)
    def test_message(self, command, overrides, message):
        with pytest.raises(ConfigError) as err:
            _load_config(command, None, [*_VALID[command], *overrides], None)
        assert str(err.value) == f"config key {message}"
        # the same words as jsonschema's
        cfg = _load_config(command, None, _VALID[command], None)
        cfg.update((key, json.loads(raw)) for key, raw in (item.split("=", 1) for item in overrides))
        error = best_match(Draft202012Validator(_SCHEMAS[command]).iter_errors(cfg))
        assert f"{'/'.join(map(str, error.absolute_path)) or '<root>'}: {error.message}" == message

    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "--set", "m=0.5", "--set", "g2_psi=NaN", "--set", "oracle_check_ratios=[1]"], "g2_psi: nan"),
            (["simulate", "--set", "m=NaN", "--set", "g2_psi=0.04"], "m: nan"),
            (["fit", "{sweep}", "--set", "model=vhom", "--set", "g2_psi=NaN"], "g2_psi: nan"),
            (["simulate", "--set", "m=0.5", "--set", "g2_psi=0.04", "--set", "r_max=Infinity"], "r_max: inf"),
            (
                ["simulate", "--set", "m=0.5", "--set", "g2_psi=0.04", "--set", "oracle_check_ratios=[1,Infinity]"],
                "oracle_check_ratios/1: inf",
            ),
        ],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, args, message):
        sweep = tmp_path / "sweep.csv"
        r = np.geomspace(0.02, 20.0, 15)
        write_sweep(sweep, r, hom_visibility(r, 0.03, 0.5), np.full(r.size, 0.01))
        out = tmp_path / "run"
        assert run([*(a.format(sweep=sweep) for a in args), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: config key {message} is not a finite number\n"
        assert not out.exists()  # refused before any output is written

    def test_nan_passes_every_bound(self):
        # as in JSON Schema: every comparison with nan is false
        assert list(_violations(_SCHEMAS["simulate"], {"m": math.nan, "g2_psi": math.nan})) == []

    @pytest.mark.parametrize("command", sorted(_SCHEMAS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_jsonschema(self, command, data):
        schema = _SCHEMAS[command]
        cfg = data.draw(edited_configs(schema))
        errors = list(Draft202012Validator(schema).iter_errors(cfg))
        # the same faults, each at the same key path and in the same words
        assert Counter(_violations(schema, cfg)) == Counter((tuple(e.absolute_path), e.message) for e in errors)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            if not errors and not holds_non_finite(cfg):
                _load_config(command, str(path), [], None)
                return
            if not errors:  # nan and infinities pass the schema, and are refused after it
                with pytest.raises(ConfigError, match="is not a finite number"):
                    _load_config(command, str(path), [], None)
                return
            with pytest.raises(ConfigError) as err:
                _load_config(command, str(path), [], None)
        # of several faults, the one jsonschema would report
        best = best_match(errors)
        assert str(err.value) == f"config key {'/'.join(map(str, best.absolute_path)) or '<root>'}: {best.message}"


# Runs photonmix.cli.main in a fresh interpreter, then reports the exit code,
# whether numpy and multiprocessing loaded, and every scipy and jsonschema
# module the run loaded.
class TestEntryPoint:
    def test_module_runs_the_console_entry_point(self, tmp_path):
        # the __main__ guard hands main's code to SystemExit, as the installed console script does
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        module = [sys.executable, "-m", "photonmix.cli"]
        version = subprocess.run([*module, "--version"], env=env, capture_output=True, text=True)
        assert (version.returncode, version.stdout) == (0, f"{cli.__version__}\n")
        out = tmp_path / "run"
        refused = subprocess.run(
            [*module, "fit", str(tmp_path / "sweep.csv"), "--set", "model", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert (refused.returncode, refused.stderr) == (2, "config error: --set expects key=value, got 'model'\n")
        assert not out.exists()


_IMPORT_PROBE = """
import json, sys
from photonmix.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = {top: sorted(n for n in sys.modules if n.split(".")[0] == top) for top in ("scipy", "jsonschema")}
print(json.dumps({"code": code, **{m: m in sys.modules for m in ("numpy", "multiprocessing")}, **loaded}))
"""


class TestScipyOffCommandPath:
    """No command loads scipy or jsonschema, fit_scale=true included.

    Only a run that starts a worker process loads multiprocessing: a two-file
    analyze does, and a one-file analyze of a stream of one sweep block, as
    the probe's, does not on any number of CPUs.
    """

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("imports")
        write_tags_csv(pulsed_coherent_tags({2: 0.3}, 5_000, REP, seed=2), base / "tags.csv")
        write_tags_csv(pulsed_coherent_tags({2: 0.3}, 5_000, REP, seed=3), base / "perp.csv")
        r = np.geomspace(0.02, 20.0, 15)
        write_sweep(base / "sweep.csv", r, hom_visibility(r, 0.03, 0.5), np.full(r.size, 0.01))
        return base

    def probe(self, args):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *args], env=env, capture_output=True, text=True, check=True
        )
        return json.loads(done.stdout.splitlines()[-1])

    def fit_args(self, inputs, model, fit_scale):
        return [
            "fit", str(inputs / "sweep.csv"), "--out", str(inputs / f"fit_{model}_{fit_scale}"),
            "--set", f"model={model}", "--set", "g2_psi=0.03", "--set", f"fit_scale={fit_scale}",
        ]

    @pytest.mark.parametrize(
        "command",
        ["version", "analyze", "analyze_pair", "fit_vhom", "fit_auto", "fit_scale", "simulate", "simulate_oracle"],
    )
    def test_command_loads_no_scipy(self, inputs, command):
        simulate = [
            "simulate", "--out", str(inputs / command), "--set", "m=0.76",
            "--set", "g2_psi=0.0412", "--set", "noise_sigma_rel=0.02",
        ]
        analyze = [
            "analyze", str(inputs / "tags.csv"), "--out", str(inputs / command),
            "--set", "pair=[2,2]", "--set", "bin_width=25",
            "--set", f"tau_max={TAU_MAX}", "--set", f"rep_period={REP}",
        ]
        args = {
            "version": ["--version"],
            "analyze": analyze,
            "analyze_pair": [*analyze, "--set", f"perp_tagfile={json.dumps(str(inputs / 'perp.csv'))}"],
            "fit_vhom": self.fit_args(inputs, "vhom", "false"),
            "fit_auto": self.fit_args(inputs, "auto", "false"),
            "fit_scale": self.fit_args(inputs, "vhom", "true"),
            "simulate": simulate,
            "simulate_oracle": [*simulate, "--set", "oracle_check_ratios=[0.2,10]"],
        }[command]
        # numpy, and multiprocessing for two files, are the controls: the probe sees a module the run really imports
        assert self.probe(args) == {
            "code": 0, "numpy": True, "multiprocessing": command == "analyze_pair", "scipy": [], "jsonschema": []
        }
