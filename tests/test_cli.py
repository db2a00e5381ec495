import gzip
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from photonmix.analytic_model import LocalOscillator, SourceParams
from photonmix.cli import _load_config, main
from photonmix.estimator import SweepPoint, auto_model, vhom_model, write_sweep
from photonmix.fock_oracle import BeamSplitterSpec, required_cutoff
from photonmix.mode_overlap import SampledProfile, write_profile
from photonmix.synthetic import displaced_fock_tags, pulsed_coherent_tags, write_tags_csv

REP = 12195
TAU_MAX = 122_000


def run(args) -> int:
    return main(args)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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

    def test_ideal_bunching_peak_reported(self, tmp_path):
        out = tmp_path / "run"
        assert run(["simulate", "--out", str(out), "--set", "m=1", "--set", "g2_psi=0"]) == 0
        report = read_json(out / "report.json")
        assert report["peaks"]["g2_auto_max"] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert report["peaks"]["r_auto_star"] == pytest.approx(2.0, abs=1e-12)

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
            assert check["max_abs_diff"] < 1e-6
            assert check["tail_mass"] < 1e-10  # the default tail_target

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
            assert check["tail_mass"] < 1e-10

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

    def test_relative_noise_on_zero_visibility_is_config_error(self, tmp_path, capsys):
        # V_HOM is zero at m = 0, so relative noise would write y_err = 0, which fit rejects
        args = ["simulate", "--set", "m=0", "--set", "g2_psi=0.02", "--set", "noise_sigma_rel=0.1"]
        assert run([*args, "--out", str(tmp_path / "vhom")]) == 2
        assert "zero for m = 0" in capsys.readouterr().err
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
        source = SourceParams.from_moments(0.3, g2, tau_lt_ps=170.0)
        bs = BeamSplitterSpec(0.5)
        cutoff = required_cutoff(0.15, 1e-10)
        lo_par = LocalOscillator(mu_alpha=0.15, theta=math.acos(math.sqrt(m)))
        lo_perp = LocalOscillator(mu_alpha=0.15, theta=math.pi / 2)
        stream_par, truth_par = displaced_fock_tags(
            source, lo_par, bs, cutoff, 600_000, REP, seed=31, channel_2=2, channel_3=1
        )
        stream_perp, truth_perp = displaced_fock_tags(
            source, lo_perp, bs, cutoff, 600_000, REP, seed=32, channel_2=2, channel_3=1
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
        expected = 1.0 - truth_par["g2_cross"] / truth_perp["g2_cross"]
        assert abs(vis["v_hom"] - expected) <= 3.0 * vis["err"]

    def test_deterministic_outputs(self, tmp_path, coherent_tagfile):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(self.analyze_args(coherent_tagfile, out)) == 0
        for name in ("histogram.csv", "g2.json", "analyze.meta.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestOverlapCommand:
    def make_time_profiles(self, tmp_path):
        t = np.arange(0.0, 2000.0, 1.0)
        paths = []
        for tau in (170.0, 100.0):
            profile = SampledProfile("time", t, np.exp(-t / tau), "intensity")
            path = tmp_path / f"tau{int(tau)}.csv"
            write_profile(profile, path)
            paths.append(str(path))
        return paths

    def test_time_profile_overlap(self, tmp_path):
        paths = self.make_time_profiles(tmp_path)
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"time_profiles": paths}))
        assert run(["overlap", "--config", str(cfg), "--out", str(out)]) == 0
        payload = read_json(out / "overlap.json")
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

    def test_domain_mismatch_is_data_error(self, tmp_path):
        paths = self.make_time_profiles(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frequency_profiles": paths}))
        assert run(["overlap", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 3


class TestFitCommand:
    def test_noiseless_sweep(self, tmp_path):
        r = np.geomspace(0.02, 20.0, 15)
        y = vhom_model(r, 0.5, 0.03)
        points = [SweepPoint(float(a), float(b), 0.01) for a, b in zip(r, y)]
        sweep = tmp_path / "sweep.csv"
        write_sweep(points, sweep)
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
        fn = vhom_model if model == "vhom" else auto_model
        y = 1.1 * fn(r, 1.0, 0.03)
        sweep = tmp_path / "sweep.csv"
        write_sweep([SweepPoint(float(a), float(b), 0.01) for a, b in zip(r, y)], sweep)
        out = tmp_path / "run"
        code = run(
            ["fit", str(sweep), "--out", str(out), "--set", f"model={model}", "--set", "g2_psi=0.03"]
        )
        assert code == 0
        result = read_json(out / "fit.json")
        assert result["M_hat"] == 1.0
        assert result["at_bound"] is True

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

    def test_unknown_model_is_config_error(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("ratio,y,y_err\n1.0,0.4,0.01\n")
        code = run(
            ["fit", str(sweep), "--out", str(tmp_path / "r"), "--set", "model=spline",
             "--set", "g2_psi=0.03"]
        )
        assert code == 2


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
                 "n_side_peaks": 10, "reorder_window": 0, "seed": 0},
            ),
            (
                "overlap",
                [],
                {"profile_kind": "intensity", "k_tail": 500, "m_s": 1.0, "seed": 0},
            ),
            (
                "fit",
                ["model=auto", "g2_psi=0.03"],
                {"model": "auto", "g2_psi": 0.03, "fit_scale": False, "seed": 0},
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


# Runs photonmix.cli.main in a fresh interpreter, then reports the exit code
# and every scipy module the run loaded.
_IMPORT_PROBE = """
import json, sys
from photonmix.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "scipy": sorted(n for n in sys.modules if n.split(".")[0] == "scipy")}))
"""


class TestScipyOffCommandPath:
    """scipy loads only for the oracle's tail mass and for fit_scale=true."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("imports")
        write_tags_csv(pulsed_coherent_tags({2: 0.3}, 5_000, REP, seed=2), base / "tags.csv")
        r = np.geomspace(0.02, 20.0, 15)
        points = [SweepPoint(float(a), float(b), 0.01) for a, b in zip(r, vhom_model(r, 0.5, 0.03))]
        write_sweep(points, base / "sweep.csv")
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

    @pytest.mark.parametrize("command", ["version", "analyze", "fit_vhom", "fit_auto", "simulate"])
    def test_command_loads_no_scipy(self, inputs, command):
        args = {
            "version": ["--version"],
            "analyze": [
                "analyze", str(inputs / "tags.csv"), "--out", str(inputs / "analyze"),
                "--set", "pair=[2,2]", "--set", "bin_width=25",
                "--set", f"tau_max={TAU_MAX}", "--set", f"rep_period={REP}",
            ],
            "fit_vhom": self.fit_args(inputs, "vhom", "false"),
            "fit_auto": self.fit_args(inputs, "auto", "false"),
            "simulate": [
                "simulate", "--out", str(inputs / "simulate"), "--set", "m=0.76",
                "--set", "g2_psi=0.0412", "--set", "noise_sigma_rel=0.02",
            ],
        }[command]
        assert self.probe(args) == {"code": 0, "scipy": []}

    def test_oracle_checks_and_fit_scale_load_it(self, inputs):
        # the probe sees scipy where it is really used
        oracle = self.probe(
            ["simulate", "--out", str(inputs / "oracle"), "--set", "m=0.76", "--set", "g2_psi=0.0412",
             "--set", "oracle_check_ratios=[1]"]
        )
        scaled = self.probe(self.fit_args(inputs, "vhom", "true"))
        assert oracle["code"] == scaled["code"] == 0
        assert "scipy.special" in oracle["scipy"] and "scipy.optimize" not in oracle["scipy"]
        assert "scipy.optimize" in scaled["scipy"]
