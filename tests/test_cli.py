import gzip
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from photonmix.analytic_model import LocalOscillator, SourceParams
from photonmix import cli, tagstream
from photonmix.cli import _SCHEMAS, _load_config, _violations, cmd_analyze, main
from photonmix.errors import ConfigError, DataFormatError, PhotonmixError
from photonmix.estimator import SweepPoint, auto_model, vhom_model, write_sweep
from photonmix.fock_oracle import BeamSplitterSpec, required_cutoff
from photonmix.mode_overlap import SampledProfile, write_profile
from photonmix.synthetic import displaced_fock_tags, pulsed_coherent_tags, write_tags_csv
from photonmix.tagstream import parse_tags

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
            cmd_analyze(str(coherent_tagfile), cfg, tmp_path)
        assert err.value.line == 2
        assert str(err.value) == "line 2: unknown channel 9"

    def test_parallel_file_error_wins(self, tmp_path, capsys):
        par = self.bad_file(tmp_path, _MALFORMED_TAGS, "par.csv")
        perp = self.bad_file(tmp_path, "", "perp.csv")
        assert run(self.args(par, perp, tmp_path / "run")) == 3
        assert capsys.readouterr().err == "data error: line 2: unknown channel 9\n"

    def test_orthogonal_failure_leaves_the_parallel_outputs(self, tmp_path, coherent_tagfile):
        assert run(self.args(coherent_tagfile, None, tmp_path / "alone")) == 0
        out = tmp_path / "pair"
        assert run(self.args(coherent_tagfile, self.bad_file(tmp_path, ""), out)) == 3
        alone = output_files(tmp_path / "alone")
        assert output_files(out) == {name: alone[name] for name in ("g2.json", "histogram.csv")}

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

            monkeypatch.setattr(cli, "write_histogram_csv", interrupt)
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
    ("overlap", ['spectral_filter={"center":1}'], "spectral_filter: 'half_width' is a required property"),
    ("overlap", ['spectral_filter={"center":1,"half_width":0}'],
     "spectral_filter/half_width: 0 is less than or equal to the minimum of 0"),
    ("fit", ["fit_scale=1"], "fit_scale: 1 is not of type 'boolean'"),
    ("fit", ['model="quad"'], "model: 'quad' is not one of ['vhom', 'auto']"),
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
        write_sweep([SweepPoint(float(a), float(b), 0.01) for a, b in zip(r, vhom_model(r, 0.5, 0.03))], sweep)
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
    """No command loads scipy or jsonschema; only fit_scale=true loads scipy.optimize.

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

    @pytest.mark.parametrize(
        "command", ["version", "analyze", "analyze_pair", "fit_vhom", "fit_auto", "simulate", "simulate_oracle"]
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
            "simulate": simulate,
            "simulate_oracle": [*simulate, "--set", "oracle_check_ratios=[0.2,10]"],
        }[command]
        # numpy, and multiprocessing for two files, are the controls: the probe sees a module the run really imports
        assert self.probe(args) == {
            "code": 0, "numpy": True, "multiprocessing": command == "analyze_pair", "scipy": [], "jsonschema": []
        }

    def test_fit_scale_loads_scipy_optimize(self, inputs):
        scaled = self.probe(self.fit_args(inputs, "vhom", "true"))
        assert scaled["code"] == 0 and scaled["jsonschema"] == []
        assert "scipy.optimize" in scaled["scipy"]
