#!/usr/bin/env python3
"""Seeded benchmark of the photonmix CLI and of its layers.

Run from the repository root:

    python3 perfbench/run.py --workload oracle_grid --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's CLI commands run as child processes and
the end-to-end metrics are measured; with ``--trace 1`` the same commands
run in-process through ``photonmix.cli.main``, alternately with every public
function of the layers wrapped in a span and without, and the per-layer
metrics are reported.  Inputs are generated from the seed by the
benchmark's own generator before any timing starts and cached under
``perfbench/.cache``.  Every output file is checked (see ``checks.py``); the
last line of standard output is one JSON object
``{correct, attempted, failed, metrics}``, and the full record (environment,
input SHA-256s, checks, spans) is written to ``perfbench/results``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_cap() -> dict[str, str]:
    """BLAS thread variables capped at the CPUs this process may use."""
    capped = {}
    for var in BLAS_VARS:
        try:
            n = min(int(os.environ[var]), NPROC)
        except (KeyError, ValueError):
            n = NPROC
        capped[var] = str(max(n, 1))
    return capped


# The in-process traced run obeys the same cap as the CLI children, so it is
# set before numpy loads BLAS.
os.environ.update(_blas_cap())

import numpy as np  # noqa: E402

sys.path.insert(0, str(BENCH))
import tagsource  # noqa: E402
from checks import (  # noqa: E402
    candidate_pairs,
    check_fit,
    check_g2,
    check_histogram,
    check_oracle_report,
    check_visibility,
    g2_from_counts,
    reference_histogram,
    visibility_from_g2,
)
from tracing import Tracer, layer_total, total  # noqa: E402

M = 0.76
G2_PSI = 0.0412
BIN_WIDTH = 25
REP_PERIOD = 12195
LIFETIME_PS = 500.0
N_SIDE_PEAKS = 10
#: Fresh ``--version`` processes per run; setup_s is their median.  The
#: benchmark process has imported the package before the first of them, so
#: byte-compilation and a cold file cache are not counted.
SETUP_REPS = 3
#: A CLI child running longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150

ORACLE_CFG = {
    "m": M,
    "g2_psi": G2_PSI,
    "mu_psi": 1.0,
    "r_min": 0.01,
    "r_max": 30.0,
    "n_points": 60,
    "tail_target": 1e-10,
    "noise_sigma_rel": 0.02,
    "noise_model": "vhom",
    # mu_alpha 0.2 -> 10, cutoff 7 -> 36: the oracle's cost grows as (cutoff + 3)^4
    "oracle_check_ratios": [0.2, 2.0, 6.0, 10.0],
}

# Each tag file is one run of the interference experiment; "par" has the
# coherent field overlapping the photons by M, "perp" at orthogonal polarization.
TAG_WORKLOADS = {
    # near the visibility peak, about 2.8 M records per file: parsing dominates
    "tags_visibility": {
        "pair": [2, 3],
        "mu_psi": 0.5,
        "ratio": 0.4,
        "n_pulses": 4_000_000,
        "tau_max": 122_000,
        "files": ["par", "perp"],
        "truth": "g2_cross",
    },
    # the bunching reference point, 100 periods of delay: histogramming dominates
    "tags_bunching": {
        "pair": [2, 2],
        "mu_psi": 1.0,
        "ratio": 2.0,
        "n_pulses": 250_000,
        "tau_max": 100 * REP_PERIOD,
        "files": ["par"],
        "truth": "g2_auto_2",
    },
}
WORKLOADS = ["oracle_grid", *TAG_WORKLOADS]


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def median(values):
    """Median; for counts, the lower middle value, so a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


class Run:
    """Attempted/failed operation counts and the failure messages of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)
            log(f"FAILED {label}: {problems[0]}")


# ---------------------------------------------------------------- inputs


def _file_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def prepare_tag_inputs(name: str, seed: int, cache: Path) -> dict:
    """Generate (or load) the workload's tag files, references and ground truth.

    The cache key covers the workload parameters and the seed only, and the
    generator is the benchmark's own, so every commit reads the same bytes.
    Returns per-file records and the generation time.
    """
    params = TAG_WORKLOADS[name]
    key_doc = {
        "workload": name,
        "params": params,
        "seed": seed,
        "m": M,
        "g2_psi": G2_PSI,
        "lifetime_ps": LIFETIME_PS,
        "rep_period": REP_PERIOD,
        "bin_width": BIN_WIDTH,
    }
    key = hashlib.sha256(json.dumps(key_doc, sort_keys=True).encode()).hexdigest()[:16]
    entry = cache / f"{name}-seed{seed}-{key}"
    meta_path = entry / "meta.json"
    if meta_path.is_file():
        meta = json.loads(meta_path.read_text())
        if all(sha256(entry / f"{f}.csv") == meta["files"][f]["sha256"] for f in params["files"]):
            meta["cache_hit"] = True
            return _with_paths(entry, meta)
    entry.mkdir(parents=True, exist_ok=True)
    files, timing = {}, {"sample_s": 0.0, "write_s": 0.0, "reference_s": 0.0}
    for index, kind in enumerate(params["files"]):
        t0 = time.perf_counter()
        channels, times, truth = tagsource.displaced_fock_tags(
            params["mu_psi"], G2_PSI, params["ratio"] * params["mu_psi"], M if kind == "par" else 0.0,
            params["n_pulses"], REP_PERIOD, LIFETIME_PS, _file_seed(seed, index),
        )
        t1 = time.perf_counter()
        path = entry / f"{kind}.csv"
        tagsource.write_tags_csv(channels, times, path)
        t2 = time.perf_counter()
        reference = reference_histogram(channels, times, params["pair"], BIN_WIDTH, params["tau_max"])
        np.save(entry / f"{kind}.reference.npy", reference)
        files[kind] = {
            "sha256": sha256(path),
            "bytes": path.stat().st_size,
            "records": int(channels.size),
            "candidate_pairs": candidate_pairs(channels, times, params["pair"], BIN_WIDTH, params["tau_max"]),
            "truth": truth[params["truth"]],
        }
        t3 = time.perf_counter()
        for part, seconds in (("sample_s", t1 - t0), ("write_s", t2 - t1), ("reference_s", t3 - t2)):
            timing[part] += seconds
    meta = {"key": key_doc, "files": files, "generation": timing}
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True))
    meta["cache_hit"] = False
    return _with_paths(entry, meta)


def _with_paths(entry: Path, meta: dict) -> dict:
    for kind, info in meta["files"].items():
        info["path"] = entry / f"{kind}.csv"
        info["reference"] = np.load(entry / f"{kind}.reference.npy")
    return meta


def prepare_oracle_input(seed: int, cache: Path) -> dict:
    cfg = dict(ORACLE_CFG, seed=seed)
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"oracle_grid-seed{seed}.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return {"cfg": cfg, "files": {"config": {"path": path, "sha256": sha256(path)}}, "generation": {}}


def prepare(name: str, seed: int, cache: Path) -> dict:
    if name == "oracle_grid":
        return prepare_oracle_input(seed, cache)
    return prepare_tag_inputs(name, seed, cache)


# ---------------------------------------------------------------- commands and checks


def commands(name: str, inputs: dict, work: Path) -> list[list[str]]:
    """``photonmix`` argument lists of one pass of the workload, writing under ``work``."""
    if name == "oracle_grid":
        cfg = inputs["cfg"]
        return [
            ["simulate", "--config", str(inputs["files"]["config"]["path"]), "--out", str(work / "sim")],
            ["fit", str(work / "sim" / "points_vhom.csv"), "--out", str(work / "fit"),
             "--set", "model=vhom", "--set", f"g2_psi={cfg['g2_psi']}"],
        ]
    params = TAG_WORKLOADS[name]
    files = inputs["files"]
    args = ["analyze", str(files["par"]["path"]), "--out", str(work),
            "--set", f"pair={json.dumps(params['pair'])}", "--set", f"bin_width={BIN_WIDTH}",
            "--set", f"tau_max={params['tau_max']}", "--set", f"rep_period={REP_PERIOD}"]
    if "perp" in files:
        args += ["--set", f"perp_tagfile={json.dumps(str(files['perp']['path']))}"]
    return [args]


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return {"_error": str(exc)}


def check_outputs(name: str, inputs: dict, work: Path) -> list[tuple[str, list[str]]]:
    """Labelled checks of the files one pass wrote under ``work``."""
    if name == "oracle_grid":
        cfg = inputs["cfg"]
        return [
            ("oracle report", check_oracle_report(_read_json(work / "sim" / "report.json"), cfg)),
            ("fit", check_fit(_read_json(work / "fit" / "fit.json"), cfg["m"], cfg["n_points"])),
        ]
    params = TAG_WORKLOADS[name]
    files = inputs["files"]
    checks, refs = [], {}
    for kind, suffix in zip(params["files"], ("", "_perp")):
        info = files[kind]
        checks.append((f"histogram {kind}", check_histogram(
            work / f"histogram{suffix}.csv", info["reference"], BIN_WIDTH, params["tau_max"])))
        refs[kind] = g2_from_counts(info["reference"], BIN_WIDTH, params["tau_max"], REP_PERIOD, N_SIDE_PEAKS)
        checks.append((f"g2 {kind}", check_g2(
            _read_json(work / f"g2{suffix}.json"), refs[kind], info["truth"], f"g2 {kind}")))
    if "perp" in refs:
        truth_v = (files["perp"]["truth"] - files["par"]["truth"]) / files["perp"]["truth"]
        checks.append(("visibility", check_visibility(
            _read_json(work / "visibility.json"), visibility_from_g2(refs["par"], refs["perp"]), truth_v)))
    return checks


def checked_pass(name: str, inputs: dict, work: Path, run: Run, label: str, execute) -> tuple[list[dict], int]:
    """Run one pass of the workload's commands with ``execute`` and check what they wrote.

    ``execute(argv, logdir)`` returns ``{"seconds", "problems", ...}``.  The
    output files are checked only when every command succeeded.  Returns the
    per-command results and the bytes of histogram CSV written.
    """
    work.mkdir(parents=True, exist_ok=True)
    results = [execute(argv, work / f"log{i}") for i, argv in enumerate(commands(name, inputs, work))]
    for i, res in enumerate(results):
        run.record(f"{label} command {i}", res["problems"])
    if not any(res["problems"] for res in results):
        for check, problems in check_outputs(name, inputs, work):
            run.record(f"{label} {check}", problems)
    output_bytes = sum(p.stat().st_size for p in work.glob("histogram*.csv"))
    shutil.rmtree(work, ignore_errors=True)
    return results, output_bytes


# ---------------------------------------------------------------- untraced CLI runs


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **_blas_cap())


def run_cli(argv: list[str], logdir: Path, env: dict) -> dict:
    """Spawn ``photonmix`` and wait for it; wall time and max RSS of that child alone."""
    logdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "-m", "photonmix.cli", *argv]
    with open(logdir / "stdout.txt", "wb") as so, open(logdir / "stderr.txt", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=so, stderr=se)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = []
    if proc.returncode != 0:
        tail = (logdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        problems.append(f"exit code {proc.returncode} {tail}")
    return {"seconds": seconds, "maxrss_mb": usage.ru_maxrss / 1024.0, "problems": problems}


def measure_cli(name: str, inputs: dict, seconds: float, work: Path, run: Run) -> dict:
    env = child_env()
    setup = []
    for i in range(SETUP_REPS):
        res = run_cli(["--version"], work / f"version{i}", env)
        run.record("setup", res["problems"])
        setup.append(res["seconds"])

    def spawn(argv, logdir):
        return run_cli(argv, logdir, env)

    walls, rss = [], []
    t0 = time.perf_counter()
    while True:
        results, _ = checked_pass(name, inputs, work / f"pass{len(walls)}", run, f"pass {len(walls)}", spawn)
        walls.append(sum(r["seconds"] for r in results))
        rss.append(max(r["maxrss_mb"] for r in results))
        if time.perf_counter() - t0 >= seconds:
            break
    values = {"wall_s": median(walls), "setup_s": median(setup), "peak_rss_mb": max(rss)}
    extra = {"wall_s_samples": walls, "setup_s_samples": setup, "peak_rss_mb_samples": rss}
    if name in TAG_WORKLOADS:
        records = sum(f["records"] for f in inputs["files"].values())
        extra["records_per_s"] = records / median(walls)
    return {"values": values, "extra": extra}


# ---------------------------------------------------------------- traced in-process runs

TRACED = {
    "fock_oracle": ["required_cutoff", "displacement_matrix", "apply_loss", "mix_on_beam_splitter",
                    "cross_correlations", "auto_correlation", "oracle_visibility"],
    "analytic_model": ["peak_analysis"],
    "estimator": ["vhom_model", "auto_model", "read_sweep", "write_sweep", "fit_vhom_curve"],
    "tagstream": ["parse_tags", "build_histogram", "g2_zero", "visibility_from_histograms", "write_histogram_csv"],
}


def _mix_attrs(args, kwargs, state) -> dict:
    cutoff = kwargs["cutoff"] if "cutoff" in kwargs else args[3]
    return {"cutoff": cutoff, "branches": len(getattr(state, "weights", [None]))}


RESULT_HOOKS = {
    "mix_on_beam_splitter": _mix_attrs,
    "parse_tags": lambda args, kwargs, stream: {"records": len(stream)},
    "build_histogram": lambda args, kwargs, hist: {"kept_pairs": int(np.sum(hist.counts))},
}


def install_tracer(tracer: Tracer, lib) -> list[str]:
    """Wrap every function in TRACED; returns the names the program no longer has."""
    missing = []
    for module, names in TRACED.items():
        mod = getattr(lib, module, None)
        present = [n for n in names if hasattr(mod, n)]
        missing += [f"{module}.{n}" for n in names if n not in present]
        if present:
            tracer.patch(mod, present, RESULT_HOOKS)
    return missing


def _clear_caches() -> None:
    """Drop memoized results so each in-process pass starts as cold as a fresh CLI process."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("photonmix"):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def layer_metrics(spans: list[dict], name: str, inputs: dict, output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass (values only; units are in BENCHMARK.json)."""
    mixes = [s for s in spans if s["name"] == "fock_oracle.mix_on_beam_splitter"]
    parse_s = total(spans, "tagstream.parse_tags")
    input_bytes = sum(f["bytes"] for f in inputs["files"].values()) if name in TAG_WORKLOADS else 0
    candidates = sum(f.get("candidate_pairs", 0) for f in inputs["files"].values())
    kept = sum(s.get("kept_pairs", 0) for s in spans)
    return {
        "fock_oracle.required_cutoff_s": total(spans, "fock_oracle.required_cutoff"),
        "fock_oracle.displacement_matrix_s": total(spans, "fock_oracle.displacement_matrix"),
        "fock_oracle.apply_loss_s": total(spans, "fock_oracle.apply_loss"),
        "fock_oracle.mix_on_beam_splitter_s": total(spans, "fock_oracle.mix_on_beam_splitter"),
        "fock_oracle.moments_s": total(spans, "fock_oracle.cross_correlations", "fock_oracle.auto_correlation"),
        "fock_oracle.oracle_visibility_s": total(spans, "fock_oracle.oracle_visibility"),
        "fock_oracle.mix_calls": len(mixes),
        "fock_oracle.max_cutoff": max((s["cutoff"] for s in mixes), default=0),
        "fock_oracle.ket_bytes": max((s["branches"] * (s["cutoff"] + 3) ** 4 * 16 for s in mixes), default=0),
        "fock_oracle.total_s": layer_total(spans, "fock_oracle"),
        "tagstream.parse_tags_s": parse_s,
        "tagstream.records": sum(s.get("records", 0) for s in spans),
        "tagstream.input_bytes": input_bytes,
        "tagstream.parse_mb_per_s": input_bytes / 1e6 / parse_s if parse_s else 0.0,
        "tagstream.build_histogram_s": total(spans, "tagstream.build_histogram"),
        "tagstream.candidate_pairs": candidates,
        "tagstream.kept_pairs": kept,
        "tagstream.pair_keep_ratio": kept / candidates if candidates else 0.0,
        "tagstream.g2_zero_s": total(spans, "tagstream.g2_zero"),
        "tagstream.visibility_s": total(spans, "tagstream.visibility_from_histograms"),
        "tagstream.write_histogram_csv_s": total(spans, "tagstream.write_histogram_csv"),
        "tagstream.output_bytes": output_bytes,
        "tagstream.total_s": layer_total(spans, "tagstream"),
        "analytic_model.peak_analysis_s": total(spans, "analytic_model.peak_analysis"),
        "estimator.sweep_model_s": total(spans, "estimator.vhom_model", "estimator.auto_model"),
        "estimator.read_sweep_s": total(spans, "estimator.read_sweep"),
        "estimator.fit_vhom_curve_s": total(spans, "estimator.fit_vhom_curve"),
        "estimator.total_s": layer_total(spans, "estimator"),
    }


def measure_traced(name: str, inputs: dict, seconds: float, work: Path, run: Run, lib, run_id: str) -> dict:
    """Pairs of in-process passes of the workload's commands, one traced and one not.

    Both run ``photonmix.cli.main`` on the argument lists the untraced run
    spawns, and both are checked.  The order within a pair alternates, and
    the tracing overhead is the median over pairs of traced / untraced - 1.
    """
    cli_main = lib.cli.main
    tracer = Tracer(name, run_id)

    def in_process(argv, logdir):
        t0 = time.perf_counter()
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects an argument list by exiting
            code = exc.code
        except Exception as exc:  # a crash inside the program is a failed operation
            return {"seconds": time.perf_counter() - t0, "problems": [f"{type(exc).__name__}: {exc}"]}
        problems = [] if code == 0 else [f"exit code {code}"]
        return {"seconds": time.perf_counter() - t0, "problems": problems}

    passes, ratios, missing = [], [], []
    t0 = time.perf_counter()
    while True:
        i = len(passes)
        timed = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            label = f"{'traced' if traced else 'untraced'} pass {i}"
            _clear_caches()
            first = len(tracer.spans)
            if traced:
                missing = install_tracer(tracer, lib)
            try:
                results, output_bytes = checked_pass(name, inputs, work / label.replace(" ", "-"), run, label,
                                                     in_process)
            finally:
                tracer.restore()
            timed[traced] = sum(r["seconds"] for r in results)
            if traced:
                metrics = layer_metrics(tracer.spans[first:], name, inputs, output_bytes)
        metrics["bench.in_process_s"] = timed[True]
        metrics["bench.untraced_s"] = timed[False]
        passes.append(metrics)
        ratios.append(timed[True] / timed[False])
        if time.perf_counter() - t0 >= seconds:
            break
    if missing:
        log(f"not traced, no longer in the program: {', '.join(missing)}")
    values = {key: median([p[key] for p in passes]) for key in passes[0]}
    values["bench.trace_overhead"] = statistics.median(ratios) - 1.0
    in_process = values["bench.in_process_s"]
    shares = {layer: values[f"{layer}.total_s"] / in_process for layer in ("fock_oracle", "tagstream", "estimator")}
    shares["analytic_model"] = values["analytic_model.peak_analysis_s"] / in_process
    return {"values": values, "spans": tracer.spans,
            "extra": {"layer_share": shares, "passes": passes, "overhead_ratios": ratios, "not_traced": missing}}


# ---------------------------------------------------------------- main


def _blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, or None when it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment(lib) -> dict:
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "photonmix": lib.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "blas_thread_cap": _blas_cap(),
        "machine": platform.machine(),
    }


def load_program():
    """Import photonmix and its CLI from this checkout's ``src``, refusing any other copy."""
    if not (SRC / "photonmix" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no photonmix sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import photonmix
    import photonmix.cli  # noqa: F401  (loaded before any patching, so its bindings are traced)

    if Path(photonmix.__file__).resolve().parent != (SRC / "photonmix").resolve():
        raise SystemExit(f"perfbench: imported photonmix from {photonmix.__file__}, not {SRC}")
    return photonmix


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items() if k != "reference"}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj.relative_to(ROOT)) if obj.is_relative_to(ROOT) else str(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=BENCH / "results",
                        help="directory for the full per-run record (default perfbench/results)")
    args = parser.parse_args(argv)

    lib = load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cache = BENCH / ".cache"
    run_id = f"{int(time.time() * 1000)}-{os.getpid()}"
    work = BENCH / ".work" / run_id
    run = Run()
    log(f"{args.workload} seed={args.seed} trace={args.trace} run={run_id}")
    inputs = prepare(args.workload, args.seed, cache)
    try:
        if args.trace:
            measured = measure_traced(args.workload, inputs, args.seconds, work, run, lib, run_id)
        else:
            measured = measure_cli(args.workload, inputs, args.seconds, work, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {
        m["name"]: {"value": measured["values"][m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }

    line = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_id": run_id,
        "environment": environment(lib),
        "inputs": _jsonable({"generation": inputs["generation"], "cache_hit": inputs.get("cache_hit", False),
                             "files": inputs["files"]}),
        "failures": run.failures,
        "extra": measured["extra"],
        "result": line,
        "spans": measured.get("spans", []),
    }
    args.results.mkdir(parents=True, exist_ok=True)
    out = args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{run_id}.json"
    out.write_text(json.dumps(_jsonable(record), indent=1))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
