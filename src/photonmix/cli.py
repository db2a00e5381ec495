"""Command-line front end: simulate sweeps, analyze tag files, compute overlaps, run fits.

Each run is driven by a JSON config document; individual keys can be
overridden on the command line with ``--set key=value`` (flag values win over
the config file, which wins over built-in defaults).  Every output table is
CSV with a JSON metadata sidecar recording the command, the resolved
configuration, the input files and the package version, so a run is
reproducible byte for byte from its sidecar.  Only ``simulate`` draws random
numbers: its seed is the config key ``seed``, which ``--seed`` overrides.

A command writes nothing: it returns its outputs, and ``main`` writes them and
then the sidecar only once it has returned, so a refused run writes no file.

Exit codes: 0 success, 2 configuration error, 3 input data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import operator
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic_model import LocalOscillator, SourceParams, auto_g2_zero, hom_visibility, peak_analysis
from .errors import (
    ConfigError,
    DataFormatError,
    IllConditionedFitError,
    InvalidParameterError,
    PhotonmixError,
    UndefinedCorrelationError,
)
from .estimator import SWEEP_HEADER, SWEEP_MODELS, fit_sweep, read_sweep
from .fock_oracle import (
    BeamSplitterSpec,
    auto_correlation,
    coherent_tail_mass,
    mix_on_beam_splitter,
    required_cutoff,
    visibility_from_states,
)
from .mode_overlap import fringe_visibility_overlap, overlap_integral, read_fringe, read_profile, spectral_filter
from .tagstream import (
    DEFAULT_CHANNELS,
    build_histogram,
    check_binning,
    check_g2_params,
    g2_zero,
    parse_tags,
    visibility_from_histograms,
)
from .tables import write_table
from .workers import in_child

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_SCHEMAS = {
    "simulate": {
        "type": "object",
        "properties": {
            "m": {"type": "number", "minimum": 0, "maximum": 1},
            "g2_psi": {"type": "number", "minimum": 0},
            "mu_psi": {"type": "number", "exclusiveMinimum": 0, "maximum": 1, "default": 1.0},
            "r_min": {"type": "number", "exclusiveMinimum": 0, "default": 0.01},
            "r_max": {"type": "number", "exclusiveMinimum": 0, "default": 30.0},
            "n_points": {"type": "integer", "minimum": 2, "default": 60},
            "oracle_check_ratios": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "default": []},
            "tail_target": {"type": "number", "exclusiveMinimum": 0, "maximum": 1e-6, "default": 1e-10},
            "noise_sigma_rel": {"type": "number", "exclusiveMinimum": 0},
            "noise_model": {"enum": list(SWEEP_MODELS)},
            "seed": {"type": "integer", "minimum": 0, "default": 0},
        },
        "required": ["m", "g2_psi"],
        # noise_model picks the curve that noise_sigma_rel perturbs; alone it would do nothing
        "dependentRequired": {"noise_model": ["noise_sigma_rel"]},
        "additionalProperties": False,
    },
    "analyze": {
        "type": "object",
        "properties": {
            "pair": {
                "type": "array",
                "items": {"enum": sorted(DEFAULT_CHANNELS)},
                "minItems": 2,
                "maxItems": 2,
            },
            "bin_width": {"type": "integer", "minimum": 1},
            "tau_max": {"type": "integer", "minimum": 1},
            "rep_period": {"type": "integer", "minimum": 1},
            "window": {"type": "integer", "minimum": 1},
            "n_side_peaks": {"type": "integer", "minimum": 2, "default": 10},
            "reorder_window": {"type": "integer", "minimum": 0, "maximum": 9223372036854775807, "default": 0},
            "perp_tagfile": {"type": "string"},
        },
        "required": ["pair", "bin_width", "tau_max", "rep_period"],
        "additionalProperties": False,
    },
    "overlap": {
        "type": "object",
        "properties": {
            "time_profiles": {"type": "array", "items": {"type": "string"}, "minItems": 2, "maxItems": 2},
            "frequency_profiles": {"type": "array", "items": {"type": "string"}, "minItems": 2, "maxItems": 2},
            "profile_kind": {"enum": ["intensity", "amplitude"], "default": "intensity"},
            "spectral_filter": {
                "type": "object",
                "properties": {
                    "center": {"type": "number"},
                    "half_width": {"type": "number", "exclusiveMinimum": 0},
                },
                "required": ["center", "half_width"],
                "additionalProperties": False,
            },
            "fringe_file": {"type": "string"},
            "k_tail": {"type": "integer", "minimum": 1, "default": 500},
            "m_t": {"type": "number", "minimum": 0, "maximum": 1},
            "m_f": {"type": "number", "minimum": 0, "maximum": 1},
            "m_p": {"type": "number", "minimum": 0, "maximum": 1},
            "m_s": {"type": "number", "minimum": 0, "maximum": 1, "default": 1.0},
            "m_psi": {"type": "number", "minimum": 0, "maximum": 1},
        },
        # the filter windows the frequency profiles; alone it would do nothing
        "dependentRequired": {"spectral_filter": ["frequency_profiles"]},
        "additionalProperties": False,
    },
    "fit": {
        "type": "object",
        "properties": {
            "model": {"enum": list(SWEEP_MODELS)},
            "g2_psi": {"type": "number", "minimum": 0},
            "fit_scale": {"type": "boolean", "default": False},
        },
        "required": ["model", "g2_psi"],
        "additionalProperties": False,
    },
}

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, float) and v.is_integer() or isinstance(v, int) and not isinstance(v, bool),
}

# bound keyword -> (is the bound broken, how the message says so)
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
}


def _violations(schema: dict, value, path: tuple = ()):
    """Yield (key path, message) for every way ``value`` breaks ``schema``.

    Covers the JSON Schema (2020-12) keywords ``_SCHEMAS`` uses, with
    jsonschema's semantics and wording: a bool is never a number, an
    integral float is an integer, and an enum member matches by value
    except that a bool matches only a bool.
    """
    for keyword, arg in schema.items():
        if keyword == "type" and not _TYPES[arg](value):
            yield path, f"{value!r} is not of type {arg!r}"
        elif keyword == "enum" and not any(
            value == e and isinstance(value, bool) == isinstance(e, bool) for e in arg
        ):
            yield path, f"{value!r} is not one of {arg!r}"
        elif keyword in _BOUNDS and _TYPES["number"](value) and _BOUNDS[keyword][0](value, arg):
            yield path, f"{value!r} is {_BOUNDS[keyword][1]} of {arg!r}"
        elif isinstance(value, list):
            if keyword == "items":
                for i, item in enumerate(value):
                    yield from _violations(arg, item, (*path, i))
            elif keyword == "minItems" and len(value) < arg:
                yield path, f"{value!r} is too short"
            elif keyword == "maxItems" and len(value) > arg:
                yield path, f"{value!r} is too long"
        elif isinstance(value, dict):
            if keyword == "properties":
                for key, sub in arg.items():
                    if key in value:
                        yield from _violations(sub, value[key], (*path, key))
            elif keyword == "required":
                for key in arg:
                    if key not in value:
                        yield path, f"{key!r} is a required property"
            elif keyword == "additionalProperties" and arg is False:
                extras = sorted(key for key in value if key not in schema.get("properties", {}))
                if extras:
                    listed = ", ".join(map(repr, extras))
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, f"Additional properties are not allowed ({listed} {verb} unexpected)"
            elif keyword == "dependentRequired":
                for key, needed in arg.items():
                    for each in needed:
                        if key in value and each not in value:
                            yield path, f"{each!r} is a dependency of {key!r}"


def _load_config(command: str, config_path: str | None, overrides: list[str], seed: int | None) -> dict:
    schema = _SCHEMAS[command]
    properties = schema["properties"]
    cfg = {key: copy.deepcopy(p["default"]) for key, p in properties.items() if "default" in p}
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config document must be a JSON object")
        cfg.update(loaded)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg[key.strip()] = value
    if seed is not None:
        cfg["seed"] = seed
    # of several faults, report the one jsonschema's best_match picks: the
    # nearest the root, then the greatest key path, then the first found
    violation = max(_violations(schema, cfg), key=lambda v: (-len(v[0]), v[0]), default=None)
    if violation is not None:
        path, message = violation
        raise ConfigError(f"config key {'/'.join(map(str, path)) or '<root>'}: {message}")
    return _resolved(schema, cfg)


def _resolved(schema: dict, value, path: tuple = ()):
    """``value``, valid under ``schema``, in the form the commands take.

    JSON Schema admits 5.0 as an integer and 2.0 as a member of an enum of
    ints; both become ints, which numpy needs for counts and the metadata
    sidecar records as the int run does.  It also admits nan, which passes
    every bound, and infinities, which pass every bound on their side; a
    non-finite number is a config error here.
    """
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        return {key: _resolved(properties.get(key, {}), v, (*path, key)) for key, v in value.items()}
    if isinstance(value, list):
        return [_resolved(schema.get("items", {}), v, (*path, i)) for i, v in enumerate(value)]
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"config key {'/'.join(map(str, path))}: {value!r} is not a finite number")
        if value.is_integer() and (schema.get("type") == "integer" or value in schema.get("enum", ())):
            return int(value)
    return value


def cmd_simulate(cfg: dict) -> tuple[dict, list[str]]:
    m = cfg["m"]
    g2_psi = cfg["g2_psi"]
    if cfg["r_min"] >= cfg["r_max"]:
        raise ConfigError("r_min must be smaller than r_max")
    model_name = cfg.get("noise_model", "vhom")
    mu_psi = cfg["mu_psi"]
    ratios = cfg["oracle_check_ratios"]
    # every config fault of the oracle checks is raised before any check runs
    source = SourceParams.from_moments(mu_psi, g2_psi) if ratios else None
    planned = []  # (ratio, mu_alpha, the keys its refusals name, cutoff)
    for ratio in ratios:
        mu_alpha = ratio * mu_psi
        keys = f"oracle_check_ratios entry {ratio!r} and mu_psi={mu_psi!r}"
        try:
            # g2 and V_HOM divide <n(n-1)>, whose share beyond cutoff c is P(N >= c - 1), the tail mass at c - 2
            planned.append((ratio, mu_alpha, keys, required_cutoff(mu_alpha, cfg["tail_target"]) + 2))
        except InvalidParameterError as exc:
            raise ConfigError(f"the oracle check at {keys}: {exc}") from None
    try:
        # numpy refuses an array beyond its index range with a ValueError or an IndexError
        if cfg["n_points"] * np.dtype(float).itemsize > np.iinfo(np.intp).max:
            raise MemoryError
        # a value beyond float64 (r_max above about 1.3e154 squares to inf) is refused, and so is a
        # division by zero in the fit below, as fit refuses it
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            grid = np.geomspace(cfg["r_min"], cfg["r_max"], cfg["n_points"])
            curves = {name: curve(grid, g2_psi, m) for name, curve in SWEEP_MODELS.items()}
            if "noise_sigma_rel" in cfg:
                sigma = cfg["noise_sigma_rel"] * curves[model_name]
                noisy = curves[model_name] + np.random.default_rng(cfg["seed"]).normal(size=grid.size) * sigma
                # the points are written only if fit reads them back: not with a y_err <= 0 (the visibility
                # at m = 0, or a curve or product that underflows), a 1 / y_err^2 that overflows, or 2 points
                try:
                    fit_sweep(grid, noisy, sigma, model_name, g2_psi)
                except (FloatingPointError, InvalidParameterError, IllConditionedFitError) as exc:
                    raise ConfigError(
                        f"noise_sigma_rel={cfg['noise_sigma_rel']!r} on the {model_name} curve gives points "
                        f"that fit refuses ({exc})"
                    ) from None
    except MemoryError:
        raise ConfigError(f"a sweep of n_points={cfg['n_points']!r} does not fit in memory") from None
    except FloatingPointError as exc:
        named = ", ".join(f"{key}={cfg[key]!r}" for key in ("r_min", "r_max", "noise_sigma_rel") if key in cfg)
        raise ConfigError(f"the sweep at {named} leaves the float64 range ({exc})") from None
    peaks = peak_analysis(g2_psi, m)
    _refuse_beyond_float64(peaks, f"m={m!r}, g2_psi={g2_psi!r}")
    checks = []
    theta = math.acos(math.sqrt(m))
    for ratio, mu_alpha, keys, cutoff in planned:
        lo = LocalOscillator(mu_alpha=mu_alpha, theta=theta)
        bs = BeamSplitterSpec(0.5)
        state = mix_on_beam_splitter(source, lo, bs, cutoff)
        orthogonal = mix_on_beam_splitter(source, replace(lo, theta=math.pi / 2.0), bs, cutoff)
        try:
            g2_oracle = auto_correlation(state)
            v_oracle = visibility_from_states(state, orthogonal)
        except UndefinedCorrelationError as exc:
            raise ConfigError(f"the oracle check at {keys} loses precision: {exc}") from exc
        v_formula = hom_visibility(ratio, g2_psi, m)
        g2_formula = auto_g2_zero(ratio, g2_psi, m)
        checks.append(
            {
                "ratio": ratio,
                "mu_alpha": mu_alpha,
                "cutoff": cutoff,
                "tail_mass": coherent_tail_mass(mu_alpha, cutoff),
                "v_hom_analytic": v_formula,
                "v_hom_oracle": v_oracle,
                "g2_auto_analytic": g2_formula,
                "g2_auto_oracle": g2_oracle,
                "max_abs_diff": max(abs(v_oracle - v_formula), abs(g2_oracle - g2_formula)),
            }
        )
        _refuse_beyond_float64(checks[-1], keys)
    outputs = {
        "sweep.csv": (("ratio", "v_hom", "g2_auto"), [grid, curves["vhom"], curves["auto"]]),
        "report.json": {"peaks": peaks, "oracle_checks": checks},
    }
    if "noise_sigma_rel" in cfg:
        outputs[f"points_{model_name}.csv"] = (SWEEP_HEADER, [grid, noisy, sigma])
    return outputs, []


def _refuse_beyond_float64(results: dict, keys: str) -> None:
    """Refuse a ``simulate`` result that is not a finite float64: it reads no file, so its config caused it."""
    for name, value in results.items():
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"the {name} at {keys} leaves the float64 range ({value!r})")


@contextmanager
def _within_float64(what: str, path):
    """Refuse arithmetic that leaves the float64 range (an overflow, inf - inf, x / 0) as a fault of ``path``.

    numpy reports it through ``np.errstate``; a Python float's ``**`` raises ``OverflowError`` itself.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        # the reason is the last argument: an OverflowError's args are (errno, reason)
        raise DataFormatError(f"{what} arithmetic leaves the float64 range ({exc.args[-1]})", path=path) from None


def _cpus() -> int:
    """The CPUs this process may use."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _analyze_one(tagfile: str, cfg: dict, processes: int = 1):
    stream = parse_tags(tagfile, reorder_window=cfg["reorder_window"])
    if len(stream) == 0:
        raise DataFormatError("contains no records", path=tagfile)
    hist = build_histogram(
        stream,
        pair=tuple(cfg["pair"]),
        bin_width=cfg["bin_width"],
        tau_max=cfg["tau_max"],
        processes=processes,
    )
    try:
        result = g2_zero(hist, cfg["rep_period"], window=cfg.get("window"), n_side_peaks=cfg["n_side_peaks"])
    except UndefinedCorrelationError as exc:  # of a pair, only the path says which file it is
        raise UndefinedCorrelationError(f"{tagfile}: {exc}") from None
    return hist, result


def _analysis(suffix: str, hist, result) -> dict:
    return {f"histogram{suffix}.csv": (("tau_ps", "counts"), [hist.centers, hist.counts]), f"g2{suffix}.json": result}


def cmd_analyze(tagfile: str, cfg: dict) -> tuple[dict, list[str]]:
    # a config fault is reported before any tag is read or any worker starts
    check_binning(cfg["bin_width"], cfg["tau_max"])
    check_g2_params(
        cfg["rep_period"], cfg["bin_width"], cfg["tau_max"], cfg.get("window"), cfg["n_side_peaks"]
    )
    if "perp_tagfile" not in cfg:
        return _analysis("", *_analyze_one(tagfile, cfg, _cpus())), [tagfile]
    # the two runs are independent: the orthogonal one is analyzed meanwhile in a child
    # process.  That child sweeps alone: a child of its own would outlive it when it is
    # killed, and would hold its pipe open when it dies.  This process, with a CPU share
    # per file, splits the parallel file's sweep
    perp = cfg["perp_tagfile"]
    with in_child(f"analyzing {perp}", _analyze_one, perp, cfg) as perp_result:
        hist, result = _analyze_one(tagfile, cfg, max(1, _cpus() // 2))
        hist_perp, result_perp = perp_result()
    v, err = visibility_from_histograms(result, result_perp)
    outputs = {**_analysis("", hist, result), **_analysis("_perp", hist_perp, result_perp)}
    outputs["visibility.json"] = {"v_hom": v, "err": err, "g2_par": result["value"], "g2_perp": result_perp["value"]}
    return outputs, [tagfile, perp]


def _profile_factor(paths: list[str], cfg: dict, domain: str) -> float:
    a, b = (read_profile(path, cfg["profile_kind"], domain) for path in paths)
    # the two profiles meet on the union of their grids, so a fault there is the pair's
    with _within_float64("the overlap's", ", ".join(paths)):
        if domain == "frequency" and "spectral_filter" in cfg:
            center, half_width = cfg["spectral_filter"]["center"], cfg["spectral_filter"]["half_width"]
            a, b = (spectral_filter(p, center, half_width) for p in (a, b))
            for path, p in zip(paths, (a, b)):
                if not p.values.any():
                    raise ConfigError(
                        f"spectral_filter (center {center!r}, half_width {half_width!r} GHz) zeroes every value of {path}"
                    )
        return overlap_integral(a, b)


# overlap factor -> the config key of the files that measure it
_MEASURED_BY = {"m_t": "time_profiles", "m_f": "frequency_profiles", "m_p": "fringe_file"}


def cmd_overlap(cfg: dict) -> tuple[dict, list[str]]:
    # a config fault is reported before any file is read
    for key, measured_by in _MEASURED_BY.items():
        if key in cfg and measured_by in cfg:
            raise ConfigError(f"{key} and {measured_by} both give {key}: set one of them")
    breakdown: dict[str, float | None] = {}
    sources: dict[str, str] = {}
    payload = {"breakdown": breakdown, "sources": sources}
    inputs: list[str] = []
    for key, measured_by in _MEASURED_BY.items():
        if measured_by not in cfg:
            breakdown[key] = cfg.get(key, 1.0)
            sources[key] = "config" if key in cfg else "default"
        elif key == "m_p":
            path = cfg[measured_by]
            samples = read_fringe(path)
            with _within_float64("the fringe's", path):
                payload["fringe"] = fringe_visibility_overlap(samples, k_tail=cfg["k_tail"])
            breakdown[key] = payload["fringe"]["m_p"]
            sources[key] = "fringe"
            inputs.append(path)
        else:
            breakdown[key] = _profile_factor(cfg[measured_by], cfg, measured_by.removesuffix("_profiles"))
            sources[key] = "profiles"
            inputs += cfg[measured_by]
    breakdown["m_s"] = cfg["m_s"]
    breakdown["m_total"] = breakdown["m_t"] * breakdown["m_f"] * breakdown["m_p"] * breakdown["m_s"]
    breakdown["m_tilde"] = breakdown["m_total"] * cfg["m_psi"] if "m_psi" in cfg else None
    return {"overlap.json": payload}, inputs


def cmd_fit(sweepfile: str, cfg: dict) -> tuple[dict, list[str]]:
    r, y, y_err = read_sweep(sweepfile)
    # a ratio above about 1.3e154 squares to inf
    with _within_float64("the fit's", sweepfile):
        result = fit_sweep(r, y, y_err, cfg["model"], cfg["g2_psi"], fit_scale=cfg["fit_scale"])
        y_model = SWEEP_MODELS[cfg["model"]](result.get("scale_hat", 1.0) * r, cfg["g2_psi"], result["M_hat"])
        residual = (y - y_model) / y_err
    residuals = (("ratio", "y", "y_err", "model", "residual_sigma"), [r, y, y_err, y_model, residual])
    return {"fit.json": result, "residuals.csv": residuals}, [sweepfile]


# command -> (function, help, input-file arguments, metadata sidecar).  The function
# takes the input files and the config, writes nothing, and returns its outputs, which
# map a file name to a JSON document (a dict) or a table (a (header, columns) pair),
# and the input files it read, which the sidecar records.
_COMMANDS = {
    "simulate": (cmd_simulate, "emit correlation sweep curves and oracle spot checks", (), "sweep.meta.json"),
    "analyze": (
        cmd_analyze, "build correlation histograms and g2(0) from a tag file", ("tagfile",), "analyze.meta.json"
    ),
    "overlap": (cmd_overlap, "compute per-degree-of-freedom mode overlaps", (), "overlap.meta.json"),
    "fit": (cmd_fit, "fit a sweep CSV for the mean wavepacket overlap", ("sweepfile",), "fit.meta.json"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonmix",
        description="Interference of a pulsed single-photon stream with a coherent field: "
        "simulation, tag analysis, mode overlaps and fits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, files, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for file_arg in files:
            p.add_argument(file_arg)
        p.add_argument("--config", help="JSON config document")
        if "seed" in _SCHEMAS[name]["properties"]:
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (value parsed as JSON when possible)",
        )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    run, _, files, sidecar = _COMMANDS[args.command]
    try:
        cfg = _load_config(args.command, args.config, args.overrides, getattr(args, "seed", None))
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {args.out}: {exc.strerror or exc}") from exc
        outputs, inputs = run(*(getattr(args, file_arg) for file_arg in files), cfg)
        outputs[sidecar] = {"command": args.command, "config": cfg, "inputs": inputs, "version": __version__}
        for name, output in outputs.items():
            if isinstance(output, dict):
                with open(outdir / name, "w", encoding="utf-8") as fh:
                    json.dump(output, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            else:
                write_table(outdir / name, *output)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (UndefinedCorrelationError, IllConditionedFitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PhotonmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
