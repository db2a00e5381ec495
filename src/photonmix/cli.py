"""Command-line front end: simulate sweeps, analyze tag files, compute overlaps, run fits.

Each run is driven by a JSON config document; individual keys can be
overridden on the command line with ``--set key=value`` (flag values win over
the config file, which wins over built-in defaults).  Every output table is
CSV with a JSON metadata sidecar recording the resolved configuration, seed
and package version, so a run is reproducible byte for byte from its
sidecar.

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
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic_model import LocalOscillator, SourceParams, peak_analysis
from .errors import (
    ConfigError,
    DataFormatError,
    IllConditionedFitError,
    InvalidParameterError,
    PhotonmixError,
    TruncationError,
    UndefinedCorrelationError,
)
from .estimator import (
    auto_model,
    fit_auto_curve,
    fit_vhom_curve,
    read_sweep,
    vhom_model,
    write_sweep,
    SweepPoint,
)
from .fock_oracle import (
    BeamSplitterSpec,
    auto_correlation,
    mix_on_beam_splitter,
    required_cutoff,
    visibility_from_states,
)
from .mode_overlap import (
    amplitude_from_intensity,
    fringe_visibility_overlap,
    overlap_integral,
    read_profile,
    spectral_filter,
    total_overlap,
)
from .tagstream import (
    DEFAULT_CHANNELS,
    build_histogram,
    check_binning,
    check_g2_params,
    g2_zero,
    parse_tags,
    visibility_from_histograms,
    write_histogram_csv,
)
from .tables import read_table, write_table
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
            "noise_model": {"enum": ["vhom", "auto"]},
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
            "reorder_window": {"type": "integer", "minimum": 0, "default": 0},
            "perp_tagfile": {"type": "string"},
            "seed": {"type": "integer", "minimum": 0, "default": 0},
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
            "seed": {"type": "integer", "minimum": 0, "default": 0},
        },
        "additionalProperties": False,
    },
    "fit": {
        "type": "object",
        "properties": {
            "model": {"enum": ["vhom", "auto"]},
            "g2_psi": {"type": "number", "minimum": 0},
            "fit_scale": {"type": "boolean", "default": False},
            "seed": {"type": "integer", "minimum": 0, "default": 0},
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


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_meta(outdir: Path, name: str, command: str, cfg: dict, inputs: list[str]) -> None:
    _write_json(
        outdir / name,
        {
            "command": command,
            "config": cfg,
            "inputs": inputs,
            "seed": cfg.get("seed", 0),
            "version": __version__,
        },
    )


def cmd_simulate(cfg: dict, outdir: Path) -> None:
    m = cfg["m"]
    g2_psi = cfg["g2_psi"]
    if cfg["r_min"] >= cfg["r_max"]:
        raise ConfigError("r_min must be smaller than r_max")
    model_name = cfg.get("noise_model", "vhom")
    if "noise_sigma_rel" in cfg and model_name == "vhom" and m == 0:
        raise ConfigError(
            "noise_sigma_rel scales the visibility curve, which is zero for m = 0: "
            "every y_err would be 0"
        )
    grid = np.geomspace(cfg["r_min"], cfg["r_max"], cfg["n_points"])
    v = vhom_model(grid, m, g2_psi)
    g2a = auto_model(grid, m, g2_psi)
    write_table(outdir / "sweep.csv", ("ratio", "v_hom", "g2_auto"), [grid, v, g2a])

    peaks = peak_analysis(g2_psi, m)
    checks = []
    mu_psi = cfg["mu_psi"]
    theta = math.acos(math.sqrt(m))
    for ratio in cfg["oracle_check_ratios"]:
        mu_alpha = ratio * mu_psi
        cutoff = required_cutoff(mu_alpha, cfg["tail_target"])
        source = SourceParams.from_moments(mu_psi, g2_psi)
        lo = LocalOscillator(mu_alpha=mu_alpha, theta=theta)
        bs = BeamSplitterSpec(0.5)
        state = mix_on_beam_splitter(source, lo, bs, cutoff)
        orthogonal = mix_on_beam_splitter(source, replace(lo, theta=math.pi / 2.0), bs, cutoff)
        g2_oracle = auto_correlation(state)
        v_oracle = visibility_from_states(state, orthogonal)
        v_formula = float(vhom_model(ratio, m, g2_psi))
        g2_formula = float(auto_model(ratio, m, g2_psi))
        checks.append(
            {
                "ratio": ratio,
                "mu_alpha": mu_alpha,
                "cutoff": cutoff,
                "tail_mass": state.report.tail_mass,
                "v_hom_analytic": v_formula,
                "v_hom_oracle": v_oracle,
                "g2_auto_analytic": g2_formula,
                "g2_auto_oracle": g2_oracle,
                "max_abs_diff": max(abs(v_oracle - v_formula), abs(g2_oracle - g2_formula)),
            }
        )
    _write_json(outdir / "report.json", {"peaks": asdict(peaks), "oracle_checks": checks})

    if "noise_sigma_rel" in cfg:
        model_y = v if model_name == "vhom" else g2a
        rng = np.random.default_rng(cfg["seed"])
        sigma = cfg["noise_sigma_rel"] * model_y
        noisy = model_y + rng.normal(0.0, 1.0, size=model_y.size) * sigma
        points = [
            SweepPoint(float(r), float(y), float(s)) for r, y, s in zip(grid, noisy, sigma)
        ]
        write_sweep(points, outdir / f"points_{model_name}.csv")

    _write_meta(outdir, "sweep.meta.json", "simulate", cfg, [])


def _cpus() -> int:
    """The CPUs this process may use."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _analyze_one(tagfile: str, cfg: dict, processes: int = 1):
    stream = parse_tags(tagfile, reorder_window=cfg["reorder_window"])
    if len(stream) == 0:
        raise DataFormatError(f"tag file {tagfile} contains no records")
    hist = build_histogram(
        stream,
        pair=tuple(cfg["pair"]),
        bin_width=cfg["bin_width"],
        tau_max=cfg["tau_max"],
        rep_period=cfg["rep_period"],
        processes=processes,
    )
    result = g2_zero(hist, window=cfg.get("window"), n_side_peaks=cfg["n_side_peaks"])
    return hist, result


def _write_analysis(outdir: Path, suffix: str, hist, result) -> None:
    write_histogram_csv(hist, outdir / f"histogram{suffix}.csv")
    _write_json(outdir / f"g2{suffix}.json", asdict(result))


def cmd_analyze(tagfile: str, cfg: dict, outdir: Path) -> None:
    # a config fault is reported before any tag is read or any worker starts
    check_binning(cfg["bin_width"], cfg["tau_max"])
    check_g2_params(
        cfg["rep_period"], cfg["bin_width"], cfg["tau_max"], cfg.get("window"), cfg["n_side_peaks"]
    )
    if "perp_tagfile" not in cfg:
        _write_analysis(outdir, "", *_analyze_one(tagfile, cfg, _cpus()))
        _write_meta(outdir, "analyze.meta.json", "analyze", cfg, [tagfile])
        return
    # the two runs are independent: the orthogonal one is analyzed meanwhile in a child
    # process.  That child sweeps alone: a child of its own would outlive it when it is
    # killed, and would hold its pipe open when it dies.  This process, with a CPU share
    # per file, splits the parallel file's sweep
    perp = cfg["perp_tagfile"]
    with in_child(f"analyzing {perp}", _analyze_one, perp, cfg) as perp_result:
        hist, result = _analyze_one(tagfile, cfg, max(1, _cpus() // 2))
        _write_analysis(outdir, "", hist, result)
        hist_perp, result_perp = perp_result()
    _write_analysis(outdir, "_perp", hist_perp, result_perp)
    v, err = visibility_from_histograms(result, result_perp)
    _write_json(
        outdir / "visibility.json",
        {"v_hom": v, "err": err, "g2_par": result.value, "g2_perp": result_perp.value},
    )
    _write_meta(outdir, "analyze.meta.json", "analyze", cfg, [tagfile, perp])


def _profile_factor(paths: list[str], cfg: dict, domain: str) -> float:
    a = read_profile(paths[0], kind=cfg["profile_kind"])
    b = read_profile(paths[1], kind=cfg["profile_kind"])
    for p in (a, b):
        if p.domain != domain:
            raise DataFormatError(
                f"profile declares domain {p.domain!r}, expected {domain!r}"
            )
    if domain == "frequency" and "spectral_filter" in cfg:
        filt = cfg["spectral_filter"]
        if cfg["profile_kind"] != "intensity":
            raise ConfigError("spectral_filter applies to intensity profiles only")
        a = spectral_filter(a, filt["center"], filt["half_width"])
        b = spectral_filter(b, filt["center"], filt["half_width"])
    if cfg["profile_kind"] == "intensity":
        a = amplitude_from_intensity(a)
        b = amplitude_from_intensity(b)
    return overlap_integral(a, b)


def cmd_overlap(cfg: dict, outdir: Path) -> None:
    factors: dict[str, float] = {}
    sources: dict[str, str] = {}
    inputs: list[str] = []
    if "time_profiles" in cfg:
        factors["m_t"] = _profile_factor(cfg["time_profiles"], cfg, "time")
        sources["m_t"] = "profiles"
        inputs += cfg["time_profiles"]
    if "frequency_profiles" in cfg:
        factors["m_f"] = _profile_factor(cfg["frequency_profiles"], cfg, "frequency")
        sources["m_f"] = "profiles"
        inputs += cfg["frequency_profiles"]
    fringe = None
    if "fringe_file" in cfg:
        samples = read_table(cfg["fringe_file"], [("value",)])[1][:, 0]
        fringe = fringe_visibility_overlap(samples, k_tail=cfg["k_tail"])
        factors["m_p"] = fringe.m_p
        sources["m_p"] = "fringe"
        inputs.append(cfg["fringe_file"])
    for key in ("m_t", "m_f", "m_p"):
        if key in cfg:
            factors[key] = cfg[key]
            sources[key] = "config"
        elif key not in factors:
            factors[key] = 1.0
            sources[key] = "default"
    breakdown = total_overlap(
        factors["m_t"], factors["m_f"], factors["m_p"], m_s=cfg["m_s"], m_psi=cfg.get("m_psi")
    )
    payload = {"breakdown": asdict(breakdown), "sources": sources}
    if fringe is not None:
        payload["fringe"] = asdict(fringe)
    _write_json(outdir / "overlap.json", payload)
    _write_meta(outdir, "overlap.meta.json", "overlap", cfg, inputs)


def cmd_fit(sweepfile: str, cfg: dict, outdir: Path) -> None:
    points = read_sweep(sweepfile)
    fit = fit_vhom_curve if cfg["model"] == "vhom" else fit_auto_curve
    result = fit(points, cfg["g2_psi"], fit_scale=cfg["fit_scale"])
    _write_json(outdir / "fit.json", result.to_dict())
    model = vhom_model if cfg["model"] == "vhom" else auto_model
    scale = result.scale_hat if result.scale_hat is not None else 1.0
    r, y, y_err = np.array([(p.ratio, p.y, p.y_err) for p in points], dtype=float).T
    y_model = model(scale * r, result.m_hat, cfg["g2_psi"])
    write_table(
        outdir / "residuals.csv",
        ("ratio", "y", "y_err", "model", "residual_sigma"),
        [r, y, y_err, y_model, (y - y_model) / y_err],
    )
    _write_meta(outdir, "fit.meta.json", "fit", cfg, [sweepfile])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonmix",
        description="Interference of a pulsed single-photon stream with a coherent field: "
        "simulation, tag analysis, mode overlaps and fits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config document")
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

    add_common(sub.add_parser("simulate", help="emit correlation sweep curves and oracle spot checks"))
    p_analyze = sub.add_parser("analyze", help="build correlation histograms and g2(0) from a tag file")
    p_analyze.add_argument("tagfile")
    add_common(p_analyze)
    add_common(sub.add_parser("overlap", help="compute per-degree-of-freedom mode overlaps"))
    p_fit = sub.add_parser("fit", help="fit a sweep CSV for the mean wavepacket overlap")
    p_fit.add_argument("sweepfile")
    add_common(p_fit)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.command, args.config, args.overrides, args.seed)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            cmd_simulate(cfg, outdir)
        elif args.command == "analyze":
            cmd_analyze(args.tagfile, cfg, outdir)
        elif args.command == "overlap":
            cmd_overlap(cfg, outdir)
        elif args.command == "fit":
            cmd_fit(args.sweepfile, cfg, outdir)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TruncationError, UndefinedCorrelationError, IllConditionedFitError) as exc:
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
