#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

The reference histogram is compared with a naive pair loop on small
adversarial streams, and the tag generator's exact moments with the closed
forms.  Then files that ``photonmix analyze`` and ``photonmix simulate``
write must pass every check, and each injected fault must be reported as a
failure: a histogram with one count off by one, an oracle value off by
1e-5, a g2 value off by 1e-6 (relative), a peak identity off by 1e-8 and a
fit five errors from the truth.
Exits 0 only when all of that holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tagsource  # noqa: E402
from checks import (  # noqa: E402
    auto_g2_zero,
    check_fit,
    check_g2,
    check_histogram,
    check_oracle_report,
    cross_g2_zero,
    g2_from_counts,
    reference_histogram,
)
from run import G2_PSI, ORACLE_CFG, load_program  # noqa: E402


def naive_histogram(channels, times, pair, bin_width, tau_max):
    k_max = tau_max // bin_width
    counts = np.zeros(2 * k_max + 1, dtype=np.int64)
    for i in np.flatnonzero(channels == pair[0]):
        for j in np.flatnonzero(channels == pair[1]):
            if i == j:
                continue
            k = (2 * int(times[j] - times[i]) + bin_width) // (2 * bin_width)
            if abs(k) <= k_max:
                counts[k + k_max] += 1
    return counts


class Outcome:
    def __init__(self):
        self.bad = 0

    def expect(self, label: str, problems: list[str], should_fail: bool) -> None:
        ok = bool(problems) == should_fail
        self.bad += not ok
        state = "reported" if problems else "passed"
        print(f"{'ok ' if ok else 'BAD'} {label}: {state}" + (f" ({problems[0]})" if problems else ""))


def reference_cases(out: Outcome) -> None:
    rng = np.random.default_rng(3)
    edge = np.array([0, 0, 0, 10, 12, 25, 30, 37, 50, 50, 62, 100, 100, 150], dtype=np.int64)
    cases = [(np.array([1, 2, 1, 2, 2, 1, 2, 1, 2, 1, 2, 1, 2, 2]), edge)]
    for _ in range(20):
        n = int(rng.integers(2, 60))
        cases.append((rng.integers(1, 3, size=n), np.sort(rng.integers(0, 400, size=n))))
    for channels, times in cases:
        for pair in ((1, 2), (2, 1), (1, 1), (2, 2)):
            for width, tau in ((25, 100), (10, 50), (7, 49), (1, 30)):
                ref = reference_histogram(channels, times, pair, width, tau)
                if not np.array_equal(ref, naive_histogram(channels, times, pair, width, tau)):
                    out.expect(f"reference vs naive loop, pair {pair} width {width}", ["mismatch"], False)
                    return
    out.expect(f"reference equals naive pair loop on {len(cases) * 16} cases", [], False)


def generator_cases(out: Outcome) -> None:
    """The generator's exact moments equal the closed forms, with and without interference."""
    for mu_psi, mu_alpha in ((0.5, 0.2), (1.0, 2.0), (0.3, 3.0)):
        for m in (ORACLE_CFG["m"], 0.0):
            joint = tagsource.interfering_distribution(mu_psi, G2_PSI, m * mu_alpha)
            lam = 0.5 * (1.0 - m) * mu_alpha
            truth = tagsource.truth(joint, lam, lam)
            expected = {"g2_cross": cross_g2_zero(mu_alpha, mu_psi, G2_PSI, m),
                        "g2_auto_2": auto_g2_zero(mu_alpha, mu_psi, G2_PSI, m),
                        "g2_auto_3": auto_g2_zero(mu_alpha, mu_psi, G2_PSI, m)}
            problems = [f"{k} {truth[k]} vs {v}" for k, v in expected.items() if abs(truth[k] - v) > 1e-12]
            out.expect(f"generator moments, mu_psi {mu_psi} mu_alpha {mu_alpha} m {m}", problems, False)


def analyze(lib, tagfile: Path, outdir: Path, pair, width: int, tau: int, rep: int) -> None:
    code = lib.cli.main(["analyze", str(tagfile), "--out", str(outdir), "--set", f"pair={list(pair)}",
                         "--set", f"bin_width={width}", "--set", f"tau_max={tau}", "--set", f"rep_period={rep}"])
    if code != 0:
        raise SystemExit(f"selftest: photonmix analyze exited {code}")


def tag_cases(out: Outcome, lib, work: Path) -> None:
    rep, width, tau = 1000, 10, 6000
    channels, times, _ = tagsource.displaced_fock_tags(0.5, G2_PSI, 0.3, ORACLE_CFG["m"], 4000, rep, 40.0, seed=5)
    tagfile = work / "tags.csv"
    tagsource.write_tags_csv(channels, times, tagfile)
    for pair in ((2, 3), (2, 2)):
        outdir = work / f"analyze_{pair[0]}{pair[1]}"
        analyze(lib, tagfile, outdir, pair, width, tau, rep)
        path = outdir / "histogram.csv"
        ref = reference_histogram(channels, times, pair, width, tau)
        out.expect(f"program histogram {pair}", check_histogram(path, ref, width, tau), False)
        lines = path.read_text().splitlines()
        k = len(lines) // 2
        tau_k, count_k = lines[k].split(",")
        lines[k] = f"{tau_k},{int(count_k) + 1}"
        bad = work / "perturbed.csv"
        bad.write_text("\n".join(lines) + "\n")
        out.expect(f"histogram {pair} with one count off by one", check_histogram(bad, ref, width, tau), True)

        g2 = json.loads((outdir / "g2.json").read_text())
        value, err = g2_from_counts(ref, width, tau, rep)
        out.expect(f"program g2 {pair}", check_g2(g2, (value, err), value, "g2"), False)
        out.expect(f"g2 {pair} 6 sigma from truth", check_g2(g2, (value, err), value + 6 * err, "g2"), True)
        g2["value"] *= 1 + 1e-6
        out.expect(f"g2 {pair} off by 1e-6 relative", check_g2(g2, (value, err), value, "g2"), True)


def oracle_cases(out: Outcome, lib, work: Path) -> None:
    cfg = dict(ORACLE_CFG, oracle_check_ratios=[0.2, 2.0], seed=1)
    config = work / "oracle.json"
    config.write_text(json.dumps(cfg))
    code = lib.cli.main(["simulate", "--config", str(config), "--out", str(work / "sim")])
    if code != 0:
        raise SystemExit(f"selftest: photonmix simulate exited {code}")
    report = json.loads((work / "sim" / "report.json").read_text())

    out.expect("oracle report from the program", check_oracle_report(report, cfg), False)
    for key in ("v_hom_oracle", "g2_auto_oracle"):
        bad = copy.deepcopy(report)
        bad["oracle_checks"][1][key] += 1e-5
        out.expect(f"oracle {key} off by 1e-5", check_oracle_report(bad, cfg), True)
    bad = copy.deepcopy(report)
    bad["peaks"]["v_max"] += 1e-8
    out.expect("peak identity v_max off by 1e-8", check_oracle_report(bad, cfg), True)
    fit = {"M_hat": cfg["m"] + 0.004, "M_err": 0.002, "n_points": cfg["n_points"]}
    out.expect("fit 2 errors from M", check_fit(fit, cfg["m"], cfg["n_points"]), False)
    fit["M_hat"] = cfg["m"] + 0.010
    out.expect("fit 5 errors from M", check_fit(fit, cfg["m"], cfg["n_points"]), True)


def main() -> int:
    lib = load_program()
    work = Path(__file__).resolve().parent / ".work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out = Outcome()
    try:
        reference_cases(out)
        generator_cases(out)
        tag_cases(out, lib, work)
        oracle_cases(out, lib, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest: {'all checks behave' if out.bad == 0 else f'{out.bad} checks misbehave'}")
    return 1 if out.bad else 0


if __name__ == "__main__":
    sys.exit(main())
