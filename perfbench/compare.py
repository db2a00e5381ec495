#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the per-run records that ``run.py --results DIR``
writes.  For every workload and metric the tool prints the median and
quartiles of each side and the change of the median as a share of the base
median.  End-to-end metrics also get a verdict against their bound in
``BENCHMARK.json``:

- ``unresolved``: the quartile spread of either side, as a share of its
  median, is wider than the bound, so no change within the bound can be
  shown; reported as ``better`` only when every new run beats every base run;
- ``worse``: the new median is worse than the base median by more than the bound;
- ``ok``: otherwise.

Runs are compared only on identical inputs: a seed whose input SHA-256s
differ between the two sides is left out of both, and named.  Where traced
runs exist, the tool also prints the tracing overhead and layer shares.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def series(records: list[dict], workload: str, trace: int, skip: set = frozenset()) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in records:
        if r["workload"] == workload and r["trace"] == trace and r["seed"] not in skip:
            for name, m in r["result"]["metrics"].items():
                out.setdefault(name, []).append(m["value"])
    return out


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if max((b3 - b1) / bm, (n3 - n1) / nm) > bound:
        return "better (every run)" if all_better else "unresolved"
    return "worse" if sign * (nm - bm) / bm > bound else "ok"


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def compare(base: list[dict], new: list[dict], spec: dict) -> None:
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    workloads = sorted({r["workload"] for r in base + new})
    for w in workloads:
        print(f"== {w}")
        skip = differing_inputs(base, new, w)
        for trace in (0, 1):
            b, n = series(base, w, trace, skip), series(new, w, trace, skip)
            for name in sorted(set(b) & set(n)):
                if not any(b[name]) and not any(n[name]):
                    continue
                bq, nq = quartiles(b[name]), quartiles(n[name])
                delta = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
                line = (f"  {name:40s} base {_fmt(bq[1])} [{_fmt(bq[0])}, {_fmt(bq[2])}] n={len(b[name])}"
                        f"  new {_fmt(nq[1])} [{_fmt(nq[0])}, {_fmt(nq[2])}] n={len(n[name])}  {delta:+.1%}")
                if name in e2e:
                    m = e2e[name]
                    line += f"  bound {m['bound']:.0%}: {verdict(b[name], n[name], m['bound'], m['better'])}"
                print(line)
        for label, records in (("base", base), ("new", new)):
            overhead_report(records, w, label)


def differing_inputs(base: list[dict], new: list[dict], workload: str) -> set:
    """Seeds whose input files differ between the two sides; prints the count."""
    def digests(records):
        out: dict[int, set] = {}
        for r in records:
            if r["workload"] == workload:
                files = tuple(sorted((k, f.get("sha256")) for k, f in r["inputs"]["files"].items()))
                out.setdefault(r["seed"], set()).add(files)
        return out

    b, n = digests(base), digests(new)
    shared = sorted(set(b) & set(n))
    differ = {s for s in shared if b[s] != n[s] or len(b[s]) > 1}
    print(f"  inputs: {len(shared) - len(differ)} of {len(shared)} shared seeds byte-identical"
          + (f"; no verdict on seeds {sorted(differ)}, whose inputs differ" if differ else ""))
    return differ


def overhead_report(records: list[dict], workload: str, label: str) -> None:
    """Traced against untraced in-process passes of the same runs."""
    traced = series(records, workload, 1)
    if not traced:
        return
    med = statistics.median
    in_proc, untraced = med(traced["bench.in_process_s"]), med(traced["bench.untraced_s"])
    print(f"  {label}: traced in-process {in_proc:.3f} s vs untraced {untraced:.3f} s "
          f"(overhead {med(traced['bench.trace_overhead']):+.1%}, {len(traced['bench.in_process_s'])} traced runs)")
    shares: dict[str, list[float]] = {}
    for r in records:
        if r["workload"] == workload and r["trace"] == 1:
            for layer, share in r["extra"]["layer_share"].items():
                shares.setdefault(layer, []).append(share)
    print("    layer share of traced time: " + ", ".join(f"{k} {med(v):.1%}" for k, v in sorted(shares.items())))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    compare(load(Path(argv[0])), load(Path(argv[1])), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
