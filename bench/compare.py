"""Compare two sets of benchmark results, per workload and end-to-end metric.

    python3 bench/compare.py BASE_DIR CHANGE_DIR
    python3 bench/compare.py BASE_DIR        # one set: medians and spreads only

Each directory holds result files written by run.py (bench/results/ after a
series of runs, copied aside).  Only untraced results are read.  Runs of one
workload pair up by seed, or in seed order when the two sets share no seed.
For each workload and metric the table gives each side's median and
quartiles, the share of pairs the change won (ties count for neither side),
and a verdict:

- improved: the change won at least 9 in 10 pairs and the medians differ by
  more than the base's interquartile range;
- unresolved: the run-to-run spread (interquartile range over median) of
  either side exceeds the metric's bound, unless every run of the change is
  better than every run of the base;
- regressed: the change's median is worse than the base's by more than the
  bound fixed in BENCHMARK.json;
- unchanged: none of the above.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], change: list[float], bound: float, better: str,
            pairs: list[tuple[float, float]] | None = None) -> tuple[str, float]:
    """Verdict and share of pairs won, for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    if pairs is None:
        pairs = list(zip(base, change))
    wins = sum(sign * (b - a) < 0 for a, b in pairs) / len(pairs) if pairs else 0.0
    q1a, med_a, q3a = quartiles(base)
    med_b = quartiles(change)[1]
    if wins >= 0.9 and abs(med_b - med_a) > q3a - q1a:
        return "improved", wins
    all_better = max(sign * b for b in change) < min(sign * a for a in base)
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved", wins
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else sign * (med_b - med_a)
    if worse > bound:
        return "regressed", wins
    return "unchanged", wins


def load(directory: Path) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> metric -> value, from untraced result files."""
    out: dict[str, dict[int, dict[str, float]]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        data = json.loads(path.read_text())
        metrics = {name: m["value"] for name, m in data["metrics"].items()}
        out.setdefault(data["workload"], {})[data["seed"]] = metrics
    return out


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(Path(a)) for a in argv]
    base = sets[0]
    for workload in sorted(base):
        print(f"== {workload}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a_runs = base[workload]
            a = [r[name] for r in a_runs.values() if name in r]
            if not a:
                continue
            if len(sets) == 1:
                print(f"{name:12s} n={len(a):2d} median {_fmt(a)} {m['unit']}  "
                      f"spread {spread(a):.4f} (bound {bound})")
                continue
            b_runs = sets[1].get(workload, {})
            b = [r[name] for r in b_runs.values() if name in r]
            if not b:
                print(f"{name:12s} no runs in the change set")
                continue
            pairs = [(a_runs[s][name], b_runs[s][name]) for s in sorted(a_runs)
                     if s in b_runs and name in a_runs[s] and name in b_runs[s]]
            if not pairs:  # no seed in common: pair the runs in seed order
                pairs = list(zip(a, b))
            label, wins = verdict(a, b, bound, m["better"], pairs)
            print(f"{name:12s} base {_fmt(a)}  change {_fmt(b)} {m['unit']}  "
                  f"won {wins:.0%} of {len(pairs)} pairs  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
