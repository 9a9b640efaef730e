"""Order statistics, the percentile rule, and the compare rows.

Percentiles are nearest-rank over integer percents, so the rank of a
percentile is exact and the number of samples beyond it is known.
"""

from __future__ import annotations

import statistics

MIN_BEYOND = 10   # samples a reported tail percentile needs beyond it
MIN_FOR_TAIL = 40  # with fewer samples only the median is reported


def rank(n: int, pct: int) -> int:
    """1-based nearest rank of the pct-th percentile of n samples."""
    return max(1, (pct * n + 99) // 100)


def beyond(n: int, pct: int) -> int:
    """Samples strictly after the pct-th percentile's rank."""
    return n - rank(n, pct)


def reportable(n: int, pct: int) -> bool:
    """The median needs one sample; a tail percentile needs at least
    MIN_FOR_TAIL samples and MIN_BEYOND of them beyond it."""
    if pct == 50:
        return n >= 1
    return n >= MIN_FOR_TAIL and beyond(n, pct) >= MIN_BEYOND


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile; refuses one the percentile rule forbids."""
    n = len(values)
    if not reportable(n, pct):
        raise ValueError(f"p{pct} of {n} samples has fewer than "
                         f"{MIN_BEYOND} samples beyond it")
    return sorted(values)[rank(n, pct) - 1]


def tail(values, candidates=(99, 98, 95, 90)):
    """(pct, value) of the highest candidate percentile the rule allows,
    or None when none is."""
    for pct in candidates:
        if reportable(len(values), pct):
            return pct, percentile(values, pct)
    return None


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 below 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def _worse_share(base: float, new: float, better: str) -> float:
    """How much worse new is than base, as a share of base (<0: better)."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare_rows(base_runs, new_runs, specs):
    """One row per (workload, metric) present on both sides.

    base_runs/new_runs: result records (dicts with "workload", "seed",
    "inputs" and "metrics"). specs: metric name -> spec dict from
    BENCHMARK.json, with "better" and, for end-to-end metrics, "bound".

    verdict is "inputs differ" when a seed of the workload has different
    input fingerprints on the two sides; "unresolved" when either side's
    spread exceeds the bound, unless every new run is better than every
    base run ("better"); otherwise "inside" when the change is within the
    bound, else "worse" or "better". Metrics without a bound get "-".
    """
    rows = []
    for workload in sorted({r["workload"] for r in base_runs}
                           & {r["workload"] for r in new_runs}):
        base = [r for r in base_runs if r["workload"] == workload]
        new = [r for r in new_runs if r["workload"] == workload]
        base_inputs = {r["seed"]: r["inputs"] for r in base}
        same_inputs = all(base_inputs.get(r["seed"], r["inputs"]) == r["inputs"]
                          for r in new)
        names = sorted({m for r in base for m in r["metrics"]}
                       & {m for r in new for m in r["metrics"]})
        for name in names:
            spec = specs.get(name)
            if spec is None:
                continue
            b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
            bm, nm = median(b), median(n)
            bound = spec.get("bound")
            if not same_inputs:
                verdict = "inputs differ"
            elif bound is None or bm == 0:
                verdict = "-"
            else:
                worse = _worse_share(bm, nm, spec["better"])
                all_better = all(_worse_share(x, y, spec["better"]) < 0
                                 for x in b for y in n)
                if max(spread(b), spread(n)) > bound:
                    verdict = "better" if all_better else "unresolved"
                elif worse > bound:
                    verdict = "worse"
                elif worse < -bound:
                    verdict = "better"
                else:
                    verdict = "inside"
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "base_median": bm, "new_median": nm,
                "ratio": nm / bm if bm else float("nan"),
                "base_n": len(b), "new_n": len(n),
                "bound": bound, "verdict": verdict,
            })
    return rows


def format_rows(rows) -> str:
    """Fixed-width table, one line per row, ratio given as new/base."""
    head = ("workload", "metric", "unit", "base median", "new median",
            "new/base", "runs", "bound", "verdict")
    lines = [head]
    for r in rows:
        lines.append((
            r["workload"], r["metric"], r["unit"],
            f"{r['base_median']:.6g}", f"{r['new_median']:.6g}",
            f"{r['ratio']:.3f}", f"{r['base_n']}/{r['new_n']}",
            "-" if r["bound"] is None else f"{r['bound']:.2f}",
            r["verdict"],
        ))
    widths = [max(len(row[i]) for row in lines) for i in range(len(head))]
    return "\n".join("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
                     for row in lines)
