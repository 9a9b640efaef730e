"""What the workloads share: their context, their outcome, set-up probes,
peak memory and the figures derived from a span summary."""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workdir: Path


@dataclass
class Outcome:
    """What a workload hands back: counts, problems, metrics, evidence."""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)     # end-to-end, by name
    layers: dict = field(default_factory=dict)      # span summary per op
    derived: dict = field(default_factory=dict)     # per-layer ratios etc.
    inputs: dict = field(default_factory=dict)      # name -> fingerprint
    samples: dict = field(default_factory=dict)


def another_round(start, done, seconds, minimum):
    """Whether a run that began at `start` and has done `done` rounds
    starts one more: always below `minimum`, and otherwise only while it
    is expected to end within half a round of `seconds`, so that a run
    lasts about `seconds` whatever the length of its rounds."""
    if done < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


def probe_setup(workload, seed):
    """Wall time of a fresh process that imports refdoc and builds the
    workload's inputs. Runs probe between rounds, so that the median of
    their probes spans the run like the operations do."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "probe.py"), workload,
                    str(seed)], check=True, timeout=120)
    return time.perf_counter() - start


def peak_rss_mb(status_path="/proc/self/status"):
    """VmHWM of a process in MiB."""
    with open(status_path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status_path}")


# The stage of each span, by the module its name starts with. Every
# workload enters every stage, so a stage's time is never a constant 0.
STAGES = {
    "text": ("textprep", "features", "terms", "baseline"),
    "model": ("classifiers", "naive_bayes", "logreg", "trees", "kernels"),
    "glue": ("corpus", "pipeline", "evaluation", "service", "model_io"),
}

# Per-layer metrics that are not a span's calls, ms or self_ms.
DERIVED = frozenset({
    "stage.text.ms", "stage.model.ms", "stage.glue.ms", "stage.outside.ms",
    "kernels.gbt_split_yield", "logreg.loss_per_gradient",
    "textprep.preprocess.calls_per_msg", "model_io.model_bytes",
    "trace.overhead_pct",
})


def stage_ms(layers):
    """stage.<stage>.ms: the self time of the stage's spans, per op."""
    out = {}
    for stage, modules in STAGES.items():
        out[f"stage.{stage}.ms"] = sum(
            row["self_ms"] for name, row in layers.items()
            if name.split(".", 1)[0] in modules)
    return out


def outside_ms(spans, op_seconds, n_ops):
    """Wall time of the traced operations spent outside every span, per
    op: op_seconds is their summed wall time."""
    inside = sum(end - start for _i, parent, _n, start, end in spans
                 if parent < 0)
    return (op_seconds - inside) * 1e3 / n_ops


def ratio(a, b):
    return a / b if b else 0.0


def span_figures(layers, messages_per_op):
    """The derived per-layer figures every workload reports: stage times
    and call ratios."""
    def calls(name):
        return layers.get(name, {}).get("calls", 0.0)
    return {
        **stage_ms(layers),
        "kernels.gbt_split_yield": ratio(calls("kernels.gbt_partition"),
                                         calls("kernels.gbt_best_split")),
        "logreg.loss_per_gradient": ratio(calls("logreg.logreg_loss"),
                                          calls("logreg.logreg_gradient")),
        "textprep.preprocess.calls_per_msg": ratio(calls("textprep.preprocess"),
                                                   messages_per_op),
    }


def overhead_pct(traced, untraced):
    """Tracing overhead in percent: the median over rounds of a traced
    round's time against the untraced round just before it, so that drift
    in machine speed over the run cancels."""
    return (statistics.median(t / u for t, u in zip(traced, untraced)) - 1) * 100
