"""`cv-nb`: 10-fold cross-validation of naive Bayes on 5,004 messages.

One round is one evaluation.cross_validate call on
generate_corpus(seed, per_class=834); op_ms is its median over the run,
ops_per_s the cross-validations completed per second spent in them, and
setup_s the median of one set-up probe before each round.
Featurization dominates and the tree kernels never run, so this is the
no-change side of every tree optimisation. In a traced run the rounds
alternate untraced and traced.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback

import checks
import common
import inputs
import tracer as tracing

FOLDS = 10


def run(ctx):
    from refdoc import evaluation
    from refdoc.classifiers import ModelConfig

    out = common.Outcome()
    dataset = inputs.cv_inputs(ctx.seed)
    out.inputs = {"cv_corpus": dataset.fingerprint()}
    config = ModelConfig(algorithm="nb", seed=ctx.seed)

    tracer = tracing.Tracer() if ctx.trace else None
    rounds = {"untraced": [], "traced": []}
    reports = []
    setup = []
    min_rounds = 2 if tracer is not None else 1
    start = time.perf_counter()
    while common.another_round(start, out.attempted, ctx.seconds, min_rounds):
        traced = tracer is not None and len(rounds["untraced"]) > len(rounds["traced"])
        if not ctx.trace:
            setup.append(common.probe_setup("cv-nb", ctx.seed))
        if traced:
            tracer.install()
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            report = evaluation.cross_validate(dataset, config, folds=FOLDS,
                                               seed=ctx.seed)
        except Exception:  # a failed round is counted; the run goes on
            traceback.print_exc(file=sys.stderr)
            out.failed += 1
            continue
        finally:
            if traced:
                tracer.uninstall()
        rounds["traced" if traced else "untraced"].append(time.perf_counter() - t0)
        reports.append(json.loads(report.to_json()))
    if not ctx.trace:
        out.metrics["setup_s"] = statistics.median(setup)
        out.metrics["op_ms"] = 1e3 * statistics.median(rounds["untraced"])
        out.metrics["ops_per_s"] = (len(rounds["untraced"])
                                    / sum(rounds["untraced"]))
        out.metrics["peak_rss_mb"] = common.peak_rss_mb()
    out.samples.update({"op_s": rounds, "setup_s": setup})

    baseline = checks.StemBaseline(inputs.RULES.read_text(encoding="utf-8"))
    base_f1 = checks.macro_f1([(r.label.value, baseline.predict(r.message))
                               for r in dataset])
    out.samples["macro_f1"] = {"baseline": base_f1,
                               "nb": [r["macro"]["f_measure"] for r in reports]}
    for report in reports:
        out.problems += checks.check_cv_report(
            report, len(dataset), inputs.CV_PER_CLASS, base_f1)
    if any(r["matrix"] != reports[0]["matrix"] for r in reports):
        out.problems.append("cross-validation with one seed gave different matrices")

    if tracer is not None:
        n = len(rounds["traced"])
        tracer.dump(common.RESULTS / f"spans-cv-nb-{ctx.seed}.json")
        out.layers = tracing.per_op(tracing.summarize(tracer.spans), n)
        out.derived = common.span_figures(out.layers,
                                          messages_per_op=len(dataset))
        out.derived["stage.outside.ms"] = common.outside_ms(
            tracer.spans, sum(rounds["traced"]), n)
        out.derived["trace.overhead_pct"] = common.overhead_pct(
            rounds["traced"], rounds["untraced"])
    return out
