"""`train`: the `refdoc train` path for nb, logreg, rf and gbt.

One operation is: load the bundled corpus, fit the pipeline with the
CLI's default configuration for one algorithm, write the model file. A
round is the operations of ROUND. op_ms is the time to train all four
models once, the sum over ALGOS of each one's median operation time over
the run; ops_per_s is operations completed per second spent in them; and
setup_s is the median of one set-up probe before each round. In a traced
run the rounds alternate untraced and traced, so the run measures its own
tracing overhead.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
import traceback

import checks
import common
import inputs
import tracer as tracing

ALGOS = ("nb", "logreg", "rf", "gbt")
# The cheap fits recur within a round, so that their medians rest on as
# many samples, spread over the run, as the machine's speed swings need.
ROUND = ("nb", "logreg", "rf", "nb", "logreg", "gbt", "nb", "rf", "logreg", "nb")
MIN_ROUNDS = 2  # the byte-identity check compares two fits per algorithm


def _prediction(predict_message, model, message):
    label, scores = predict_message(model, message)
    return label.value, tuple(sorted((c.value, s) for c, s in scores.items()))


def run(ctx):
    from refdoc import corpus, model_io, pipeline
    from refdoc.classifiers import ModelConfig

    out = common.Outcome()
    training, heldout = inputs.train_inputs(ctx.seed)
    out.inputs = {"train_corpus": training.fingerprint(),
                  "heldout": heldout.fingerprint()}

    tracer = tracing.Tracer() if ctx.trace else None
    fit_s = {a: [] for a in ALGOS}
    digests = {a: [] for a in ALGOS}
    rounds = {"untraced": [], "traced": []}
    setup = []
    models = {}
    model_bytes = 0
    start = time.perf_counter()
    while common.another_round(start, len(rounds["untraced"]) + len(rounds["traced"]),
                               ctx.seconds, MIN_ROUNDS):
        traced = tracer is not None and len(rounds["untraced"]) > len(rounds["traced"])
        if not ctx.trace:
            setup.append(common.probe_setup("train", ctx.seed))
        if traced:
            tracer.install()
        round_start = time.perf_counter()
        for algo in ROUND:
            path = ctx.workdir / f"{algo}.json"
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                dataset = corpus.load_corpus(inputs.CORPUS)
                model = pipeline.fit(dataset, ModelConfig(algorithm=algo))
                model_io.save_model(model, path,
                                    corpus_fingerprint=dataset.fingerprint())
            except Exception:  # a failed fit is counted; the run goes on
                traceback.print_exc(file=sys.stderr)
                out.failed += 1
                continue
            fit_s[algo].append(time.perf_counter() - t0)
            data = path.read_bytes()
            digests[algo].append(hashlib.sha256(data).hexdigest())
            if traced:
                model_bytes += len(data)
            models[algo] = (model, path)
        rounds["traced" if traced else "untraced"].append(
            time.perf_counter() - round_start)
        if traced:
            tracer.uninstall()
    if not ctx.trace:
        out.metrics["setup_s"] = statistics.median(setup)
        out.metrics["peak_rss_mb"] = common.peak_rss_mb()
        out.metrics["op_ms"] = 1e3 * sum(statistics.median(fit_s[a])
                                         for a in ALGOS)
        every = [t for a in ALGOS for t in fit_s[a]]
        out.metrics["ops_per_s"] = len(every) / sum(every)
    out.samples.update({f"fit_s.{a}": fit_s[a] for a in ALGOS})
    out.samples.update({"round_s": rounds, "setup_s": setup})

    baseline = checks.StemBaseline(inputs.RULES.read_text(encoding="utf-8"))
    truth = [r.label.value for r in heldout]
    messages = [r.message for r in heldout]
    base_f1 = checks.macro_f1(list(zip(truth, map(baseline.predict, messages))))
    out.samples["heldout_macro_f1"] = {"baseline": base_f1}
    out.problems += checks.check_models_identical(digests)
    for algo, (model, path) in models.items():
        mem = [_prediction(pipeline.predict_message, model, m) for m in messages]
        loaded = model_io.load_model(path)
        disk = [_prediction(pipeline.predict_message, loaded, m) for m in messages]
        out.problems += checks.check_reload(algo, mem, disk)
        f1 = checks.macro_f1([(t, p[0]) for t, p in zip(truth, mem)])
        out.samples["heldout_macro_f1"][algo] = f1
        out.problems += checks.check_beats_baseline(f"{algo} held-out", f1, base_f1)

    if tracer is not None:
        n = len(rounds["traced"])
        spans_path = common.RESULTS / f"spans-train-{ctx.seed}.json"
        tracer.dump(spans_path)
        out.layers = tracing.per_op(tracing.summarize(tracer.spans), n)
        out.derived = common.span_figures(
            out.layers, messages_per_op=len(training) * len(ROUND))
        out.derived["stage.outside.ms"] = common.outside_ms(
            tracer.spans, sum(rounds["traced"]), n)
        out.derived["model_io.model_bytes"] = model_bytes / n
        out.derived["trace.overhead_pct"] = common.overhead_pct(
            rounds["traced"], rounds["untraced"])
    return out

