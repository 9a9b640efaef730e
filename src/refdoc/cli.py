"""Command-line entry point.

Exit codes: 0 on success, 1 on usage errors (synopsis goes to stderr),
2 on data, model or operating-system errors. The default model path for
predict/serve comes from the REFDOC_MODEL environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import evaluation, inconsistency, model_io, pipeline, service
from .baseline import keyword_predict
from .classifiers import ALGORITHMS, ModelConfig
from .corpus import class_distribution, load_corpus, parse_label, \
    save_corpus, stratified_sample
from .errors import RefdocError
from .terms import frequent_ngrams


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_corpus_arg(p):
    p.add_argument("corpus", help="corpus file (jsonl or csv)")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")


def _add_pipeline_args(p):
    p.add_argument("--algo", choices=ALGORITHMS, default="gbt")
    p.add_argument("--ngram", type=int, default=2,
                   help="largest n-gram length (default 2)")
    p.add_argument("--features", type=int, default=5000,
                   help="number of Fisher-selected features (default 5000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--include-none", action="store_true",
                   help="train with the None class (needs None-labeled rows)")


def build_parser() -> _Parser:
    parser = _Parser(prog="refdoc",
                     description="Classify the refactoring type documented "
                                 "in a commit message")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("ingest", help="validate a corpus and show its class counts")
    _add_corpus_arg(p)
    p.add_argument("--out", help="rewrite the validated corpus as JSONL")

    p = sub.add_parser("sample", help="draw a balanced stratified sample")
    _add_corpus_arg(p)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model and write a model file")
    _add_corpus_arg(p)
    _add_pipeline_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="stratified cross-validation report")
    _add_corpus_arg(p)
    _add_pipeline_args(p)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--json", dest="json_out", help="also write the report as JSON")

    p = sub.add_parser("predict", help="predict one message (arg or stdin)")
    p.add_argument("message", nargs="?", help="message text; stdin when omitted")
    p.add_argument("--model", default=None,
                   help="model file (default: $REFDOC_MODEL)")
    p.add_argument("--scores", action="store_true",
                   help="print the full score map as JSON")

    p = sub.add_parser("baseline", help="keyword-stem baseline")
    p.add_argument("message", nargs="?",
                   help="message text; use --corpus for a full evaluation")
    p.add_argument("--corpus", help="evaluate the baseline over a labeled corpus")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    p = sub.add_parser("terms", help="frequent per-class n-grams")
    _add_corpus_arg(p)
    p.add_argument("--class", dest="label", required=True,
                   help="refactoring type, e.g. RenameMethod")
    p.add_argument("--n", type=int, choices=(2, 3), default=2)
    p.add_argument("--top", type=int, default=20)

    p = sub.add_parser("inconsistency",
                       help="detector-vs-documentation agreement report")
    _add_corpus_arg(p)
    p.add_argument("--model", default=None,
                   help="None-capable model file (default: $REFDOC_MODEL)")
    p.add_argument("--json", dest="json_out")

    p = sub.add_parser("serve", help="run the prediction HTTP service")
    p.add_argument("--model", default=None)
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--host", default="127.0.0.1")

    return parser


def _model_path(arg):
    path = arg or os.environ.get("REFDOC_MODEL")
    if not path:
        raise RefdocError("no model file: pass --model or set REFDOC_MODEL")
    return path


def _read_message(arg):
    if arg is not None:
        return arg
    return sys.stdin.read().strip()


def _config_from_args(args) -> ModelConfig:
    return ModelConfig(algorithm=args.algo, n_max=args.ngram,
                       k_select=args.features, seed=args.seed,
                       include_none=args.include_none)


def _cmd_ingest(args):
    dataset = load_corpus(args.corpus, args.format)
    counts = class_distribution(dataset)
    print(f"{len(dataset)} records, {len(counts)} labeled classes")
    for label in sorted(counts, key=lambda t: t.value):
        print(f"  {label.value:<16} {counts[label]}")
    unlabeled = len(dataset) - sum(counts.values())
    if unlabeled:
        print(f"  (unlabeled)      {unlabeled}")
    if args.out:
        save_corpus(dataset, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_sample(args):
    dataset = load_corpus(args.corpus, args.format)
    sample = stratified_sample(dataset, args.per_class, args.seed)
    save_corpus(sample, args.out)
    print(f"wrote {len(sample)} records to {args.out}")
    return 0


def _cmd_train(args):
    dataset = load_corpus(args.corpus, args.format)
    config = _config_from_args(args)
    model = pipeline.fit(dataset, config)
    model_io.save_model(model, args.out,
                        corpus_fingerprint=dataset.fingerprint())
    print(f"wrote {args.out}")
    return 0


def _cmd_evaluate(args):
    dataset = load_corpus(args.corpus, args.format)
    config = _config_from_args(args)
    report = evaluation.cross_validate(dataset, config, folds=args.folds,
                                       seed=args.seed)
    print(report.format_table())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0


def _cmd_predict(args):
    model = model_io.load_model(_model_path(args.model))
    message = _read_message(args.message)
    if not message:
        raise RefdocError("empty message")
    label, scores = pipeline.predict_message(model, message)
    print(label.value)
    if args.scores:
        print(json.dumps({cls.value: s for cls, s in scores.items()},
                         sort_keys=True))
    return 0


def _cmd_baseline(args):
    if args.corpus:
        dataset = load_corpus(args.corpus, args.format)
        report = evaluation.baseline_report(dataset)
        print(report.format_table())
        return 0
    message = _read_message(args.message)
    label, matches = keyword_predict(message)
    print(label.value if label is not None else "no-match")
    if matches:
        print("matches: " + ", ".join(m.value for m in matches))
    return 0


def _cmd_terms(args):
    dataset = load_corpus(args.corpus, args.format)
    table = frequent_ngrams(dataset, parse_label(args.label), args.n, args.top)
    for gram, freq in table.rows:
        print(f"{freq:>6}  {' '.join(gram)}")
    return 0


def _cmd_inconsistency(args):
    dataset = load_corpus(args.corpus, args.format)
    model = model_io.load_model(_model_path(args.model))
    report = inconsistency.inconsistency_report(dataset, model)
    print(inconsistency.format_report(report))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(inconsistency.report_to_json(report) + "\n")
    return 0


def _cmd_serve(args):
    model = model_io.load_model(_model_path(args.model))
    server = service.PredictServer(model, args.port, args.host)
    try:
        host, port = server.server_address
        print(f"serving on {host}:{port}", file=sys.stderr)
        server.serve_forever()
    finally:
        server.server_close()
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "sample": _cmd_sample,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "baseline": _cmd_baseline,
    "terms": _cmd_terms,
    "inconsistency": _cmd_inconsistency,
    "serve": _cmd_serve,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (RefdocError, OSError, OverflowError, ValueError) as exc:
        print(f"refdoc: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
