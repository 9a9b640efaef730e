"""Spans recorded from outside the program, around calls into each layer.

The tracer replaces public functions of the refdoc modules where their
callers look them up: every module-level name bound to the original
function (so `from .terms import match_patterns` in the service is
covered), methods on their classes, and the members of the kernel
namespace that `refdoc.trees.get_kernels()` returns. Spans
(id, parent, name, start, end) are kept in memory per process and written
out at the end; self time is derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# (module, attribute, span name); a dotted attribute is Class.method.
TARGETS = (
    ("refdoc.corpus", "load_corpus", "corpus.load_corpus"),
    ("refdoc.textprep", "preprocess", "textprep.preprocess"),
    ("refdoc.features", "build_vocabulary", "features.build_vocabulary"),
    ("refdoc.features", "fisher_scores", "features.fisher_scores"),
    ("refdoc.features", "vectorize", "features.vectorize"),
    ("refdoc.features", "vectors_to_csr", "features.vectors_to_csr"),
    ("refdoc.classifiers", "train", "classifiers.train"),
    ("refdoc.classifiers", "predict", "classifiers.predict"),
    ("refdoc.classifiers", "dense_row", "classifiers.dense_row"),
    ("refdoc.pipeline", "fit", "pipeline.fit"),
    ("refdoc.pipeline", "predict_message", "pipeline.predict_message"),
    ("refdoc.evaluation", "cross_validate", "evaluation.cross_validate"),
    ("refdoc.evaluation", "fit_fold", "evaluation.fit_fold"),
    ("refdoc.naive_bayes", "NaiveBayes.fit", "naive_bayes.NaiveBayes.fit"),
    ("refdoc.logreg", "fit_binary", "logreg.fit_binary"),
    ("refdoc.logreg", "logreg_loss", "logreg.logreg_loss"),
    ("refdoc.logreg", "logreg_gradient", "logreg.logreg_gradient"),
    ("refdoc.trees", "fit_regression_tree", "trees.fit_regression_tree"),
    ("refdoc.trees", "BoostedClassifier.fit", "trees.BoostedClassifier.fit"),
    ("refdoc.trees", "ForestClassifier.fit", "trees.ForestClassifier.fit"),
    ("refdoc.trees", "BoostedClassifier.score_row", "trees.score_row"),
    ("refdoc.trees", "ForestClassifier.score_row", "trees.score_row"),
    ("refdoc.kernels", "build_sorted_csc", "kernels.build_sorted_csc"),
    ("refdoc.terms", "match_patterns", "terms.match_patterns"),
    ("refdoc.baseline", "keyword_predict", "baseline.keyword_predict"),
    ("refdoc.service", "predict_payload", "service.predict_payload"),
    ("refdoc.model_io", "save_model", "model_io.save_model"),
    ("refdoc.model_io", "load_model", "model_io.load_model"),
)

KERNELS = ("gbt_best_split", "gbt_partition", "rf_best_candidate",
           "rf_partition")

SPAN_NAMES = frozenset([name for _m, _a, name in TARGETS]
                       + [f"kernels.{k}" for k in KERNELS])


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    def _wrap(self, name, fn):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target; refdoc must be importable."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "refdoc" and not mod_name.startswith("refdoc."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, traced)
        namespace = importlib.import_module("refdoc.trees").get_kernels()
        for member in KERNELS:
            self._replace(namespace, member,
                          self._wrap(f"kernels.{member}", getattr(namespace, member)))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def load_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)]


def summarize(spans):
    """name -> {"calls", "ms", "self_ms"}; self time is a span's duration
    minus the durations of its direct children (which, on one thread,
    never overlap)."""
    child_time = {}
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for sid, _parent, name, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["ms"] += (end - start) * 1e3
        row["self_ms"] += (end - start - child_time.get(sid, 0.0)) * 1e3
    return out


def per_op(summary, n_ops):
    """The summary divided by the number of operations it covers."""
    return {name: {k: v / n_ops for k, v in row.items()}
            for name, row in summary.items()}
