"""Versioned JSON model files.

The format is structured text rather than binary so model files diff
cleanly and can be reproduced elsewhere. Serialization is deterministic:
keys are sorted, floats round-trip exactly through repr, and the creation
timestamp honors SOURCE_DATE_EPOCH so identical training runs produce
byte-identical files.
"""

from __future__ import annotations

import json
import operator
import os
import time

import numpy as np

from .classifiers import ModelConfig, TrainedModel, make_estimator
from .corpus import PRNG_NAME, parse_label, present_types
from .errors import ModelFormatError, UnknownLabel
from .features import Vocabulary

FORMAT_VERSION = 1

_NOTES = {
    "tfidf": "tf = raw count; idf = ln((1+N)/(1+df)) + 1; L2-normalized",
    "fisher": "scored on unnormalized count*idf values, eps = 1e-12",
    "logreg": "L-BFGS (10 pairs) with Armijo or approximate-Wolfe "
              "backtracking; the published L1 term is dropped to keep the "
              "objective smooth",
    "ova_scores": "rf scores are vote fractions; gbt scores are sigmoid margins",
}


def _timestamp():
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def _vocab_to_dict(vocab: Vocabulary):
    return {
        "ngrams": [" ".join(g) for g in vocab.ngrams],
        "doc_freq": [int(x) for x in vocab.doc_freq],
        "idf": [float(x) for x in vocab.idf],
        "fisher": [float(x) for x in vocab.fisher],
        "selected": [int(x) for x in vocab.selected],
        "n_max": vocab.n_max,
        "k_select": vocab.k_select,
    }


def _integer(x):
    """x if it is an integer; as for hyperparameters, a bool is not one."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, not {x!r}")
    return operator.index(x)  # 2.7 and "2" raise rather than read as 2


def _vocab_from_dict(d):
    return Vocabulary(
        ngrams=[tuple(s.split(" ")) for s in d["ngrams"]],
        doc_freq=np.asarray([_integer(x) for x in d["doc_freq"]],
                            dtype=np.int64),
        idf=np.asarray(d["idf"], dtype=np.float64),
        fisher=np.asarray(d["fisher"], dtype=np.float64),
        selected=np.asarray([_integer(f) for f in d["selected"]],
                            dtype=np.int64),
        n_max=_integer(d["n_max"]),
        k_select=_integer(d["k_select"]),
    )


def save_model(model: TrainedModel, path, corpus_fingerprint=None) -> None:
    config = model.config
    payload = {
        "format_version": FORMAT_VERSION,
        "algorithm": config.algorithm,
        "hyperparameters": config.hyperparameters,
        "pipeline": {"n_max": config.n_max, "k_select": config.k_select,
                     "seed": config.seed},
        "include_none": config.include_none,
        "class_order": [c.value for c in model.class_order],
        "vocabulary": _vocab_to_dict(model.vocab),
        "parameters": model.estimator.to_dict(),
        "metadata": {
            "seed": config.seed,
            "prng": PRNG_NAME,
            "corpus_fingerprint": corpus_fingerprint,
            "created_at": _timestamp(),
            "notes": _NOTES,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    """Read a model file; any structural problem raises ModelFormatError."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"not a model file: {exc.msg}") from None
        except RecursionError:
            raise ModelFormatError("not a model file: nested too deeply") \
                from None
        except UnicodeDecodeError:
            raise ModelFormatError("not a model file: not UTF-8 text") \
                from None
    if not isinstance(payload, dict):
        raise ModelFormatError("not a model file: expected a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"model format version {version!r} not supported "
            f"(expected {FORMAT_VERSION})")
    try:
        return _model_from_payload(payload)
    except KeyError as exc:
        raise ModelFormatError(f"model file lacks field {exc}") from None
    except (TypeError, AttributeError, ValueError, OverflowError,
            UnknownLabel) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from None


def _model_from_payload(payload) -> TrainedModel:
    config = ModelConfig(
        algorithm=payload["algorithm"],
        hyperparameters=payload["hyperparameters"],
        n_max=payload["pipeline"]["n_max"],
        k_select=payload["pipeline"]["k_select"],
        seed=payload["pipeline"]["seed"],
        include_none=payload["include_none"],
    )
    vocab = _vocab_from_dict(payload["vocabulary"])
    for name in ("n_max", "k_select"):
        if getattr(vocab, name) != getattr(config, name):
            raise ModelFormatError(
                f"vocabulary {name} {getattr(vocab, name)} differs from "
                f"the pipeline's {getattr(config, name)}")
    class_order = tuple(parse_label(s) for s in payload["class_order"])
    if len(class_order) < 2 or class_order != present_types(class_order):
        raise ModelFormatError("class_order must list two or more distinct "
                               "classes in canonical order")
    estimator = make_estimator(config).load_dict(
        payload["parameters"], len(class_order), vocab.n_selected)
    return TrainedModel(config=config, vocab=vocab, class_order=class_order,
                        estimator=estimator)
