"""CV and the inconsistency report share pipeline.fit_counts and
predict_counts, and each message is counted once."""

from refdoc import evaluation, features, inconsistency, pipeline, workers
from refdoc.classifiers import ModelConfig
from refdoc.textprep import preprocess


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_cv_and_inconsistency_go_through_the_pipeline(
        monkeypatch, small_dataset, none_dataset, none_model):
    # one process, so that the counts also see every fold's work
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    fits = _count_calls(monkeypatch, pipeline, "fit_counts")
    predictions = _count_calls(monkeypatch, pipeline, "predict_counts")
    vocabularies = _count_calls(monkeypatch, features, "build_vocabulary")
    weighings = _count_calls(monkeypatch, features, "vectorize")
    evaluation.cross_validate(small_dataset, ModelConfig(algorithm="nb"),
                              folds=3)
    assert len(fits) == len(predictions) == len(vocabularies) == 3
    # one batch per fold, together every message once
    assert sum(len(doc_counts) for _, doc_counts in predictions) \
        == len(small_dataset)
    # per fold, one weighing of the training rows and one of the test rows
    assert len(weighings) == 2 * 3

    predictions.clear()
    report = inconsistency.inconsistency_report(none_dataset, none_model)
    labelled = sum(1 for r in none_dataset if r.label is not None)
    assert len(predictions) == 1
    assert len(predictions[0][1]) == labelled == report["total"]


def test_fit_counts_each_document_once(monkeypatch, small_dataset):
    # count_ngrams calls extract_ngrams, so each records every n-gram pass
    counted = _count_calls(monkeypatch, features, "count_ngrams")
    extracted = _count_calls(monkeypatch, features, "extract_ngrams")
    pipeline.fit(small_dataset, ModelConfig(algorithm="nb"))
    docs = [preprocess(r.message) for r in small_dataset]
    assert [args[0] for args in counted] == docs
    assert [args[0] for args in extracted] == docs
