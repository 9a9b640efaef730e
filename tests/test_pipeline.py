"""CV and the inconsistency report share pipeline.fit and predict_message."""

from refdoc import evaluation, inconsistency, pipeline
from refdoc.classifiers import ModelConfig


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(pipeline, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counting)
    return calls


def test_cv_and_inconsistency_go_through_the_pipeline(
        monkeypatch, small_dataset, none_dataset, none_model):
    fits = _count_calls(monkeypatch, "fit")
    predictions = _count_calls(monkeypatch, "predict_message")
    evaluation.cross_validate(small_dataset, ModelConfig(algorithm="nb"),
                              folds=3)
    assert len(fits) == 3
    assert len(predictions) == len(small_dataset)

    predictions.clear()
    report = inconsistency.inconsistency_report(none_dataset, none_model)
    labelled = sum(1 for r in none_dataset if r.label is not None)
    assert len(predictions) == labelled == report["total"]
