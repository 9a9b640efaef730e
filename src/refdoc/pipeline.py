"""End-to-end glue: dataset -> count matrix -> vocabulary -> model.

The one fit path and the one message-to-label path: the CLI,
cross-validation, the inconsistency report and the service all go
through fit_counts and predict_counts rather than repeating their steps.
"""

from __future__ import annotations

from . import classifiers, features, textprep


def featurize(message: str, n_max: int):
    """N-gram counts of one raw commit message."""
    return features.count_ngrams(textprep.preprocess(message), n_max)


def count_matrix(doc_counts):
    """(ngrams, counts): the sorted n-grams of the count dicts and their
    count matrix over them."""
    ngrams = sorted(set().union(*doc_counts))
    return ngrams, features.vectors_to_csr(
        doc_counts, {g: j for j, g in enumerate(ngrams)})


def fit(dataset, config: classifiers.ModelConfig) -> classifiers.TrainedModel:
    """Train the configured pipeline on fully labeled records: any
    iterable of them, a corpus.Dataset or a plain list."""
    records = list(dataset)
    ngrams, counts = count_matrix(
        [featurize(r.message, config.n_max) for r in records])
    return fit_counts(counts, ngrams, [r.label for r in records], config)


def fit_counts(counts, ngrams, labels, config: classifiers.ModelConfig):
    """Train on the rows of a count matrix over the sorted n-grams;
    classifiers.train checks the labels."""
    labels = list(labels)
    vocab = features.build_vocabulary(counts, ngrams, labels, config.n_max,
                                      config.k_select)
    column = {g: j for j, g in enumerate(ngrams)}
    X = features.vectorize(features.select_columns(
        counts, [column[g] for g in vocab.columns]), vocab)
    return classifiers.train(config, X, labels, vocab)


def predict_counts(model: classifiers.TrainedModel, doc_counts):
    """[(label, scores)] for the featurize counts of each message."""
    counts = features.vectors_to_csr(doc_counts, model.vocab.columns)
    return [(classifiers.predicted_label(scores, model.class_order), scores)
            for scores in classifiers.predict(
                model, features.vectorize(counts, model.vocab))]


def predict_message(model: classifiers.TrainedModel, message: str):
    """(label, scores) for one raw commit message."""
    return predict_counts(model, [featurize(message, model.vocab.n_max)])[0]
