"""Model configuration, training dispatch, and prediction.

Four algorithms share one featurization path: multinomial naive Bayes,
one-vs-all logistic regression, a random forest, and one-vs-all gradient
boosted trees, with the published default hyperparameters. Class order is
fixed alphabetically by canonical label name at training time; argmax ties
resolve to the first class in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import ALL_TYPES, RefactoringType
from .errors import EmptyFeatures, InsufficientClass, SingleClass
from .features import FeatureVector, Vocabulary, vectors_to_csr
from .logreg import LogisticOvA
from .naive_bayes import NaiveBayes
from .trees import BoostedClassifier, ForestClassifier

ALGORITHMS = ("nb", "logreg", "rf", "gbt")

#: Published defaults per algorithm (random forest, logistic regression,
#: gradient boosted trees) plus the Laplace alpha for naive Bayes.
DEFAULT_HYPERPARAMETERS = {
    "nb": {"alpha": 1.0},
    "logreg": {"l2_weight": 1.0, "optimization_tolerance": 1e-7,
               "max_iterations": 5000},
    "rf": {"n_estimators": 8, "max_depth": 32, "random_splits_per_node": 128,
           "min_samples_per_leaf": 1},
    "gbt": {"max_leaves": 20, "min_samples_per_leaf": 10,
            "learning_rate": 0.2, "n_trees": 100},
}


@dataclass(frozen=True)
class ModelConfig:
    algorithm: str = "gbt"
    hyperparameters: dict = field(default_factory=dict)
    n_max: int = 2
    k_select: int = 5000
    seed: int = 0
    include_none: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        merged = dict(DEFAULT_HYPERPARAMETERS[self.algorithm])
        merged.update(self.hyperparameters)
        object.__setattr__(self, "hyperparameters", merged)

    @property
    def pipeline(self):
        return (self.n_max, self.k_select, self.seed)

    def with_seed(self, seed):
        return replace(self, seed=seed)


@dataclass
class TrainedModel:
    config: ModelConfig
    vocab: Vocabulary
    class_order: tuple  # RefactoringType, alphabetical by canonical name
    estimator: object

    @property
    def include_none(self):
        return self.config.include_none


def dense_row(vec: FeatureVector, vocab: Vocabulary) -> np.ndarray:
    """Expand a sparse FeatureVector to a positionally indexed dense row."""
    row = np.zeros(vocab.n_selected, dtype=np.float64)
    for fid, w in vec.items():
        pos = vocab.position(fid)
        if pos is not None:
            row[pos] = w
    return row


def _make_estimator(config: ModelConfig):
    hp = config.hyperparameters
    if config.algorithm == "nb":
        return NaiveBayes(alpha=hp["alpha"])
    if config.algorithm == "logreg":
        return LogisticOvA(l2_weight=hp["l2_weight"],
                           optimization_tolerance=hp["optimization_tolerance"],
                           max_iterations=hp["max_iterations"])
    if config.algorithm == "rf":
        return ForestClassifier(
            n_estimators=hp["n_estimators"], max_depth=hp["max_depth"],
            random_splits_per_node=hp["random_splits_per_node"],
            min_samples_per_leaf=hp["min_samples_per_leaf"],
            seed=config.seed)
    return BoostedClassifier(
        n_trees=hp["n_trees"], max_leaves=hp["max_leaves"],
        min_samples_per_leaf=hp["min_samples_per_leaf"],
        learning_rate=hp["learning_rate"])


def train(config: ModelConfig, vectors, labels,
          vocab: Vocabulary) -> TrainedModel:
    """Fit the configured algorithm on vectorized documents.

    Deterministic given (config.seed, data). Requires two classes with at
    least two samples each and at least one nonempty vector.
    """
    vectors = list(vectors)
    labels = list(labels)
    class_order = tuple(t for t in ALL_TYPES if t in set(labels))
    if len(class_order) < 2:
        raise SingleClass("training needs at least two classes")
    for cls in class_order:
        have = sum(1 for lab in labels if lab == cls)
        if have < 2:
            raise InsufficientClass(cls.value, have, 2)
    if not any(vectors):
        raise EmptyFeatures("every document vectorized to nothing")

    X = vectors_to_csr(vectors, vocab)
    class_idx = {c: i for i, c in enumerate(class_order)}
    y_idx = np.array([class_idx[lab] for lab in labels], dtype=np.int64)

    estimator = _make_estimator(config)
    estimator.fit(X, y_idx, len(class_order))
    return TrainedModel(config=config, vocab=vocab, class_order=class_order,
                        estimator=estimator)


def predict(model: TrainedModel, vec: FeatureVector) -> dict:
    """Per-class scores for one vectorized document.

    nb and logreg scores are probabilities summing to one; rf and gbt
    scores are the one-vs-all vote fraction and sigmoid margin. The
    predicted label is the argmax with ties broken by class order.
    """
    row = dense_row(vec, model.vocab)
    algo = model.config.algorithm
    if algo == "rf":
        scores = model.estimator.score_row(row, len(model.class_order))
    else:
        scores = model.estimator.score_row(row)
    return {cls: float(s) for cls, s in zip(model.class_order, scores)}


def predicted_label(scores: dict, class_order) -> RefactoringType:
    """Argmax over scores; ties go to the earliest class in class_order."""
    best = None
    best_score = -np.inf
    for cls in class_order:
        s = scores[cls]
        if s > best_score:
            best, best_score = cls, s
    return best
