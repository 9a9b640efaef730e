"""Model configuration, training dispatch, and prediction.

Four algorithms share one featurization path: multinomial naive Bayes,
one-vs-all logistic regression, a random forest, and one-vs-all gradient
boosted trees, with the published default hyperparameters. Class order is
fixed alphabetically by canonical label name at training time; argmax ties
resolve to the first class in that order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import RefactoringType, present_types
from .errors import EmptyFeatures, InsufficientClass, SingleClass, UnknownLabel
from .features import Vocabulary
from .logreg import LogisticOvA
from .naive_bayes import NaiveBayes
from .trees import BoostedClassifier, ForestClassifier

#: Published defaults per algorithm (random forest, logistic regression,
#: gradient boosted trees) plus the Laplace alpha for naive Bayes. The only
#: place a hyperparameter name or default lives: each key is a keyword of
#: the algorithm's estimator class in ESTIMATORS.
DEFAULT_HYPERPARAMETERS = {
    "nb": {"alpha": 1.0},
    "logreg": {"l2_weight": 1.0, "optimization_tolerance": 1e-7,
               "max_iterations": 5000},
    "rf": {"n_estimators": 8, "max_depth": 32, "random_splits_per_node": 128,
           "min_samples_per_leaf": 1},
    "gbt": {"max_leaves": 20, "min_samples_per_leaf": 10,
            "learning_rate": 0.2, "n_trees": 100},
}

ESTIMATORS = {"nb": NaiveBayes, "logreg": LogisticOvA,
              "rf": ForestClassifier, "gbt": BoostedClassifier}

ALGORITHMS = tuple(DEFAULT_HYPERPARAMETERS)


def _value_problem(name, value, default):
    """Why value cannot be the hyperparameter name, or None if it can.

    The default's type sets the rule: integers are counts of at least one
    (a tree needs two leaves to split), and floats are finite and
    positive (an L2 weight may be zero).
    """
    if isinstance(default, int):
        least = 2 if name == "max_leaves" else 1
        if (isinstance(value, bool) or not isinstance(value, int)
                or value < least):
            return f"an integer >= {least}"
        return None
    positive = name != "l2_weight"
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value < 0
            or (positive and value == 0)):
        return "a finite number " + ("> 0" if positive else ">= 0")
    return None


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
        if _value_problem("n_max", self.n_max, 1) or self.n_max > 3:
            raise ValueError(f"n_max must be 1, 2 or 3, not {self.n_max!r}")
        if _value_problem("k_select", self.k_select, 1):
            raise ValueError(f"k_select must be an integer >= 1, "
                             f"not {self.k_select!r}")
        defaults = DEFAULT_HYPERPARAMETERS[self.algorithm]
        unknown = [k for k in self.hyperparameters if k not in defaults]
        if unknown:
            raise ValueError(f"unknown {self.algorithm} hyperparameters: "
                             + ", ".join(map(repr, unknown)))
        for name, value in self.hyperparameters.items():
            problem = _value_problem(name, value, defaults[name])
            if problem:
                raise ValueError(f"{self.algorithm} hyperparameter {name} "
                                 f"must be {problem}, not {value!r}")
        merged = dict(defaults)
        merged.update(self.hyperparameters)
        object.__setattr__(self, "hyperparameters", merged)


@dataclass
class TrainedModel:
    config: ModelConfig
    vocab: Vocabulary
    class_order: tuple  # RefactoringType, alphabetical by canonical name
    estimator: object


def dense_row(X, i: int) -> np.ndarray:
    """Row i of a CSR matrix as a dense array."""
    row = np.zeros(X.shape[1], dtype=np.float64)
    start, stop = X.indptr[i], X.indptr[i + 1]
    row[X.indices[start:stop]] = X.data[start:stop]
    return row


def make_estimator(config: ModelConfig):
    """The untrained estimator for config, hyperparameters applied."""
    seed = {"seed": config.seed} if config.algorithm == "rf" else {}
    return ESTIMATORS[config.algorithm](**config.hyperparameters, **seed)


def train(config: ModelConfig, X, labels, vocab: Vocabulary) -> TrainedModel:
    """Fit the configured algorithm on the weighted CSR rows of X from
    features.vectorize. Deterministic given (config.seed, data). The one
    owner of the training-label rules: a label on each row of X, None-
    labeled rows exactly when config.include_none, and two classes with
    two samples each. X needs at least one nonempty row."""
    labels = list(labels)
    if len(labels) != X.shape[0]:
        raise ValueError(f"{X.shape[0]} rows but {len(labels)} labels")
    have = Counter(labels)
    if None in have:
        raise UnknownLabel("training needs labels on every record")
    has_none = RefactoringType.NONE in have
    if has_none != config.include_none:
        raise UnknownLabel(
            "dataset has None-labeled rows; pass include_none to use them"
            if has_none else
            "include_none requires None-labeled rows in the corpus")
    class_order = present_types(have)
    if len(class_order) < 2:
        raise SingleClass("training needs at least two classes")
    for cls in class_order:
        if have[cls] < 2:
            raise InsufficientClass(cls.value, have[cls], 2)
    if not X.indptr[-1]:
        raise EmptyFeatures("every document vectorized to nothing")

    class_idx = {c: i for i, c in enumerate(class_order)}
    y_idx = np.array([class_idx[lab] for lab in labels], dtype=np.int64)

    estimator = make_estimator(config)
    estimator.fit(X, y_idx, len(class_order))
    return TrainedModel(config=config, vocab=vocab, class_order=class_order,
                        estimator=estimator)


def predict(model: TrainedModel, X) -> list:
    """One {class: score} dict per weighted CSR row of X.

    nb and logreg scores are probabilities summing to one; rf and gbt
    scores are the one-vs-all vote fraction and sigmoid margin. The
    predicted label is the argmax with ties broken by class order.
    """
    return [{cls: float(s) for cls, s in zip(
                model.class_order, model.estimator.score_row(dense_row(X, i)))}
            for i in range(X.shape[0])]


def predicted_label(scores: dict, class_order) -> RefactoringType:
    """Argmax over scores; max keeps the first maximum, so ties go to the
    earliest class in class_order."""
    return max(class_order, key=scores.__getitem__)
