"""Multinomial naive Bayes over TF-IDF mass.

Operating on TF-IDF weights rather than raw counts keeps the featurization
path identical across all algorithms; smoothing is Laplace with the
configured alpha. Scores are exact posteriors (softmax of log-joints), so
they sum to one.
"""

from __future__ import annotations

import numpy as np

from .features import row_ids


class NaiveBayes:
    def __init__(self, *, alpha):
        self.alpha = float(alpha)
        self.log_prior = None
        self.log_theta = None  # classes x features

    def fit(self, X_csr, y_idx, n_classes):
        n, n_features = X_csr.shape
        # each (class, feature) bin adds its entries in row order from 0.0
        bins = y_idx[row_ids(X_csr)] * n_features + X_csr.indices
        mass = np.bincount(bins, weights=X_csr.data,
                           minlength=n_classes * n_features).reshape(
            n_classes, n_features)
        counts = np.bincount(y_idx, minlength=n_classes).astype(np.float64)
        smoothed = mass + self.alpha
        self.log_theta = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
        self.log_prior = np.log(counts / n)
        return self

    def score_row(self, row):
        """Posterior over classes for one dense feature row.

        A loaded file's finite log-probabilities can still overflow the
        log-joint; an infinite one reads as the largest float of its sign
        and an undefined (NaN) one as the lowest, so the scores stay
        finite. Finite log-joints pass through unchanged.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            log_joint = self.log_prior + self.log_theta @ row
            if not np.isfinite(log_joint).all():
                big = np.finfo(np.float64).max
                log_joint = np.nan_to_num(log_joint, nan=-big, posinf=big,
                                          neginf=-big)
            shifted = log_joint - log_joint.max()
        p = np.exp(shifted)
        return p / p.sum()

    def to_dict(self):
        return {
            "log_prior": [float(v) for v in self.log_prior],
            "log_theta": [[float(v) for v in row] for row in self.log_theta],
        }

    def load_dict(self, d, n_classes, n_features):
        """Set the learned arrays from to_dict() output; returns self."""
        self.log_prior = np.asarray(d["log_prior"], dtype=np.float64)
        self.log_theta = np.asarray(d["log_theta"], dtype=np.float64)
        if (self.log_prior.shape != (n_classes,)
                or self.log_theta.shape != (n_classes, n_features)):
            raise ValueError("naive Bayes arrays do not match the classes "
                             "and features")
        if not (np.isfinite(self.log_prior).all()
                and np.isfinite(self.log_theta).all()):
            raise ValueError("naive Bayes arrays must be finite")
        return self
