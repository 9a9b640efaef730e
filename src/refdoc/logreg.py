"""One-vs-all L2-regularized logistic regression.

Each binary model minimizes sum_i log(1 + exp(z_i)) - y_i z_i plus
(l2_weight / 2) ||w||^2 (bias unregularized) by deterministic full-batch
gradient descent with Armijo backtracking, stopping when the gradient
infinity-norm falls below the optimization tolerance. The gradient lives in
its own function so it can be checked against finite differences.

The fit computes the margins X @ w + b once per line-search trial: the
loss and the next gradient both take the accepted trial's margins. Both
products with X are bincounts over X's entries, whose row and column ids
are taken once per binary problem: X @ w adds each row's terms, and
X.T @ r each column's, in storage order from 0.0. The binary problems are
independent and are fitted in worker processes (workers.map_parts).
"""

from __future__ import annotations

import numpy as np

from .features import row_ids
from .workers import map_parts


def _sigmoid(z):
    """1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere, e = exp(-|z|)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _entries(X):
    """(row ids, column ids, values, shape) of X's entries: int64 row ids
    and intp column ids, ready for bincount and take."""
    return row_ids(X), np.asarray(X.indices, dtype=np.intp), X.data, X.shape


def _margins(weights, bias, entries):
    """X @ weights + bias, for entries = _entries(X)."""
    rows, cols, vals, (n, _) = entries
    return np.bincount(rows, weights=vals * weights.take(cols),
                       minlength=n) + bias


def _feature_sums(r, entries):
    """X.T @ r, for entries = _entries(X)."""
    rows, cols, vals, (_, n_features) = entries
    return np.bincount(cols, weights=vals * r.take(rows),
                       minlength=n_features)


def logreg_loss(weights, bias, X, y, l2_weight, margins=None):
    """Regularized negative log-likelihood (sum over the batch); margins,
    when given, must be X @ weights + bias."""
    z = _margins(weights, bias, _entries(X)) if margins is None else margins
    nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
    return nll + 0.5 * float(l2_weight) * float(weights @ weights)


def logreg_gradient(weights, bias, X, y, l2_weight, margins=None,
                    entries=None):
    """Analytic gradient of logreg_loss: (d/dw, d/db).

    The L2 term contributes exactly l2_weight * weights to the weight
    gradient and nothing to the bias gradient. margins is as for
    logreg_loss; entries, when given, must be _entries(X).
    """
    entries = _entries(X) if entries is None else entries
    z = _margins(weights, bias, entries) if margins is None else margins
    r = _sigmoid(z) - y
    grad_w = _feature_sums(r, entries) + l2_weight * weights
    return grad_w, float(np.sum(r))


def fit_binary(X, y, *, l2_weight, tol, max_iter):
    """Gradient descent with backtracking line search on one binary problem."""
    entries = _entries(X)
    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    step = 1.0
    z = _margins(w, b, entries)
    loss = logreg_loss(w, b, X, y, l2_weight, margins=z)
    for _ in range(max_iter):
        grad_w, grad_b = logreg_gradient(w, b, X, y, l2_weight,
                                         margins=z, entries=entries)
        gnorm = max(float(np.max(np.abs(grad_w))) if grad_w.size else 0.0,
                    abs(grad_b))
        if gnorm <= tol:
            break
        sq = float(grad_w @ grad_w) + grad_b * grad_b
        step = min(step * 2.0, 1e6)
        accepted = False
        for _ in range(60):
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            z_new = _margins(w_new, b_new, entries)
            loss_new = logreg_loss(w_new, b_new, X, y, l2_weight,
                                   margins=z_new)
            if loss_new <= loss - 1e-4 * step * sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # step underflow: numerically converged
        w, b, loss, z = w_new, b_new, loss_new, z_new
    return w, b


class LogisticOvA:
    def __init__(self, *, l2_weight, optimization_tolerance, max_iterations):
        self.l2_weight = float(l2_weight)
        self.tol = float(optimization_tolerance)
        self.max_iter = int(max_iterations)
        self.weights = None  # classes x features
        self.bias = None

    def fit(self, X_csr, y_idx, n_classes):
        n_features = X_csr.shape[1]
        self.weights = np.zeros((n_classes, n_features), dtype=np.float64)
        self.bias = np.zeros(n_classes, dtype=np.float64)
        fits = map_parts(lambda classes: [
            fit_binary(X_csr, (y_idx == c).astype(np.float64),
                       l2_weight=self.l2_weight, tol=self.tol,
                       max_iter=self.max_iter)
            for c in classes], range(n_classes))
        for c, (w, b) in enumerate(fits):
            self.weights[c] = w
            self.bias[c] = b
        return self

    def score_row(self, row):
        """Per-class OvA sigmoids normalized to sum to one. Where every
        sigmoid underflows to 0, exp(z - max z) holds their limiting ratios."""
        z = self.weights @ row + self.bias
        p = _sigmoid(z)
        if not p.sum():
            p = np.exp(z - z.max())
        return p / p.sum()

    def to_dict(self):
        return {
            "weights": [[float(v) for v in row] for row in self.weights],
            "bias": [float(v) for v in self.bias],
        }

    def load_dict(self, d, n_classes, n_features):
        """Set the learned arrays from to_dict() output; returns self."""
        self.weights = np.asarray(d["weights"], dtype=np.float64)
        self.bias = np.asarray(d["bias"], dtype=np.float64)
        if (self.weights.shape != (n_classes, n_features)
                or self.bias.shape != (n_classes,)):
            raise ValueError("logistic regression arrays do not match the "
                             "classes and features")
        if not (np.isfinite(self.weights).all()
                and np.isfinite(self.bias).all()):
            raise ValueError("logistic regression arrays must be finite")
        return self
