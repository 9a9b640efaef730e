"""One-vs-all L2-regularized logistic regression.

Each binary model minimizes sum_i log(1 + exp(z_i)) - y_i z_i plus
(l2_weight / 2) ||w||^2 (bias unregularized) over the joint vector
(w, b) by a deterministic L-BFGS: the two-loop recursion of Liu &
Nocedal (1989, "On the limited memory BFGS method for large scale
optimization") over the last HISTORY curvature pairs. The first step,
and any step after a direction that is not a descent direction, is
steepest descent scaled by the gradient's infinity-norm; a curvature pair
whose s.y is not clearly positive is skipped. The backtracking line
search halves the step from 1 and accepts a trial by strict Armijo
decrease or, once the loss stops resolving a step near the optimum, by
the approximate Wolfe conditions of Hager & Zhang (2005, "A new
conjugate gradient method with guaranteed descent and an efficient line
search"). The fit stops when the gradient infinity-norm falls to the
optimization tolerance, when no trial is accepted (numerically
converged), or after max_iter iterations. The gradient lives in its own
function so it can be checked against finite differences.

The fit computes the margins X @ w + b once per line-search trial: the
loss and the gradient both take the trial's margins. Both products with
X are bincounts over X's entries, whose row and column ids are taken
once per binary problem: X @ w adds each row's terms, and X.T @ r each
column's, in storage order from 0.0. The binary problems are
independent and are fitted in worker processes (workers.map_parts).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .features import row_ids
from .trees import sigmoid
from .workers import map_parts

HISTORY = 10  # curvature pairs the L-BFGS direction remembers
ARMIJO = 1e-4  # sufficient-decrease fraction of the directional derivative
MAX_TRIALS = 60  # line-search halvings before the fit counts as converged
# Approximate Wolfe (Hager & Zhang's delta = 0.1, sigma = 0.9): the loss
# may rise by LOSS_SLACK * |loss| while the slope phi'(a) along the
# direction lies in [0.9 phi'(0), -0.8 phi'(0)].
LOSS_SLACK = 1e-12


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
    r = sigmoid(z) - y
    grad_w = _feature_sums(r, entries) + l2_weight * weights
    return grad_w, float(np.sum(r))


def _direction(g, pairs):
    """-H g for the L-BFGS inverse-Hessian estimate H of the curvature
    pairs (s, y, 1 / s.y), oldest first: the two-loop recursion, started
    from s.y / y.y times the identity for the newest pair."""
    d = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ d)
        d -= alpha * y
        alphas.append(alpha)
    _, y, rho = pairs[-1]
    d *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        d += (alpha - rho * float(y @ d)) * s
    return d


def lbfgs(X, y, *, l2_weight, tol, max_iter):
    """L-BFGS on one binary problem: (weights, bias, iterations, stop),
    where stop is "gradient" (infinity-norm at most tol), "line search"
    (no trial accepted) or "iterations" (max_iter steps taken)."""
    entries = _entries(X)

    def loss_at(x):
        z = _margins(x[:-1], x[-1], entries)
        return z, logreg_loss(x[:-1], x[-1], X, y, l2_weight, margins=z)

    def gradient_at(x, z):
        grad_w, grad_b = logreg_gradient(x[:-1], x[-1], X, y, l2_weight,
                                         margins=z, entries=entries)
        return np.append(grad_w, grad_b)

    x = np.zeros(X.shape[1] + 1, dtype=np.float64)
    z, loss = loss_at(x)
    g = gradient_at(x, z)
    pairs = deque(maxlen=HISTORY)
    iterations = 0
    while True:
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= tol:
            stop = "gradient"
            break
        if iterations == max_iter:
            stop = "iterations"
            break
        d = _direction(g, pairs) if pairs else -g / gnorm
        if not float(g @ d) < 0.0:  # not a descent direction
            pairs.clear()
            d = -g / gnorm
        slope = float(g @ d)
        step = 1.0
        for _ in range(MAX_TRIALS):
            x_new = x + step * d
            z, loss_new = loss_at(x_new)
            if loss_new < loss + ARMIJO * step * slope:
                g_new = gradient_at(x_new, z)
                break
            if loss_new <= loss + LOSS_SLACK * abs(loss):
                g_new = gradient_at(x_new, z)
                if 0.9 * slope <= float(g_new @ d) <= -0.8 * slope:
                    break
            step *= 0.5
        else:
            stop = "line search"  # numerically converged
            break
        s, v = x_new - x, g_new - g
        sv = float(s @ v)
        if sv > 1e-10 * float(v @ v):
            pairs.append((s, v, 1.0 / sv))
        x, loss, g = x_new, loss_new, g_new
        iterations += 1
    return x[:-1], float(x[-1]), iterations, stop


def fit_binary(X, y, *, l2_weight, tol, max_iter):
    """L-BFGS on one binary problem: (weights, bias)."""
    w, b, _, _ = lbfgs(X, y, l2_weight=l2_weight, tol=tol, max_iter=max_iter)
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
        p = sigmoid(z)
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
