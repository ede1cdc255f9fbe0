"""Logistic regression, the downstream classifier of the paper's protocol.

Node classification and link prediction both train "one-vs-rest logistic
regression with L2 regularization" on frozen embeddings (Sec. 4.2, following
node2vec's protocol).  The binary solver is damped Newton on the regularised
log-likelihood (exact Hessian, Armijo backtracking, Newton-decrement stop;
Boyd & Vandenberghe, Alg. 9.5): it ends at the optimum or raises.
"""

from __future__ import annotations

import numpy as np

#: Stop once the Newton decrement ``gᵀH⁻¹g`` (~2x the loss above the optimum)
#: nears the loss's float resolution; a gradient test's floor grows with scale.
DECREMENT_TOL = 2e-14
MAX_NEWTON_STEPS, ARMIJO, MIN_STEP = 50, 0.25, 1e-10


def _loss(parameters, design, targets, l2: float) -> float:
    """Mean log-loss plus ``l2/2 * ||w||^2 / n``; ``design = [X | 1]``."""
    logits = design @ parameters
    # log(1 + exp(-z*y')) with y' in {-1, +1}
    signed = np.where(targets > 0.5, -logits, logits)
    weights = parameters[:-1]
    return np.logaddexp(0.0, signed).mean() + 0.5 * l2 * (weights @ weights) / len(targets)


def _gradient_hessian(parameters, design, targets, l2: float) -> tuple:
    """Exact gradient and Hessian ``Aᵀ diag(q(1-q)) A / n + (l2/n) I`` of
    :func:`_loss`, with no penalty on the intercept's diagonal entry."""
    n = len(targets)
    logits = design @ parameters
    # q = sigmoid(z) and q(1 - q) from exp(-|z|): no overflow, no cancellation.
    decay = np.exp(-np.abs(logits))
    probabilities = np.where(logits >= 0.0, 1.0, decay) / (1.0 + decay)
    penalty = np.append(np.full(len(parameters) - 1, l2 / n), 0.0)
    gradient = design.T @ (probabilities - targets) / n + penalty * parameters
    hessian = (design.T * (decay / (1.0 + decay) ** 2)) @ design / n
    hessian[np.diag_indices_from(hessian)] += penalty
    return gradient, hessian


class LogisticRegression:
    """Binary L2-regularised logistic regression.

    Parameters
    ----------
    l2:
        Regularisation strength on the weights (the intercept is not
        penalised), i.e. ``loss = logloss + l2/2 * ||w||^2``.  Must be
        positive, so that separable data too has an optimum.
    """

    def __init__(self, l2: float = 1.0):
        if not l2 > 0:
            raise ValueError("l2 must be positive")
        self.l2 = l2
        self.weights_ = None
        self.intercept_ = 0.0

    def fit(self, features, targets) -> "LogisticRegression":
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be 2-D")
        if set(np.unique(targets)) != {0.0, 1.0}:
            raise ValueError("binary targets must be 0/1 and hold both classes")
        design = np.hstack([features, np.ones((len(features), 1))])
        parameters = np.zeros(design.shape[1])
        loss = _loss(parameters, design, targets, self.l2)
        for _ in range(MAX_NEWTON_STEPS):
            gradient, hessian = _gradient_hessian(parameters, design, targets, self.l2)
            step = np.linalg.solve(hessian, gradient)
            decrement = gradient @ step
            if decrement <= DECREMENT_TOL:
                break
            size = 1.0
            while (_loss(parameters - size * step, design, targets, self.l2)
                   > loss - ARMIJO * size * decrement):
                size *= 0.5
                if size < MIN_STEP:
                    raise RuntimeError(f"Newton line search stalled at decrement {decrement:.3g}")
            parameters = parameters - size * step
            loss = _loss(parameters, design, targets, self.l2)
        else:
            raise RuntimeError(f"Newton solve did not converge in {MAX_NEWTON_STEPS} steps")
        self.weights_ = parameters[:-1]
        self.intercept_ = float(parameters[-1])
        return self

    def decision_function(self, features) -> np.ndarray:
        if self.weights_ is None:
            raise RuntimeError("call fit() first")
        return np.asarray(features, dtype=np.float64) @ self.weights_ + self.intercept_

    def predict_proba(self, features) -> np.ndarray:
        logits = np.clip(self.decision_function(features), -500, 500)
        return 1.0 / (1.0 + np.exp(-logits))

    def predict(self, features) -> np.ndarray:
        return (self.decision_function(features) >= 0.0).astype(np.int64)


class OneVsRestClassifier:
    """One-vs-rest reduction over :class:`LogisticRegression` binaries."""

    def __init__(self, l2: float = 1.0):
        self.l2 = l2
        self.classes_ = None
        self._models = []

    def fit(self, features, labels) -> "OneVsRestClassifier":
        labels = np.asarray(labels)
        self.classes_ = np.unique(labels)
        if len(self.classes_) < 2:
            raise ValueError("need at least two classes")
        self._models = [LogisticRegression(l2=self.l2).fit(features, labels == cls)
                        for cls in self.classes_]
        return self

    def decision_function(self, features) -> np.ndarray:
        if not self._models:
            raise RuntimeError("call fit() first")
        return np.column_stack([m.decision_function(features) for m in self._models])

    def predict_proba(self, features) -> np.ndarray:
        """Per-class probabilities via a softmax over the one-vs-rest margins.

        The heuristic normalisation standard for OvR reductions; columns
        follow :attr:`classes_`.  Used by the online label scorer to report
        calibrated-ish confidences alongside the argmax prediction.
        """
        scores = self.decision_function(features)
        shifted = scores - scores.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def predict(self, features) -> np.ndarray:
        scores = self.decision_function(features)
        return self.classes_[np.argmax(scores, axis=1)]
