"""The Newton solver behind the paper's logistic-regression classifier.

Its analytic derivatives are checked against central finite differences
under explicit tolerances, its solutions against the optimality condition
(including the ill-scaled and n < d problems the figure benchmarks hand it),
and its link-prediction AUC against a converged L-BFGS solve kept here as a
test-only oracle.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.eval import classification
from repro.eval.classification import (
    LogisticRegression,
    OneVsRestClassifier,
    _gradient_hessian,
    _loss,
)


def _design(features):
    return np.hstack([features, np.ones((len(features), 1))])


def _problem(n, d, seed, separable):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    margin = features @ rng.normal(size=d)
    if not separable:
        margin = margin + 2.0 * rng.normal(size=n)
    return features, (margin > 0).astype(np.float64)


def _solution_gradient(model, features, targets):
    parameters = np.append(model.weights_, model.intercept_)
    gradient, _ = _gradient_hessian(parameters, _design(features), targets,
                                    model.l2)
    return gradient


def _central_differences(function, parameters, step=1e-5):
    """Jacobian of ``function`` at ``parameters`` by central differences."""
    columns = [(function(parameters + offset) - function(parameters - offset)) / (2 * step)
               for offset in np.eye(len(parameters)) * step]
    return np.array(columns).T


class TestDerivatives:
    """Snippet-style finite-difference checks of :func:`_gradient_hessian`."""

    @pytest.fixture
    def point(self):
        features, targets = _problem(40, 5, seed=0, separable=False)
        parameters = np.random.default_rng(1).normal(size=6)
        return parameters, _design(features), targets, 0.7

    def test_gradient_matches_central_differences(self, point):
        parameters, design, targets, l2 = point
        gradient, _ = _gradient_hessian(parameters, design, targets, l2)
        numeric = _central_differences(lambda p: _loss(p, design, targets, l2), parameters)
        np.testing.assert_allclose(gradient, numeric, rtol=1e-6, atol=1e-9)

    def test_hessian_matches_central_differences(self, point):
        parameters, design, targets, l2 = point
        _, hessian = _gradient_hessian(parameters, design, targets, l2)
        numeric = _central_differences(
            lambda p: _gradient_hessian(p, design, targets, l2)[0], parameters)
        np.testing.assert_allclose(hessian, numeric, rtol=1e-6, atol=1e-9)

    def test_intercept_is_not_penalised(self, point):
        _, design, targets, _ = point
        parameters = np.zeros(design.shape[1])
        parameters[-1] = 3.0
        assert _loss(parameters, design, targets, 5.0) == _loss(parameters, design, targets, 1.0)


class TestOptimality:
    """The fit ends where the gradient vanishes, or it raises."""

    @pytest.mark.parametrize("separable", [True, False])
    def test_gradient_vanishes_at_solution(self, separable):
        features, targets = _problem(300, 8, seed=2, separable=separable)
        model = LogisticRegression(l2=0.01).fit(features, targets)
        gradient = _solution_gradient(model, features, targets)
        assert np.abs(gradient).max() < 1e-8

    def test_large_feature_entries(self):
        # Hadamard pair features of trained embeddings reach ~70 (fig4b's
        # 458 x 128 problem); the gradient's rounding floor grows with them.
        features, targets = _problem(458, 128, seed=3, separable=False)
        features *= 70.0 / np.abs(features).max()
        model = LogisticRegression().fit(features, targets)
        gradient = _solution_gradient(model, features, targets)
        assert np.abs(gradient).max() < 1e-10 * np.abs(features).max()

    def test_fewer_samples_than_features(self):
        # The WebKB one-vs-rest shape: 11 labelled rows, 128 features.
        rng = np.random.default_rng(4)
        features = rng.normal(size=(11, 128))
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 4])
        model = OneVsRestClassifier().fit(features, labels)
        for cls, binary in zip(model.classes_, model._models):
            targets = (labels == cls).astype(np.float64)
            gradient = _solution_gradient(binary, features, targets)
            assert np.abs(gradient).max() < 1e-8
        assert (model.predict(features) == labels).all()

    def test_raises_instead_of_stopping_unconverged(self, monkeypatch):
        features, targets = _problem(100, 4, seed=5, separable=False)
        monkeypatch.setattr(classification, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            LogisticRegression().fit(features, targets)

    def test_raises_when_line_search_stalls(self, monkeypatch):
        # A loss that every step away from the start raises: no step size
        # passes the Armijo test.
        features, targets = _problem(100, 4, seed=5, separable=False)
        loss = classification._loss
        monkeypatch.setattr(classification, "_loss",
                            lambda parameters, *rest: loss(parameters, *rest)
                            + float(np.any(parameters)))
        with pytest.raises(RuntimeError, match="stalled"):
            LogisticRegression().fit(features, targets)


def _lbfgs_oracle(features, targets, l2):
    """The regularised log-likelihood minimised by scipy's L-BFGS until it
    converges, not until an iteration cap: the reference the Newton solve
    must agree with."""
    n, d = features.shape

    def objective(parameters):
        weights, intercept = parameters[:d], parameters[d]
        logits = features @ weights + intercept
        signed = np.where(targets > 0.5, -logits, logits)
        loss = np.logaddexp(0.0, signed).mean() + 0.5 * l2 * (weights @ weights) / n
        error = (1.0 / (1.0 + np.exp(-logits)) - targets) / n
        return loss, np.append(features.T @ error + l2 * weights / n, error.sum())

    result = minimize(objective, np.zeros(d + 1), jac=True, method="L-BFGS-B",
                      options={"maxiter": 5000})
    return result.x[:d], result.x[d]


def test_pubmed_auc_matches_converged_lbfgs():
    """Seed 3 of the ``train-pubmed`` fit: the Newton solve's test AUC is
    within 1e-3 of L-BFGS run to convergence."""
    from repro.core import CoANE, CoANEConfig
    from repro.eval.link_prediction import hadamard_features, split_edges
    from repro.eval.metrics import auc_score
    from repro.graph import load_dataset

    graph = load_dataset("pubmed", seed=3)
    split = split_edges(graph, seed=3)
    embeddings = CoANE(CoANEConfig(epochs=8, seed=3)).fit(split.train_graph).embeddings_
    train_pairs, train_labels = split.pairs("train")
    test_pairs, test_labels = split.pairs("test")
    train_features = hadamard_features(embeddings, train_pairs)
    test_features = hadamard_features(embeddings, test_pairs)

    newton = LogisticRegression().fit(train_features, train_labels)
    weights, intercept = _lbfgs_oracle(train_features, train_labels.astype(np.float64), 1.0)
    newton_auc = auc_score(test_labels, newton.decision_function(test_features))
    oracle_auc = auc_score(test_labels, test_features @ weights + intercept)
    assert abs(newton_auc - oracle_auc) < 1e-3
