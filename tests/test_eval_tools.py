"""Tests for the classifier, clustering, splits, link prediction, and t-SNE."""

import numpy as np
import pytest

from repro.eval import (
    LogisticRegression,
    OneVsRestClassifier,
    hadamard_features,
    kmeans,
    link_prediction_auc,
    split_edges,
    stratified_node_split,
)
from repro.eval.tsne import cluster_separation, tsne
from repro.graph import citation_graph


class TestLogisticRegression:
    @staticmethod
    def _separable(n=200, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 2))
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(float)
        return x, y

    def test_fits_separable_data(self):
        x, y = self._separable()
        model = LogisticRegression(l2=0.01).fit(x, y)
        assert (model.predict(x) == y).mean() > 0.95

    def test_probabilities_in_unit_interval(self):
        x, y = self._separable()
        probabilities = LogisticRegression().fit(x, y).predict_proba(x)
        assert (probabilities >= 0).all() and (probabilities <= 1).all()

    def test_l2_shrinks_weights(self):
        x, y = self._separable()
        loose = LogisticRegression(l2=0.001).fit(x, y)
        tight = LogisticRegression(l2=100.0).fit(x, y)
        assert np.linalg.norm(tight.weights_) < np.linalg.norm(loose.weights_)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 2)), np.array([0, 1, 2]))

    @pytest.mark.parametrize("l2", [0.0, -1.0])
    def test_rejects_non_positive_l2(self, l2):
        # Without a penalty, separable data has no minimiser.
        with pytest.raises(ValueError, match="l2 must be positive"):
            LogisticRegression(l2=l2)

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_rejects_single_class_targets(self, value):
        x, _ = self._separable(n=20)
        with pytest.raises(ValueError, match="both classes"):
            LogisticRegression().fit(x, np.full(20, value))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict(np.zeros((2, 2)))


class TestOneVsRest:
    def test_multiclass_blobs(self):
        rng = np.random.default_rng(0)
        centres = np.array([[0, 0], [5, 0], [0, 5]])
        labels = np.repeat(np.arange(3), 60)
        x = centres[labels] + rng.normal(scale=0.5, size=(180, 2))
        model = OneVsRestClassifier().fit(x, labels)
        assert (model.predict(x) == labels).mean() > 0.95

    def test_preserves_label_values(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 2))
        x[:20] += 4.0
        labels = np.array([7] * 20 + [9] * 20)
        predictions = OneVsRestClassifier().fit(x, labels).predict(x)
        assert set(predictions) <= {7, 9}

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            OneVsRestClassifier().fit(np.zeros((5, 2)), np.zeros(5))


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        rng = np.random.default_rng(0)
        centres = np.array([[0, 0], [10, 0], [0, 10]])
        truth = np.repeat(np.arange(3), 50)
        points = centres[truth] + rng.normal(scale=0.3, size=(150, 2))
        assignment = kmeans(points, 3, seed=0)
        from repro.eval import normalized_mutual_information
        assert normalized_mutual_information(truth, assignment) > 0.95

    def test_k_equals_one(self):
        assignment = kmeans(np.random.default_rng(0).normal(size=(10, 2)), 1, seed=0)
        assert (assignment == 0).all()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 5)

    def test_deterministic_with_seed(self):
        points = np.random.default_rng(0).normal(size=(50, 3))
        np.testing.assert_array_equal(kmeans(points, 3, seed=1), kmeans(points, 3, seed=1))


class TestStratifiedSplit:
    def test_ratio_respected(self):
        labels = np.repeat(np.arange(4), 50)
        train, test = stratified_node_split(labels, 0.2, seed=0)
        assert len(train) == pytest.approx(40, abs=4)
        assert len(train) + len(test) == 200

    def test_every_class_in_train(self):
        labels = np.array([0] * 50 + [1] * 3 + [2] * 2)
        train, _ = stratified_node_split(labels, 0.05, seed=0)
        assert set(labels[train]) == {0, 1, 2}

    def test_disjoint_and_complete(self):
        labels = np.repeat(np.arange(3), 20)
        train, test = stratified_node_split(labels, 0.5, seed=1)
        assert len(np.intersect1d(train, test)) == 0
        assert len(np.union1d(train, test)) == 60

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            stratified_node_split(np.zeros(10), 1.5)


class TestLinkSplit:
    def test_split_proportions(self):
        g = citation_graph(num_nodes=150, num_classes=3, num_attributes=20,
                           avg_degree=6.0, seed=0)
        split = split_edges(g, seed=0)
        m = g.num_edges
        assert len(split.train_pos) == pytest.approx(0.7 * m, abs=2)
        assert len(split.val_pos) == pytest.approx(0.1 * m, abs=2)
        assert len(split.train_pos) + len(split.val_pos) + len(split.test_pos) == m

    def test_negatives_are_nonedges_and_unique(self):
        g = citation_graph(num_nodes=100, num_classes=2, num_attributes=10, seed=1)
        split = split_edges(g, seed=1)
        all_negatives = np.vstack([split.train_neg, split.val_neg, split.test_neg])
        for u, v in all_negatives:
            assert not g.has_edge(u, v)
        keys = {tuple(pair) for pair in all_negatives}
        assert len(keys) == len(all_negatives)

    def test_train_graph_excludes_test_edges(self):
        g = citation_graph(num_nodes=100, num_classes=2, num_attributes=10, seed=2)
        split = split_edges(g, seed=2)
        for u, v in split.test_pos[:20]:
            assert not split.train_graph.has_edge(u, v)

    def test_pairs_interface(self):
        g = citation_graph(num_nodes=80, num_classes=2, num_attributes=10, seed=3)
        split = split_edges(g, seed=3)
        pairs, labels = split.pairs("test")
        assert len(pairs) == len(labels)
        assert labels.sum() == len(split.test_pos)

    def test_invalid_ratios(self):
        g = citation_graph(num_nodes=50, num_classes=2, num_attributes=5, seed=4)
        with pytest.raises(ValueError):
            split_edges(g, train_ratio=0.9, val_ratio=0.2)


class TestLinkPredictionAUC:
    def test_planted_embeddings_score_high(self):
        g = citation_graph(num_nodes=120, num_classes=3, num_attributes=20,
                           homophily=0.9, seed=5)
        split = split_edges(g, seed=5)
        # Oracle embedding: one-hot label + small noise -> homophilous edges predictable.
        rng = np.random.default_rng(0)
        Z = np.eye(3)[g.labels] + rng.normal(scale=0.05, size=(g.num_nodes, 3))
        result = link_prediction_auc(Z, split, phases=("train", "test"))
        assert result["test"] > 0.7
        assert result["train"] > 0.7

    def test_hadamard_features(self):
        Z = np.array([[1.0, 2.0], [3.0, 4.0]])
        feats = hadamard_features(Z, np.array([[0, 1]]))
        np.testing.assert_allclose(feats, [[3.0, 8.0]])


class TestTSNE:
    def test_separates_blobs(self):
        rng = np.random.default_rng(0)
        centres = np.array([[0.0] * 10, [8.0] * 10])
        labels = np.repeat([0, 1], 30)
        points = centres[labels] + rng.normal(scale=0.3, size=(60, 10))
        layout = tsne(points, perplexity=10, num_iter=250, seed=0)
        assert layout.shape == (60, 2)
        assert cluster_separation(layout, labels) > 2.0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            tsne(np.zeros((3, 2)))

    def test_cluster_separation_needs_two_classes(self):
        with pytest.raises(ValueError):
            cluster_separation(np.zeros((5, 2)), np.zeros(5))
