"""UVMBench workload tests (bayesian, knn)."""

import math

import numpy as np
import pytest

from repro.workloads.uvmbench import (Bayesian, Knn, family_counts, k2_score,
                                      knn_reference)


class TestFamilyCounts:
    def test_counts_sum_to_samples(self):
        rng = np.random.default_rng(0)
        samples = rng.integers(0, 2, size=(50, 3))
        counts = family_counts(samples, child=0, parents=(1, 2))
        assert sum(int(v.sum()) for v in counts.values()) == 50

    def test_no_parents_single_config(self):
        samples = np.array([[0], [1], [1]])
        counts = family_counts(samples, child=0, parents=())
        assert list(counts) == [()]
        np.testing.assert_array_equal(counts[()], [1, 2])


class TestK2Score:
    def test_matches_hand_computed_value(self):
        # 3 samples, child values [0, 1, 1], no parents:
        # score = log( 1!/(3+1)! * 1! * 2! ) = log(2/24).
        samples = np.array([[0], [1], [1]])
        assert k2_score(samples, 0, ()) == pytest.approx(
            math.log(2.0 / 24.0))

    def test_dependent_parent_scores_higher(self):
        rng = np.random.default_rng(1)
        x0 = rng.integers(0, 2, size=300)
        x1 = np.where(rng.random(300) < 0.95, x0, 1 - x0)
        x2 = rng.integers(0, 2, size=300)
        samples = np.stack([x0, x1, x2], axis=1)
        assert k2_score(samples, 1, (0,)) > k2_score(samples, 1, (2,))

    def test_best_parent_finds_dependency(self):
        result = Bayesian().reference()
        assert result["best_parent"] == 0


class TestKnn:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((100, 3))
        query = rng.standard_normal(3)
        result = knn_reference(points, query, k=7)
        distances = np.linalg.norm(points - query, axis=1)
        expected = np.argsort(distances, kind="stable")[:7]
        np.testing.assert_array_equal(result["indices"], expected)

    def test_distances_sorted_ascending(self):
        result = Knn().reference()
        distances = result["distances"]
        assert all(a <= b for a, b in zip(distances, distances[1:]))

    def test_query_itself_is_nearest(self):
        points = np.array([[5.0, 5.0], [0.0, 0.0], [9.0, 9.0]])
        result = knn_reference(points, np.array([0.1, 0.0]), k=1)
        assert result["indices"][0] == 1

    def test_rejects_1d_points(self):
        with pytest.raises(ValueError):
            knn_reference(np.zeros(5), np.zeros(1))
