"""Tests for the FastMap embedding algorithm."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding import FastMap, FastMapSpace
from repro.errors import EmbeddingError


def euclidean(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


@pytest.fixture
def planar_objects():
    """Points that already live in a 2-D Euclidean space (FastMap should be near-exact)."""
    return [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5),
            (2.0, 0.0), (0.0, 2.0), (2.0, 2.0), (1.5, 0.5), (0.25, 1.75)]


class TestFit:
    def test_produces_requested_dimensions(self, planar_objects):
        space = FastMap(euclidean, dimensions=2, seed=0).fit(planar_objects)
        assert space.dimensions == 2
        assert space.coordinates.shape == (len(planar_objects), 2)

    def test_euclidean_input_distances_preserved(self, planar_objects):
        space = FastMap(euclidean, dimensions=2, seed=0).fit(planar_objects)
        for i in range(len(planar_objects)):
            for j in range(i + 1, len(planar_objects)):
                original = euclidean(planar_objects[i], planar_objects[j])
                embedded = float(np.linalg.norm(space.coordinates[i] - space.coordinates[j]))
                assert embedded == pytest.approx(original, abs=1e-6)

    def test_fewer_than_two_objects_rejected(self):
        with pytest.raises(EmbeddingError):
            FastMap(euclidean, dimensions=2).fit([(0.0, 0.0)])

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(EmbeddingError):
            FastMap(euclidean, dimensions=0)

    def test_invalid_pivot_iterations_rejected(self):
        with pytest.raises(EmbeddingError):
            FastMap(euclidean, dimensions=2, pivot_iterations=0)

    def test_negative_distance_rejected(self):
        space_builder = FastMap(lambda a, b: -1.0, dimensions=1)
        with pytest.raises(EmbeddingError):
            space_builder.fit([(0,), (1,)])

    def test_coordinate_step_reuses_the_pivot_walk_rows(self, planar_objects):
        # With the default five-step walk both pivots' rows come from the walk.
        fastmap = FastMap(euclidean, dimensions=2, seed=0)
        fastmap.fit(planar_objects)
        assert fastmap.distance_evaluations == 2 * 5 * len(planar_objects)

    def test_missing_pivot_row_is_recomputed(self, planar_objects):
        # A one-step walk never visits its second pivot: that row is computed
        # by the coordinate step, and the cosine law still holds exactly.
        fastmap = FastMap(euclidean, dimensions=1, pivot_iterations=1, seed=0)
        space = fastmap.fit(planar_objects)
        assert fastmap.distance_evaluations == 2 * len(planar_objects)
        pivot = space.pivots[0]
        for obj, coordinate in zip(planar_objects, space.coordinates[:, 0]):
            d_a = euclidean(obj, pivot.first)
            d_b = euclidean(obj, pivot.second)
            assert coordinate == pytest.approx(
                (d_a * d_a + pivot.distance ** 2 - d_b * d_b) / (2 * pivot.distance))

    def test_identical_objects_collapse_to_one_dimension(self):
        objects = ["same"] * 5
        space = FastMap(lambda a, b: 0.0, dimensions=3, seed=0).fit(objects)
        assert space.dimensions == 1
        assert np.allclose(space.coordinates, 0.0)

    def test_dimensions_capped_when_residual_collapses(self):
        # Three collinear points span exactly one dimension.
        objects = [(0.0,), (1.0,), (2.0,)]
        space = FastMap(euclidean, dimensions=3, seed=0).fit(objects)
        assert space.dimensions <= 2

    def test_deterministic_for_fixed_seed(self, planar_objects):
        space_a = FastMap(euclidean, dimensions=2, seed=7).fit(planar_objects)
        space_b = FastMap(euclidean, dimensions=2, seed=7).fit(planar_objects)
        assert np.allclose(space_a.coordinates, space_b.coordinates)

    def test_distance_evaluation_counter_increases(self, planar_objects):
        embedder = FastMap(euclidean, dimensions=2, seed=0)
        embedder.fit(planar_objects)
        assert embedder.distance_evaluations > 0


class TestSpaceLookups:
    def test_coordinates_of_in_sample_object(self, planar_objects):
        space = FastMap(euclidean, dimensions=2, seed=0).fit(planar_objects)
        assert space.coordinates_of(planar_objects[3]) == pytest.approx(
            list(space.coordinates[3])
        )

    def test_membership(self, planar_objects):
        space = FastMap(euclidean, dimensions=2, seed=0).fit(planar_objects)
        assert planar_objects[0] in space
        assert (9.9, 9.9) not in space

    def test_coordinates_of_unknown_object_raises(self, planar_objects):
        space = FastMap(euclidean, dimensions=2, seed=0).fit(planar_objects)
        with pytest.raises(EmbeddingError):
            space.coordinates_of((9.9, 9.9))

    def test_len(self, planar_objects):
        space = FastMap(euclidean, dimensions=2, seed=0).fit(planar_objects)
        assert len(space) == len(planar_objects)


class TestProjection:
    def test_in_sample_projection_equals_stored_coordinates(self, planar_objects):
        embedder = FastMap(euclidean, dimensions=2, seed=0)
        space = embedder.fit(planar_objects)
        projected = embedder.project(planar_objects[2], space)
        assert projected == pytest.approx(list(space.coordinates[2]))

    def test_out_of_sample_projection_close_to_true_distances(self, planar_objects):
        embedder = FastMap(euclidean, dimensions=2, seed=0)
        space = embedder.fit(planar_objects)
        query = (0.6, 0.4)
        projected = embedder.project(query, space)
        for index, obj in enumerate(planar_objects):
            original = euclidean(query, obj)
            embedded = float(np.linalg.norm(projected - space.coordinates[index]))
            assert embedded == pytest.approx(original, abs=1e-5)

    def test_fit_transform_returns_space_and_matrix(self, planar_objects):
        space, matrix = FastMap(euclidean, dimensions=2, seed=0).fit_transform(planar_objects)
        assert isinstance(space, FastMapSpace)
        assert matrix.shape == (len(planar_objects), 2)


class TestNonEuclideanInput:
    @given(seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=10, deadline=None)
    def test_discrete_metric_embedding_is_bounded(self, seed):
        # The discrete metric (0/1) is not Euclidean; FastMap must still
        # produce finite coordinates and never crash.
        objects = [f"o{i}" for i in range(8)]
        embedder = FastMap(lambda a, b: 0.0 if a == b else 1.0, dimensions=3, seed=seed)
        space = embedder.fit(objects)
        assert np.isfinite(space.coordinates).all()
        assert 1 <= space.dimensions <= 3
