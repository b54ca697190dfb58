"""FastMap — Faloutsos & Lin (1995), cited as [12] by the paper.

FastMap embeds objects of an arbitrary metric (or quasi-metric) space into a
k-dimensional Euclidean space using only the pairwise distance function.
The paper uses it to map triples, "together with related distances, into a
vectorial space ... on which it is possible to define an efficient indexing
structure".

The classical algorithm, reproduced here:

1. For each target dimension, choose two *pivot* objects that are far apart
   (the heuristic: start from a random object, walk to its farthest object a
   constant number of times).
2. Project every object on the line defined by the two pivots with the
   cosine-law formula::

       x_i = (d(o_i, p_a)^2 + d(p_a, p_b)^2 - d(o_i, p_b)^2) / (2 d(p_a, p_b))

3. Recurse on the *residual* distance

       d'(o_i, o_j)^2 = d(o_i, o_j)^2 - (x_i - x_j)^2

   for the remaining dimensions (clamped at zero, because real semantic
   distances are rarely perfectly Euclidean).

The implementation also supports projecting *out-of-sample* objects (query
triples) into an already-computed space, which is what SemTree uses at
query time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generic, Hashable, List, Sequence, 
                    Tuple, TypeVar)

import numpy as np

from repro.errors import EmbeddingError

__all__ = ["FastMap", "FastMapSpace", "PivotPair"]

ObjectT = TypeVar("ObjectT", bound=Hashable)

#: A distance function over arbitrary objects.
DistanceFunction = Callable[[ObjectT, ObjectT], float]


@dataclass(frozen=True, slots=True)
class PivotPair(Generic[ObjectT]):
    """The two pivot objects chosen for one FastMap dimension, and their distance."""

    first: ObjectT
    second: ObjectT
    distance: float


@dataclass
class FastMapSpace(Generic[ObjectT]):
    """The result of a FastMap embedding.

    Attributes
    ----------
    dimensions:
        Number of embedding dimensions actually produced (may be lower than
        requested when the residual distance collapses to zero).
    objects:
        The embedded objects, in input order.
    coordinates:
        ``(len(objects), dimensions)`` array of coordinates.
    pivots:
        One :class:`PivotPair` per dimension.
    """

    dimensions: int
    objects: List[ObjectT]
    coordinates: np.ndarray
    pivots: List[PivotPair[ObjectT]]
    _index_of: Dict[ObjectT, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._index_of:
            self._index_of = {obj: i for i, obj in enumerate(self.objects)}

    def coordinates_of(self, obj: ObjectT) -> np.ndarray:
        """Coordinates of an in-sample object.

        Raises
        ------
        EmbeddingError
            If the object was not part of the embedded set.
        """
        index = self._index_of.get(obj)
        if index is None:
            raise EmbeddingError("object was not part of the embedded set")
        return self.coordinates[index]

    def __contains__(self, obj: ObjectT) -> bool:
        return obj in self._index_of

    def __len__(self) -> int:
        return len(self.objects)

    # -- snapshot support ------------------------------------------------------------

    def to_payload(self, serialise: Callable[[ObjectT], Any]) -> Dict[str, Any]:
        """Serialise the space to a JSON-compatible payload.

        ``serialise`` converts one embedded object (e.g. a triple) to a
        JSON-compatible value.  Pivots are stored as indices into the object
        list — they are always members of the fitted set.
        """
        return {
            "dimensions": self.dimensions,
            "objects": [serialise(obj) for obj in self.objects],
            "coordinates": self.coordinates.tolist(),
            "pivots": [
                {
                    "first": self._index_of[pivot.first],
                    "second": self._index_of[pivot.second],
                    "distance": pivot.distance,
                }
                for pivot in self.pivots
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any],
                     deserialise: Callable[[Any], ObjectT]) -> "FastMapSpace[ObjectT]":
        """Inverse of :meth:`to_payload`."""
        objects = [deserialise(entry) for entry in payload["objects"]]
        dimensions = int(payload["dimensions"])
        coordinates = np.asarray(payload["coordinates"], dtype=float)
        coordinates = coordinates.reshape(len(objects), dimensions)
        pivots = [
            PivotPair(objects[entry["first"]], objects[entry["second"]],
                      float(entry["distance"]))
            for entry in payload["pivots"]
        ]
        return cls(dimensions=dimensions, objects=objects,
                   coordinates=coordinates, pivots=pivots)


class FastMap(Generic[ObjectT]):
    """FastMap embedder over an arbitrary distance function.

    Parameters
    ----------
    distance:
        The (symmetric, non-negative) distance function between objects.
    dimensions:
        Number of target dimensions ``k``.
    pivot_iterations:
        Number of "walk to the farthest object" steps of the pivot
        heuristic (Faloutsos & Lin use a small constant; 5 by default).
    seed:
        Seed of the internal random generator, for reproducible pivots.
    """

    def __init__(self, distance: DistanceFunction, dimensions: int = 4,
                 *, pivot_iterations: int = 5, seed: int | None = 0):
        if dimensions < 1:
            raise EmbeddingError(f"dimensions must be >= 1, got {dimensions}")
        if pivot_iterations < 1:
            raise EmbeddingError(f"pivot_iterations must be >= 1, got {pivot_iterations}")
        self._distance = distance
        self.dimensions = dimensions
        self.pivot_iterations = pivot_iterations
        self._random = random.Random(seed)
        #: Count of distance-function evaluations performed by the last fit.
        self.distance_evaluations = 0

    # -- internal helpers -------------------------------------------------------------

    def _base_distance(self, a: ObjectT, b: ObjectT) -> float:
        self.distance_evaluations += 1
        value = self._distance(a, b)
        if value < 0:
            raise EmbeddingError(f"distance function returned a negative value: {value}")
        return value

    def _residual_distance(self, a_index: int, b_index: int, objects: Sequence[ObjectT],
                           coordinates: np.ndarray, upto_dimension: int) -> float:
        """Distance in the residual space after ``upto_dimension`` projections."""
        base = self._base_distance(objects[a_index], objects[b_index])
        squared = base * base
        for dim in range(upto_dimension):
            delta = coordinates[a_index, dim] - coordinates[b_index, dim]
            squared -= delta * delta
        return math.sqrt(squared) if squared > 0 else 0.0

    def _residual_row(self, source: int, objects: Sequence[ObjectT], coordinates: np.ndarray,
                      dimension: int) -> List[float]:
        """Residual distances ``d(source, i)`` for every object ``i``."""
        return [
            self._residual_distance(source, i, objects, coordinates, dimension)
            for i in range(len(objects))
        ]

    def _choose_pivots(self, objects: Sequence[ObjectT], coordinates: np.ndarray,
                       dimension: int) -> Tuple[int, int, float, Dict[int, List[float]]]:
        """The farthest-pair heuristic in the residual space of ``dimension``.

        Also returns the residual rows the walk computed, keyed by their
        source object, so that the coordinate step can reuse the pivots' rows.
        """
        n = len(objects)
        pivot_b = self._random.randrange(n)
        pivot_a = pivot_b
        best_distance = 0.0
        rows: Dict[int, List[float]] = {}
        for _ in range(self.pivot_iterations):
            distances = rows[pivot_b] = self._residual_row(
                pivot_b, objects, coordinates, dimension
            )
            farthest = int(np.argmax(distances))
            best_distance = distances[farthest]
            if farthest == pivot_b:
                break
            pivot_a, pivot_b = pivot_b, farthest
        return pivot_a, pivot_b, best_distance, rows

    # -- fitting -----------------------------------------------------------------------

    def fit(self, objects: Sequence[ObjectT]) -> FastMapSpace[ObjectT]:
        """Embed ``objects`` and return the resulting :class:`FastMapSpace`.

        Raises
        ------
        EmbeddingError
            If fewer than two objects are supplied.
        """
        objects = list(objects)
        if len(objects) < 2:
            raise EmbeddingError("FastMap needs at least two objects to embed")
        self.distance_evaluations = 0
        n = len(objects)
        coordinates = np.zeros((n, self.dimensions), dtype=float)
        pivots: List[PivotPair[ObjectT]] = []

        produced = 0
        for dimension in range(self.dimensions):
            index_a, index_b, pivot_distance, rows = self._choose_pivots(
                objects, coordinates, dimension
            )
            if pivot_distance <= 0.0:
                # Residual space collapsed: every remaining coordinate is 0.
                break
            pivots.append(
                PivotPair(objects[index_a], objects[index_b], pivot_distance)
            )
            # The walk usually ends oscillating between the two pivots, so both
            # rows are already known; same residual, same argument order.
            row_a = rows.get(index_a) or self._residual_row(
                index_a, objects, coordinates, dimension)
            row_b = rows.get(index_b) or self._residual_row(
                index_b, objects, coordinates, dimension)
            d_ab_sq = pivot_distance * pivot_distance
            for i, (d_ai, d_bi) in enumerate(zip(row_a, row_b)):
                coordinates[i, dimension] = (
                    (d_ai * d_ai + d_ab_sq - d_bi * d_bi) / (2.0 * pivot_distance)
                )
            produced = dimension + 1

        if produced == 0:
            # All objects are at distance 0 from each other; a single flat
            # dimension still lets the index operate (every point identical).
            produced = 1

        return FastMapSpace(
            dimensions=produced,
            objects=objects,
            coordinates=coordinates[:, :produced].copy(),
            pivots=pivots,
        )

    # -- out-of-sample projection ---------------------------------------------------------

    def project(self, obj: ObjectT, space: FastMapSpace[ObjectT]) -> np.ndarray:
        """Project an out-of-sample object (e.g. a query triple) into ``space``.

        The projection repeats the cosine-law formula against the stored
        pivots, using residual distances computed on the fly.
        """
        if obj in space:
            return space.coordinates_of(obj).copy()
        coordinates = np.zeros(space.dimensions, dtype=float)
        for dimension, pivot in enumerate(space.pivots):
            d_ab = pivot.distance
            d_a = self._projected_residual(obj, pivot.first, space, coordinates, dimension)
            d_b = self._projected_residual(obj, pivot.second, space, coordinates, dimension)
            coordinates[dimension] = (d_a * d_a + d_ab * d_ab - d_b * d_b) / (2.0 * d_ab)
        return coordinates

    def _projected_residual(self, obj: ObjectT, pivot: ObjectT, space: FastMapSpace[ObjectT],
                            partial: np.ndarray, upto_dimension: int) -> float:
        base = self._base_distance(obj, pivot)
        squared = base * base
        pivot_coordinates = space.coordinates_of(pivot)
        for dim in range(upto_dimension):
            delta = partial[dim] - pivot_coordinates[dim]
            squared -= delta * delta
        return math.sqrt(squared) if squared > 0 else 0.0

    def fit_transform(self, objects: Sequence[ObjectT]) -> Tuple[FastMapSpace[ObjectT], np.ndarray]:
        """Convenience: fit and also return the coordinate matrix."""
        space = self.fit(objects)
        return space, space.coordinates
