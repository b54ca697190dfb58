"""Answer checking against an in-process exact index over the same points.

The oracle is a :class:`~repro.baselines.linear_scan.LinearScanIndex` over
every point of the benchmark's own in-process :class:`SemTreeIndex` (the
index the server's checkpoint was written from) plus one point per
acknowledged insert, projected by the same in-process index.  The contract
checked is the repository's exactness contract: distances must be exact,
and answer sets exact up to equal-distance ties at the k-th distance.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.baselines.linear_scan import LinearScanIndex
from repro.core.point import LabeledPoint
from repro.io.serialization import triple_from_dict

from corpus import K, RADIUS, oracle_points


class Oracle:
    def __init__(self, index, inserted: Iterable = ()):
        self._index = index
        points = oracle_points(index)
        points.extend(self._point(triple) for triple in inserted)
        self._scan = LinearScanIndex(points)

    def _point(self, triple) -> LabeledPoint:
        return LabeledPoint.of(self._index.embed_query(triple).coordinates,
                               label=triple)

    def check(self, kind: str, triple, body: bytes) -> Optional[str]:
        """``None`` when the served answer is exact, else what differs."""
        served = [(triple_from_dict(match["triple"]), match["distance"])
                  for match in json.loads(body)["matches"]]
        query = self._point(triple)
        if kind == "range":
            expected = [(n.point.label, n.distance)
                        for n in self._scan.range_query(query, RADIUS)]
            if Counter(served) != Counter(expected):
                return f"range {triple}: served {served} expected {expected}"
            return None
        expected = self._scan.k_nearest(query, K)
        if [d for _, d in served] != [n.distance for n in expected]:
            return (f"knn {triple}: distances {[d for _, d in served]} "
                    f"expected {[n.distance for n in expected]}")
        kth = expected[-1].distance
        inner = Counter((n.point.label, n.distance) for n in expected
                        if n.distance < kth)
        if Counter(m for m in served if m[1] < kth) != inner:
            return f"knn {triple}: answer set differs below the k-th distance"
        tied = {n.point.label for n in self._scan.range_query(query, kth)
                if n.distance == kth}
        if any(t not in tied for t, d in served if d == kth):
            return f"knn {triple}: a tie at the k-th distance is not a true tie"
        return None


def check_all(oracle: Oracle, checks: Sequence[Tuple[str, object, Optional[bytes]]]
              ) -> List[str]:
    """Check every ``(kind, triple, body)``; a missing body is a mismatch."""
    problems = []
    for kind, triple, body in checks:
        if body is None:
            problems.append(f"{kind} {triple}: no answer")
            continue
        problem = oracle.check(kind, triple, body)
        if problem is not None:
            problems.append(problem)
    return problems
