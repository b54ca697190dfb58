"""Concept taxonomies (IS-A hierarchies).

The paper computes concept/concept sub-distances with "any distance semantic
based on the available ontologies, taxonomies or vocabularies, i.e.
Wu & Palmer".  All of the classical similarity measures (Wu & Palmer, path,
Leacock–Chodorow, Resnik, Lin, Jiang–Conrath) need the same primitives from
the underlying taxonomy:

* the depth of a concept (distance from the root),
* the set of ancestors of a concept,
* the least common subsumer (LCS) of two concepts,
* the shortest IS-A path length between two concepts,
* optionally, per-concept information content.

:class:`Taxonomy` provides those primitives over an in-memory IS-A DAG
(multiple parents are allowed; cycles are rejected).
"""

from __future__ import annotations

from collections import deque
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from repro.errors import TaxonomyError

__all__ = ["Taxonomy"]


class Taxonomy:
    """An IS-A directed acyclic graph over concept names.

    Concepts are identified by plain strings (the fully-qualified or local
    names used by the vocabulary layer).  Every taxonomy has a single
    *virtual root*; top-level concepts added without a parent become
    children of that root so that any two concepts always have a least
    common subsumer.
    """

    #: Name of the implicit root concept.
    ROOT = "⊤"

    def __init__(self, root_name: str | None = None):
        self._root = root_name or self.ROOT
        self._parents: Dict[str, Set[str]] = {self._root: set()}
        self._children: Dict[str, Set[str]] = {self._root: set()}
        self._depth_cache: Dict[str, int] = {}
        #: Per concept, the concept itself and all of its ancestors.
        self._closure_cache: Dict[str, FrozenSet[str]] = {}

    # -- construction -----------------------------------------------------------

    @property
    def root(self) -> str:
        """The name of the (virtual) root concept."""
        return self._root

    def add_concept(self, concept: str, parents: Sequence[str] | str | None = None) -> None:
        """Add ``concept`` with the given parent(s).

        A concept added without parents (or with an unknown parent list)
        hangs directly below the root.  Adding an existing concept with new
        parents extends its parent set.

        Raises
        ------
        TaxonomyError
            If the edge would introduce a cycle, or a parent is unknown.
        """
        if not concept:
            raise TaxonomyError("cannot add a concept with an empty name")
        if concept == self._root:
            raise TaxonomyError("the root concept is implicit and cannot be re-added")
        if isinstance(parents, str):
            parents = [parents]
        parent_list = list(parents) if parents else [self._root]

        self._parents.setdefault(concept, set())
        self._children.setdefault(concept, set())

        for parent in parent_list:
            if parent not in self._parents:
                raise TaxonomyError(
                    f"unknown parent {parent!r} for concept {concept!r}; add parents first"
                )
            if parent == concept or self._reachable(concept, parent):
                raise TaxonomyError(
                    f"adding {concept!r} below {parent!r} would create a cycle"
                )
            self._parents[concept].add(parent)
            self._children[parent].add(concept)
        self._invalidate_caches()

    def add_edges(self, edges: Iterable[Tuple[str, str]]) -> None:
        """Add many ``(child, parent)`` edges, creating missing parents under the root."""
        for child, parent in edges:
            if parent not in self._parents:
                self.add_concept(parent)
            self.add_concept(child, parent)

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[str, str]], root_name: str | None = None) -> "Taxonomy":
        """Build a taxonomy from ``(child, parent)`` pairs."""
        taxonomy = cls(root_name)
        taxonomy.add_edges(edges)
        return taxonomy

    @classmethod
    def from_nested(cls, tree: Mapping[str, object], root_name: str | None = None) -> "Taxonomy":
        """Build a taxonomy from a nested mapping ``{concept: {child: {...}}}``."""
        taxonomy = cls(root_name)

        def _add(sub: Mapping[str, object], parent: Optional[str]) -> None:
            for concept, children in sub.items():
                taxonomy.add_concept(concept, parent)
                if isinstance(children, Mapping):
                    _add(children, concept)

        _add(tree, None)
        return taxonomy

    def _invalidate_caches(self) -> None:
        self._depth_cache.clear()
        self._closure_cache.clear()

    def _reachable(self, start: str, target: str) -> bool:
        """True if ``target`` is reachable from ``start`` following child edges."""
        if start not in self._children:
            return False
        queue = deque([start])
        seen = {start}
        while queue:
            node = queue.popleft()
            if node == target:
                return True
            for child in self._children.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        return False

    # -- basic queries ------------------------------------------------------------

    def __contains__(self, concept: str) -> bool:
        return concept in self._parents

    def __len__(self) -> int:
        """Number of concepts, excluding the virtual root."""
        return len(self._parents) - 1

    def __iter__(self) -> Iterator[str]:
        return (concept for concept in self._parents if concept != self._root)

    def concepts(self) -> List[str]:
        """All concept names (excluding the virtual root), sorted."""
        return sorted(self)

    def parents_of(self, concept: str) -> Set[str]:
        """Direct parents of a concept."""
        self._require(concept)
        return set(self._parents[concept])

    def children_of(self, concept: str) -> Set[str]:
        """Direct children of a concept."""
        self._require(concept)
        return set(self._children[concept])

    def leaves(self) -> List[str]:
        """Concepts with no children."""
        return sorted(c for c in self if not self._children[c])

    def _require(self, concept: str) -> None:
        if concept not in self._parents:
            raise TaxonomyError(f"unknown concept {concept!r}")

    # -- structural primitives used by similarity measures --------------------------

    def depth(self, concept: str) -> int:
        """Length of the shortest path from the root to ``concept`` (root depth is 0)."""
        self._require(concept)
        cached = self._depth_cache.get(concept)
        if cached is not None:
            return cached
        depth = self._shortest_up_path(concept, self._root)
        if depth is None:  # pragma: no cover - every concept is attached to the root
            raise TaxonomyError(f"concept {concept!r} is not connected to the root")
        self._depth_cache[concept] = depth
        return depth

    def max_depth(self) -> int:
        """Depth of the deepest concept in the taxonomy."""
        if len(self) == 0:
            return 0
        return max(self.depth(concept) for concept in self)

    def ancestors(self, concept: str, *, include_self: bool = True) -> Set[str]:
        """All ancestors of ``concept`` (including the root and, optionally, itself)."""
        result = set(self._closure(concept))
        if not include_self:
            result.discard(concept)
        return result

    def _closure(self, concept: str) -> FrozenSet[str]:
        """``concept`` and all of its ancestors, cached and shared (never copied)."""
        cached = self._closure_cache.get(concept)
        if cached is None:
            self._require(concept)
            closure = {concept}
            queue = deque([concept])
            while queue:
                node = queue.popleft()
                for parent in self._parents.get(node, ()):
                    if parent not in closure:
                        closure.add(parent)
                        queue.append(parent)
            cached = self._closure_cache[concept] = frozenset(closure)
        return cached

    def descendants(self, concept: str, *, include_self: bool = True) -> Set[str]:
        """All descendants of ``concept`` (optionally including itself)."""
        self._require(concept)
        result: Set[str] = {concept} if include_self else set()
        queue = deque([concept])
        while queue:
            node = queue.popleft()
            for child in self._children.get(node, ()):
                if child not in result:
                    result.add(child)
                    queue.append(child)
        if not include_self:
            result.discard(concept)
        return result

    def _shortest_up_path(self, start: str, target: str) -> Optional[int]:
        """Shortest number of IS-A edges from ``start`` up to ``target``."""
        if start == target:
            return 0
        queue = deque([(start, 0)])
        seen = {start}
        while queue:
            node, distance = queue.popleft()
            for parent in self._parents.get(node, ()):
                if parent == target:
                    return distance + 1
                if parent not in seen:
                    seen.add(parent)
                    queue.append((parent, distance + 1))
        return None

    def lcs(self, concept_a: str, concept_b: str) -> str:
        """Least common subsumer: the deepest shared ancestor of the two concepts."""
        common = self._closure(concept_a) & self._closure(concept_b)
        if not common:  # pragma: no cover - the root is always shared
            return self._root
        return max(common, key=lambda concept: (self.depth(concept), concept))

    def path_length(self, concept_a: str, concept_b: str) -> int:
        """Shortest IS-A path length between two concepts (through their LCS)."""
        self._require(concept_a)
        self._require(concept_b)
        if concept_a == concept_b:
            return 0
        best: Optional[int] = None
        common = self._closure(concept_a) & self._closure(concept_b)
        for ancestor in common:
            up_a = self._shortest_up_path(concept_a, ancestor)
            up_b = self._shortest_up_path(concept_b, ancestor)
            if up_a is None or up_b is None:
                continue
            total = up_a + up_b
            if best is None or total < best:
                best = total
        if best is None:  # pragma: no cover - the root is always shared
            raise TaxonomyError(
                f"no common ancestor between {concept_a!r} and {concept_b!r}"
            )
        return best

    # -- information content ---------------------------------------------------------

    def intrinsic_information_content(self, concept: str) -> float:
        """Intrinsic IC (Seco et al.): ``1 - log(|descendants|)/log(|concepts|)``.

        Returns a value in ``[0, 1]``; leaves get IC 1, the root gets IC 0.
        Used by Resnik/Lin/Jiang–Conrath when no corpus statistics are
        available.
        """
        self._require(concept)
        total = len(self) + 1  # include the root in the universe
        if total <= 1:
            return 0.0
        if concept == self._root:
            return 0.0
        import math

        descendant_count = len(self.descendants(concept, include_self=True))
        return 1.0 - math.log(descendant_count) / math.log(total)

    def __repr__(self) -> str:
        return f"Taxonomy(concepts={len(self)}, max_depth={self.max_depth()})"
