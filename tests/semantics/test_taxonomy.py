"""Tests for the concept taxonomy (IS-A DAG)."""

import pytest

from repro.errors import TaxonomyError
from repro.semantics import Taxonomy


class TestConstruction:
    def test_empty_taxonomy(self):
        taxonomy = Taxonomy()
        assert len(taxonomy) == 0
        assert taxonomy.max_depth() == 0

    def test_add_concept_without_parent_hangs_below_root(self):
        taxonomy = Taxonomy()
        taxonomy.add_concept("entity")
        assert taxonomy.parents_of("entity") == {taxonomy.root}
        assert taxonomy.depth("entity") == 1

    def test_add_concept_with_parent(self, small_taxonomy):
        assert small_taxonomy.parents_of("car") == {"vehicle"}
        assert "car" in small_taxonomy.children_of("vehicle")

    def test_multiple_parents_allowed(self):
        taxonomy = Taxonomy()
        taxonomy.add_concept("a")
        taxonomy.add_concept("b")
        taxonomy.add_concept("c", ["a"])
        taxonomy.add_concept("c", ["b"])  # extend the parent set
        assert taxonomy.parents_of("c") == {"a", "b"}

    def test_unknown_parent_rejected(self):
        taxonomy = Taxonomy()
        with pytest.raises(TaxonomyError):
            taxonomy.add_concept("child", "missing-parent")

    def test_empty_name_rejected(self):
        with pytest.raises(TaxonomyError):
            Taxonomy().add_concept("")

    def test_cycle_rejected(self):
        taxonomy = Taxonomy()
        taxonomy.add_concept("a")
        taxonomy.add_concept("b", "a")
        with pytest.raises(TaxonomyError):
            taxonomy.add_concept("a", "b")

    def test_self_parent_rejected(self):
        taxonomy = Taxonomy()
        taxonomy.add_concept("a")
        with pytest.raises(TaxonomyError):
            taxonomy.add_concept("b", "b")

    def test_from_edges(self):
        taxonomy = Taxonomy.from_edges([("car", "vehicle"), ("truck", "vehicle")])
        assert set(taxonomy) == {"car", "truck", "vehicle"}
        assert taxonomy.depth("car") == 2

    def test_from_nested(self):
        taxonomy = Taxonomy.from_nested({"vehicle": {"car": {"sports_car": {}}, "truck": {}}})
        assert taxonomy.depth("sports_car") == 3
        assert taxonomy.leaves() == ["sports_car", "truck"]


class TestQueries:
    def test_contains_and_iteration(self, small_taxonomy):
        assert "car" in small_taxonomy
        assert small_taxonomy.root not in list(small_taxonomy)
        assert len(small_taxonomy) == 9

    def test_depth(self, small_taxonomy):
        assert small_taxonomy.depth("entity") == 1
        assert small_taxonomy.depth("vehicle") == 2
        assert small_taxonomy.depth("sports_car") == 4
        assert small_taxonomy.max_depth() == 4

    def test_depth_unknown_concept(self, small_taxonomy):
        with pytest.raises(TaxonomyError):
            small_taxonomy.depth("missing")

    def test_ancestors(self, small_taxonomy):
        ancestors = small_taxonomy.ancestors("sports_car")
        assert {"sports_car", "car", "vehicle", "entity", small_taxonomy.root} == ancestors
        assert "sports_car" not in small_taxonomy.ancestors("sports_car", include_self=False)

    def test_ancestors_returns_a_private_copy(self, small_taxonomy):
        small_taxonomy.ancestors("car").add("dog")
        small_taxonomy.ancestors("car", include_self=False).clear()
        assert small_taxonomy.ancestors("car") == {"car", "vehicle", "entity",
                                                   small_taxonomy.root}
        assert small_taxonomy.lcs("car", "dog") == "entity"

    def test_new_parent_invalidates_cached_ancestors(self, small_taxonomy):
        assert small_taxonomy.lcs("truck", "dog") == "entity"
        small_taxonomy.add_concept("truck", "animal")
        assert "animal" in small_taxonomy.ancestors("truck")
        assert small_taxonomy.lcs("truck", "dog") == "animal"

    def test_lcs_tie_breaks_on_depth_then_name(self):
        # Twenty shared parents at one depth: the greatest name wins, not
        # whichever one set iteration happens to reach first.
        taxonomy = Taxonomy()
        parents = [f"p{i:02d}" for i in range(20)]
        for concept in parents:
            taxonomy.add_concept(concept)
        taxonomy.add_concept("x", parents)
        taxonomy.add_concept("y", parents)
        assert taxonomy.lcs("x", "y") == "p19"

    def test_descendants(self, small_taxonomy):
        assert small_taxonomy.descendants("vehicle") == {"vehicle", "car", "sports_car", "truck"}
        assert "vehicle" not in small_taxonomy.descendants("vehicle", include_self=False)

    def test_leaves(self, small_taxonomy):
        assert set(small_taxonomy.leaves()) == {"sports_car", "truck", "bicycle", "dog", "cat"}

    def test_lcs_same_branch(self, small_taxonomy):
        assert small_taxonomy.lcs("sports_car", "car") == "car"

    def test_lcs_siblings(self, small_taxonomy):
        assert small_taxonomy.lcs("car", "truck") == "vehicle"
        assert small_taxonomy.lcs("dog", "cat") == "animal"

    def test_lcs_distant_concepts(self, small_taxonomy):
        assert small_taxonomy.lcs("sports_car", "dog") == "entity"

    def test_lcs_identity(self, small_taxonomy):
        assert small_taxonomy.lcs("dog", "dog") == "dog"

    def test_path_length(self, small_taxonomy):
        assert small_taxonomy.path_length("dog", "dog") == 0
        assert small_taxonomy.path_length("dog", "cat") == 2
        assert small_taxonomy.path_length("sports_car", "truck") == 3
        assert small_taxonomy.path_length("sports_car", "dog") == 5

    def test_path_length_is_symmetric(self, small_taxonomy):
        assert (small_taxonomy.path_length("sports_car", "bicycle")
                == small_taxonomy.path_length("bicycle", "sports_car"))


class TestInformationContent:
    def test_root_has_zero_ic(self, small_taxonomy):
        assert small_taxonomy.intrinsic_information_content(small_taxonomy.root) == 0.0

    def test_leaves_have_maximal_ic(self, small_taxonomy):
        assert small_taxonomy.intrinsic_information_content("dog") == 1.0

    def test_internal_concept_between_zero_and_one(self, small_taxonomy):
        value = small_taxonomy.intrinsic_information_content("vehicle")
        assert 0.0 < value < 1.0

    def test_more_specific_concepts_have_higher_ic(self, small_taxonomy):
        assert (small_taxonomy.intrinsic_information_content("car")
                > small_taxonomy.intrinsic_information_content("vehicle"))
