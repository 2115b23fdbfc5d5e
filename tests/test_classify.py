import itertools
import random
from collections import defaultdict

import pytest

from conftest import chain_of
from oracles import CYCLE_LENGTHS, classify_1_face, face_of, key_of, nested_key, span_class
from simplepa import (
    ALPHA,
    SIGMA,
    Chain,
    DiagramType,
    ResourceCapError,
    boundary_cycle,
    classify_2_face,
    diagram_census,
    enumerate_chains,
    enumerate_vertices,
    faces,
)
from simplepa import nestedsets


def test_classify_1_face_examples():
    m = chain_of({1, 0, 3}, {1, 0}, {1})
    assert classify_1_face({m, chain_of({1})}, 3) == ALPHA
    assert classify_1_face({chain_of({1}), chain_of({1, 0, 3})}, 3) == SIGMA


def test_classify_1_face_validation():
    with pytest.raises(ValueError):
        classify_1_face({chain_of({1})}, 3)  # wrong cardinality
    with pytest.raises(ValueError):
        classify_1_face({chain_of({0, 1}), chain_of({1, 2})}, 3)  # not nested


def test_edge_census_n3():
    kinds = [classify_1_face(face_of(key, 3), 3) for key in faces(3, 1)]
    assert kinds.count(SIGMA) == 60
    assert kinds.count(ALPHA) == 120


def test_classify_2_face_explicit_shapes_n5():
    m = chain_of({0, 1, 2, 3, 4}, {0, 1, 2, 3}, {0, 1, 2}, {0, 1}, {0})
    f1 = frozenset([m, chain_of({0, 1, 2, 3}, {0, 1, 2}, {0, 1}, {0}), chain_of({0})])
    f2 = frozenset([m, chain_of({0, 1, 2, 3, 4}, {0, 1, 2, 3}), chain_of({0, 1}, {0})])
    f3 = frozenset([m, chain_of({0, 1, 2, 3}, {0, 1, 2}, {0, 1}, {0}), chain_of({0, 1}, {0})])
    f4 = frozenset([chain_of({0, 1, 2, 3, 4}), chain_of({0, 1, 2}, {0, 1}, {0}), chain_of({0})])
    f5 = frozenset([chain_of({0, 1, 2, 3, 4}), chain_of({0, 1, 2}), chain_of({0})])
    f6 = frozenset([chain_of({0, 1, 2, 3, 4}), chain_of({0, 1}, {0}), chain_of({0})])
    assert classify_2_face(f1, 5) is DiagramType.PENTAGON
    assert classify_2_face(f2, 5) is DiagramType.QUAD_FUNCTORIAL
    assert classify_2_face(f3, 5) is DiagramType.QUAD_NATURAL
    assert classify_2_face(f4, 5) is DiagramType.QUAD_SIGMA
    assert classify_2_face(f5, 5) is DiagramType.OCTAGON
    assert classify_2_face(f6, 5) is DiagramType.DODECAGON


def test_classify_2_face_by_chain_shape_n3():
    # at n=3 the 2-faces are the facets themselves, one singleton per chain
    for c in enumerate_chains(3):
        kind = classify_2_face(frozenset([c]), 3)
        if c.num_sets == 3:
            assert kind is DiagramType.PENTAGON
        elif c.num_sets == 2:
            assert kind is DiagramType.QUAD_SIGMA
        elif len(c.core) == 2:
            assert kind is DiagramType.OCTAGON
        else:
            assert kind is DiagramType.DODECAGON


def test_classify_2_face_validation():
    with pytest.raises(ValueError):
        classify_2_face(frozenset(), 2)  # the body of the 12-gon
    with pytest.raises(ValueError):
        classify_2_face(frozenset([chain_of({0})]), 2)  # wrong cardinality
    with pytest.raises(ValueError):
        classify_2_face(frozenset([chain_of({0, 1}), chain_of({1, 2})]), 4)  # not nested
    with pytest.raises(ValueError):
        classify_2_face(frozenset([chain_of({0})]), 1)


def test_boundary_cycle_lengths_match_types_n3():
    for key in faces(3, 2):
        kind = classify_2_face(face_of(key, 3), 3)
        cycle = [face_of(v, 3) for v in boundary_cycle(key, 3)]
        assert len(cycle) == CYCLE_LENGTHS[kind]
        assert len(set(cycle)) == len(cycle)
        for i in range(len(cycle)):
            assert len(cycle[i] & cycle[(i + 1) % len(cycle)]) == 2


def test_boundary_cycle_edge_patterns_n3():
    # pentagons are bounded by rotations only; the larger polygons alternate
    patterns = {}
    for key in faces(3, 2):
        kind = classify_2_face(face_of(key, 3), 3)
        cycle = [face_of(v, 3) for v in boundary_cycle(key, 3)]
        edges = [
            classify_1_face(cycle[i] & cycle[(i + 1) % len(cycle)], 3)
            for i in range(len(cycle))
        ]
        patterns.setdefault(kind, set()).add("".join(e[0] for e in edges))
    assert patterns[DiagramType.PENTAGON] == {"aaaaa"}
    assert patterns[DiagramType.QUAD_SIGMA] == {"sasa"}
    assert patterns[DiagramType.OCTAGON] == {"sasasasa"}
    assert patterns[DiagramType.DODECAGON] == {"sasasasasasa"}


def test_boundary_cycle_agrees_with_a_brute_force_oracle():
    for n in (3, 4):
        verts = [face_of(v, n) for v in enumerate_vertices(n)]
        for key in faces(n, 2):
            f = face_of(key, n)
            incident = {v for v in verts if f <= v}
            start = min(incident, key=nested_key)
            neighbours = [v for v in incident if len(v & start) == n - 1]
            cycle = [face_of(v, n) for v in boundary_cycle(key, n)]
            assert cycle[0] == start
            assert len(neighbours) == 2
            assert cycle[1] == min(neighbours, key=nested_key)
            assert all(len(a & b) == n - 1 for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            assert len(cycle) == len(set(cycle)) and set(cycle) == incident


def test_boundary_cycle_rejects_non_2_faces():
    with pytest.raises(ValueError):
        boundary_cycle(key_of([chain_of({0}), chain_of({0, 1, 2}, {0, 1})], 3), 3)


def test_boundary_cycle_rejects_a_key_that_is_not_increasing_ranks():
    top = len(enumerate_chains(3)) - 1
    assert boundary_cycle((top,), 3)  # the last rank names a facet of PA_3
    for key in [(-1,), (top + 1,)]:  # negative, out of range
        with pytest.raises(ValueError, match="strictly increasing ranks"):
            boundary_cycle(key, 3)
    a, b = faces(4, 2)[0]
    for key in [(a, a), (b, a)]:  # repeated, unsorted
        with pytest.raises(ValueError, match="strictly increasing ranks"):
            boundary_cycle(key, 4)
    with pytest.raises(ValueError, match="a 2-face must have 2 chains"):
        boundary_cycle((a,), 4)  # one chain at n = 4 is a facet, not a 2-face


def test_boundary_cycle_refuses_n_above_the_cap_before_listing_chains(monkeypatch):
    def refuse(n):
        raise AssertionError(f"the chains of n = {n} were enumerated")

    monkeypatch.delenv("PA_MAX_N", raising=False)
    monkeypatch.setattr(nestedsets, "_enumerate_chains", refuse)
    with pytest.raises(ResourceCapError, match="n=8 exceeds the enumeration cap 6"):
        boundary_cycle((0,), 8)


def test_diagram_census_n2_reports_the_body():
    census = diagram_census(2)
    assert census.counts == {}
    assert census.body_faces == 1
    assert census.total == 0


def test_diagram_census_n3():
    census = diagram_census(3)
    assert census.counts == {
        DiagramType.PENTAGON: 24,
        DiagramType.QUAD_SIGMA: 24,
        DiagramType.OCTAGON: 6,
        DiagramType.DODECAGON: 8,
    }
    assert census.body_faces == 0
    assert census.total == len(faces(3, 2))


def test_diagram_census_validation():
    with pytest.raises(ValueError):
        diagram_census(1)


def test_diagram_census_carries_each_face_with_its_type():
    for n in (2, 3, 4):
        census = diagram_census(n)
        labelled = [(face_of(key, n), kind) for key, kind in census.faces]
        every = sorted((face_of(key, n) for key in faces(n, 2)), key=nested_key)
        assert [f for f, _ in labelled] == every
        assert all(kind == (classify_2_face(f, n) if f else None) for f, kind in labelled)
        assert census.total + census.body_faces == len(census.faces)
        assert repr(census) == (
            f"DiagramCensus(counts={census.counts!r}, body_faces={census.body_faces})"
        )


def _relabel(f, perm):
    return frozenset(
        Chain(frozenset(perm[x] for x in c.core), tuple(perm[x] for x in c.ext)) for c in f
    )


@pytest.mark.parametrize(("n", "classes"), [(3, 6), (4, 30)])
def test_each_span_class_is_one_label_orbit_of_one_type(n, classes):
    # the lemma behind diagram_census: faces with the same spans are exactly
    # the relabellings of one face, and relabelling keeps the diagram type
    by_class = defaultdict(set)
    for f in (face_of(key, n) for key in faces(n, 2)):
        by_class[span_class(f)].add(f)
    assert len(by_class) == classes
    perms = list(itertools.permutations(range(n + 1)))
    for members in by_class.values():
        representative = min(members, key=nested_key)
        assert {_relabel(representative, p) for p in perms} == members
        assert len({classify_2_face(f, n) for f in members}) == 1


def test_census_types_agree_with_per_face_classification_n5():
    census = diagram_census(5)
    assert len(census.faces) == 64680
    for key, kind in random.Random(23).sample(census.faces, 2000):
        assert kind is classify_2_face(face_of(key, 5), 5)
