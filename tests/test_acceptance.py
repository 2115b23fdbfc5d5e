"""Acceptance suite: one test per release criterion, each printing a PASS line.

Counts and identities are exact (no tolerances anywhere: all arithmetic is
rational), and the two stated runtime budgets are asserted with a monotonic
clock after clearing the relevant caches.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import CHAINS_N2, chain_of
from oracles import (
    CYCLE_LENGTHS,
    chain_incident,
    chain_sets,
    face_of,
    faces_via_cliques,
    is_nested_oracle,
    normalized_functional,
    suffix_interval,
)
from simplepa import (
    DiagramType,
    build_graph,
    boundary_cycle,
    classify_2_face,
    comparable,
    diagram_census,
    enumerate_chains,
    enumerate_vertices,
    f_vector,
    faces,
    facet_inequality,
    facet_rhs,
    fractional_offset,
    from_nested,
    is_full_chain,
    is_nested,
    parse_bracketing,
    polytope_graph,
    print_bracketing,
    superficial_count,
    verify_vertex,
)
from simplepa.brackets import SIGMA, BracketSyntaxError, _all_bracketings
from simplepa.nestedsets import _vertices


def _passed(number, title):
    print(f"[acceptance] criterion {number:2d} ({title}): PASS")


def test_criterion_01_chain_and_vertex_counts():
    _vertices.cache_clear()
    _all_bracketings.cache_clear()
    started = time.monotonic()
    assert set(enumerate_chains(2)) == set(CHAINS_N2)
    assert len(enumerate_chains(2)) == 12
    for n, expected in [(1, 2), (2, 12), (3, 120), (4, 1680)]:
        verts = enumerate_vertices(n)
        assert len(verts) == expected
        assert expected == math.factorial(2 * n) // math.factorial(n)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"counting took {elapsed:.1f}s"
    _passed(1, "chain and vertex counts")


def test_criterion_02_realization_at_desk_scale():
    for n in (1, 2, 3):
        points = []
        for v in enumerate_vertices(n):
            report = verify_vertex(v, n)
            assert report.tight == frozenset(v)
            assert report.strict_ok
            assert report.multiplicity_ok
            points.append(report.scaled)
        assert len(set(points)) == len(points)

    started = time.monotonic()
    points = []
    for v in enumerate_vertices(4):
        report = verify_vertex(v, 4)
        assert report.tight == frozenset(v)
        assert report.strict_ok
        assert report.multiplicity_ok
        points.append(report.scaled)
    assert len(set(points)) == len(points) == 1680
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"n=4 verification took {elapsed:.1f}s"
    _passed(2, "every vertex tight on exactly its own facets, strict elsewhere")


def test_criterion_03_f_vectors_with_independent_enumeration():
    assert f_vector(3) == (120, 180, 62)
    assert 120 - 180 + 62 == 2
    assert f_vector(2) == (12, 12)
    for n in (2, 3):
        for dim in range(n + 1):
            found = [face_of(key, n) for key in faces(n, dim)]
            assert set(found) == faces_via_cliques(n, dim)
            assert len(found) == len(set(found))
    _passed(3, "f-vectors, Euler relation, clique-oracle agreement")


def test_criterion_04_graph_equality():
    for n in (1, 2, 3, 4):
        rewrite = build_graph(n)
        assert polytope_graph(n) == rewrite
        assert rewrite.is_connected()
        for i in range(len(rewrite.vertices)):
            assert rewrite.degree(i) == n
            assert rewrite.kind_degree(i, SIGMA) == 1
    _passed(4, "polytope graph equals the rewrite graph, n-regular, one sigma")


def _independent_2_face_profile(f, n):
    """Re-derive which diagram classes could apply, straight from the raw
    conditions; used to certify the classification is total and exclusive."""
    candidates = set()
    if any(is_full_chain(c, n) for c in f):
        profile = sorted(v for c in f if (v := superficial_count(f, c)) >= 2)
        if profile == [3]:
            candidates.add(DiagramType.PENTAGON)
        if profile == [2, 2]:
            a, b = [c for c in f if superficial_count(f, c) == 2]
            candidates.add(
                DiagramType.QUAD_NATURAL if comparable(a, b) else DiagramType.QUAD_FUNCTORIAL
            )
    else:
        covered = set().union(*map(chain_sets, f))
        if len(covered) == n - 1:
            candidates.add(DiagramType.QUAD_SIGMA)
        if len(covered) == n - 2:
            missing = sorted(set(range(1, n + 1)) - {len(s) for s in covered})
            if len(missing) == 2:
                gap = (n + 1 - missing[0]) - (n + 1 - missing[1])
                candidates.add(DiagramType.OCTAGON if gap > 1 else DiagramType.DODECAGON)
    return candidates


def test_criterion_05_two_face_classification():
    # total and single-valued on every proper 2-face, n <= 4
    for n in (2, 3, 4):
        for f in (face_of(key, n) for key in faces(n, 2)):
            if not f:
                continue  # the body of the 12-gon, excluded from the census
            kind = classify_2_face(f, n)
            assert _independent_2_face_profile(f, n) == {kind}

    census = diagram_census(3)
    assert census.counts == {
        DiagramType.PENTAGON: 24,
        DiagramType.QUAD_SIGMA: 24,
        DiagramType.OCTAGON: 6,
        DiagramType.DODECAGON: 8,
    }

    # n=4 census, counted by hand from chain shapes: 120 complete chains
    # carry 6 pentagons and 3 natural quads each (via their 9 proper
    # subintervals); the second-type classes come from the pair shapes with
    # 3 resp. 2 distinct sets.  The functorial quad needs two incomparable
    # non-complete members, hence cardinality >= 3, hence n >= 5.
    census4 = diagram_census(4)
    assert census4.total == len(faces(4, 2)) == 2020
    assert census4.counts == {
        DiagramType.PENTAGON: 720,
        DiagramType.QUAD_NATURAL: 360,
        DiagramType.QUAD_SIGMA: 720,
        DiagramType.OCTAGON: 120,
        DiagramType.DODECAGON: 100,
    }

    for n in (3, 4):
        for key in faces(n, 2):
            if not key:
                continue
            assert len(boundary_cycle(key, n)) == CYCLE_LENGTHS[classify_2_face(face_of(key, n), n)]

    m = chain_of({0, 1, 2, 3, 4}, {0, 1, 2, 3}, {0, 1, 2}, {0, 1}, {0})
    shapes = [
        (frozenset([m, chain_of({0, 1, 2, 3}, {0, 1, 2}, {0, 1}, {0}), chain_of({0})]),
         DiagramType.PENTAGON),
        (frozenset([m, chain_of({0, 1, 2, 3, 4}, {0, 1, 2, 3}), chain_of({0, 1}, {0})]),
         DiagramType.QUAD_FUNCTORIAL),
        (frozenset([m, chain_of({0, 1, 2, 3}, {0, 1, 2}, {0, 1}, {0}), chain_of({0, 1}, {0})]),
         DiagramType.QUAD_NATURAL),
        (frozenset([chain_of({0, 1, 2, 3, 4}), chain_of({0, 1, 2}, {0, 1}, {0}), chain_of({0})]),
         DiagramType.QUAD_SIGMA),
        (frozenset([chain_of({0, 1, 2, 3, 4}), chain_of({0, 1, 2}), chain_of({0})]),
         DiagramType.OCTAGON),
        (frozenset([chain_of({0, 1, 2, 3, 4}), chain_of({0, 1}, {0}), chain_of({0})]),
         DiagramType.DODECAGON),
    ]
    for f, expected in shapes:
        assert classify_2_face(f, 5) is expected
    _passed(5, "2-face classification total, exclusive, census and shapes")


def test_criterion_06_facet_rhs_identities():
    for n in range(1, 9):
        for k in range(1, n + 1):
            eps = fractional_offset(k, n)
            assert 0 <= eps < 1
            for l in range(0, n - k + 1):
                value = facet_rhs(k, l, n)
                assert value == sum(3**j for j in range(l + 1, l + k + 1)) + eps
        assert fractional_offset(1, n) == 0
        assert facet_rhs(1, 0, n) == 3
        for m in range(1, n + 1):
            assert facet_rhs(1, m - 1, n) == 3**m
    _passed(6, "facet bound identities for all k, l up to n = 8")


def test_criterion_07_normalization_identity():
    n = 3
    s = 3**n - n - 1
    intervals_seen = set()
    for c in enumerate_chains(n):
        interval = suffix_interval(c, range(n + 1))
        if interval is None:
            continue
        a, b = interval
        coeffs, const = normalized_functional(facet_inequality(c, n), n)
        assert coeffs == tuple(
            Fraction(1, s) if a <= j <= b else Fraction(0) for j in range(1, n + 1)
        )
        assert const == -Fraction(3 ** (b - a + 1), s)
        intervals_seen.add(interval)
    assert intervals_seen == {(a, b) for a in range(1, n + 1) for b in range(a, n + 1)}
    _passed(7, "normalization sends standard facets to subset sums, exactly")


def test_criterion_08_oracle_equivalence():
    for n in (1, 2, 3):
        chains = enumerate_chains(n)
        for size in range(2, 5):
            for subset in itertools.combinations(chains, size):
                assert is_nested(subset, n) == is_nested_oracle(subset, n)

    for n in (1, 2, 3):
        chains = enumerate_chains(n)
        for v in enumerate_vertices(n):
            b = from_nested(face_of(v, n))
            for r, c in enumerate(chains):
                assert chain_incident(b, c) == (r in v)
    _passed(8, "pairwise nestedness equals the antichain oracle; incidence agrees")


def _random_spans(lo, hi, rng):
    """The spans, in preorder, of a random full binary tree over lo..hi."""
    if lo == hi:
        return ()
    mid = rng.randrange(lo, hi)
    return ((lo, hi), *_random_spans(lo, mid, rng), *_random_spans(mid + 1, hi, rng))


def test_criterion_09_parser_roundtrip_and_rejection():
    from simplepa import Bracketing, all_bracketings

    for n in (1, 2, 3):
        for b in all_bracketings(n):
            assert parse_bracketing(print_bracketing(b), n) == b

    rng = random.Random(6021023)
    for _ in range(1000):
        perm = list(range(7))
        rng.shuffle(perm)
        b = Bracketing(tuple(perm), _random_spans(0, 6, rng))
        assert parse_bracketing(print_bracketing(b), 6) == b

    for text, n in [
        ("((0*1)*2", 2),
        ("(0*1)*1", 2),
        ("(0*1)", 2),
        ("(0*1*2)", 2),
    ]:
        with pytest.raises(BracketSyntaxError) as err:
            parse_bracketing(text, n)
        assert isinstance(err.value.position, int)
        assert 0 <= err.value.position <= len(text)
    _passed(9, "parser round trips and rejects malformed input with positions")


def test_criterion_10_deterministic_outputs(tmp_path):
    outputs = []
    for seed, name in (("1", "a"), ("31337", "b")):
        hrep = tmp_path / f"{name}.ine"
        vrep = tmp_path / f"{name}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "simplepa.cli",
                "generate",
                "--n",
                "3",
                "--hrep",
                str(hrep),
                "--vrep",
                str(vrep),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        outputs.append((hrep.read_bytes(), vrep.read_bytes()))
    assert outputs[0] == outputs[1]
    json.loads(outputs[0][1])  # the vertex file is well-formed JSON
    _passed(10, "byte-identical generate runs across hash seeds")
