import itertools
import math
import random

import pytest
from hypothesis import given, settings

from conftest import CHAINS_N2, VERTICES_N2, bracketings, chain_of, random_bracketing
from oracles import (
    _union_admissible,
    chain_sets,
    chain_top,
    face_of,
    faces_via_cliques,
    is_nested_oracle,
    key_of,
    nested_key,
    suffix_interval,
    vertex_keys_by_bracketing,
)
from simplepa import (
    Chain,
    ResourceCapError,
    all_bracketings,
    comparable,
    diagram_census,
    enumerate_chains,
    enumerate_vertices,
    faces,
    is_full_chain,
    is_nested,
    nestedsets,
    parse_bracketing,
    superficial_count,
    to_nested,
    vertex_keys,
)


def test_chain_from_sets_roundtrip():
    c = chain_of({0, 1, 3}, {0, 1}, {1})
    assert c == Chain(frozenset({1}), (3, 0))
    assert [sorted(s) for s in chain_sets(c)] == [[0, 1, 3], [0, 1], [1]]
    assert chain_top(c) == frozenset({0, 1, 3})
    assert c.num_sets == 3


def test_chain_from_sets_rejects_bad_families():
    with pytest.raises(ValueError):
        chain_of({0, 1, 2}, {0})  # step of size two
    with pytest.raises(ValueError):
        chain_of({0, 1}, {2})  # not descending
    with pytest.raises(ValueError):
        chain_of()


def test_chain_validation():
    Chain({0}, (1,)).check(2)
    with pytest.raises(ValueError):
        Chain({0}, (3,)).check(2)  # label out of range
    with pytest.raises(ValueError):
        Chain({0, 1}, (2,)).check(2)  # top set not proper
    with pytest.raises(ValueError):
        Chain({0}).check(0)  # no polytope at n = 0
    # malformed chains are refused at construction, before any n is known
    with pytest.raises(ValueError, match="not distinct"):
        Chain({0}, (0,))
    with pytest.raises(ValueError, match="not distinct"):
        Chain({0}, (1, 1))
    with pytest.raises(ValueError, match="non-empty"):
        Chain(frozenset())
    with pytest.raises(ValueError, match="non-negative"):
        Chain({-1})
    with pytest.raises(ValueError, match="non-negative"):
        Chain({0}, (-2,))


def test_chain_mask_and_family_stay_out_of_equality():
    c = Chain({1}, (3, 0))
    assert c.mask == 0b1011
    assert c.family == frozenset({0b1011, 0b0011, 0b0010})
    assert c.family == frozenset(sum(1 << lab for lab in s) for s in chain_sets(c))
    assert c == Chain(frozenset({1}), (3, 0)) and hash(c) == hash(Chain({1}, [3, 0]))
    assert repr(c) == "Chain({1}, [3, 0])"


def test_chain_hash_matches_the_field_tuple():
    core, ext = frozenset({1, 4}), (3, 0)
    a, b = Chain(core, ext), Chain(set(core), list(ext))
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash((core, ext))


def _assert_spans_hold(b):
    """Each chain of ``to_nested(b)`` sits at its ``span``: its sets are
    the suffixes perm[lo+1:], ..., perm[hi:], and the spans are b's."""
    n, perm = b.n, b.perm
    spans = []
    for c in to_nested(b):
        lo, hi = c.span(n)
        assert chain_sets(c) == tuple(frozenset(perm[j:]) for j in range(lo + 1, hi + 1))
        spans.append((lo, hi))
    assert sorted(spans) == sorted(b.spans)


def test_chain_span_is_where_to_nested_places_the_chain():
    for n in range(1, 6):
        for b in all_bracketings(n):
            _assert_spans_hold(b)


@settings(max_examples=100, deadline=None)
@given(bracketings(max_n=8, min_n=6))
def test_chain_span_is_where_to_nested_places_the_chain_at_n6_to_8(b):
    _assert_spans_hold(b)


def test_chain_span_agrees_with_the_suffix_interval_oracle():
    # over the identity permutation the 1-based interval (a, b) is (lo + 1, hi)
    for n in range(1, 6):
        seen = 0
        for c in enumerate_chains(n):
            interval = suffix_interval(c, range(n + 1))
            if interval is not None:
                a, b = interval
                assert c.span(n) == (a - 1, b)
                seen += 1
        assert seen == n * (n + 1) // 2  # one chain per bracket over 0..n


def test_vertices_share_the_enumerated_chain_objects():
    chains = enumerate_chains(3)
    for v in enumerate_vertices(3):
        assert all(r in range(len(chains)) for r in v)
    for key in faces(3, 1):
        assert all(r in range(len(chains)) for r in key)


def test_enumerate_chains_n1():
    assert enumerate_chains(1) == [Chain({0}), Chain({1})]


def test_enumerate_chains_n2_matches_explicit_list():
    assert set(enumerate_chains(2)) == set(CHAINS_N2)
    assert len(enumerate_chains(2)) == 12


def test_enumerate_chains_n3_count_by_depth():
    chains = enumerate_chains(3)
    assert len(chains) == 62
    by_depth = {}
    for c in chains:
        by_depth[len(c.ext)] = by_depth.get(len(c.ext), 0) + 1
    assert by_depth == {0: 14, 1: 24, 2: 24}


def test_enumerate_chains_canonical_order():
    chains = enumerate_chains(3)
    assert chains == sorted(chains, key=Chain.sort_key)
    assert len(set(chains)) == len(chains)
    with pytest.raises(ValueError):
        enumerate_chains(0)


def test_is_nested_pair_examples():
    assert is_nested({chain_of({1, 2}, {2}), chain_of({1, 2})}, 2)
    # the union of the two singleton-step families is again a chain: rejected
    assert not is_nested({chain_of({2}), chain_of({1, 2})}, 2)
    assert is_nested({chain_of({1, 2}, {2})}, 2)
    assert is_nested([], 2)


def test_is_nested_oracle_examples():
    m = chain_of({1, 0, 3}, {1, 0}, {1})
    n_set = {m, chain_of({1}), chain_of({1, 0, 3})}
    assert is_nested_oracle(n_set, 3)
    assert is_nested(n_set, 3)
    assert is_nested_oracle([], 3)
    # overlapping top sets without containment can never merge into a chain
    assert not is_nested_oracle({chain_of({0, 1}), chain_of({1, 2})}, 3)


def test_oracle_equivalence_sampled_n4():
    chains = enumerate_chains(4)
    rng = random.Random(20240)
    for _ in range(4000):
        subset = rng.sample(chains, rng.randint(2, 4))
        assert is_nested(subset, 4) == is_nested_oracle(subset, 4)


def _family_rule(a, b):
    """Compatibility from the families: one holds the other, or their merged
    family walks down as a chain with a step of two labels or more."""
    fa, fb = a.family, b.family
    return fa <= fb or fb <= fa or _union_admissible(fa | fb)


def test_the_mask_rule_equals_the_family_rule_on_every_pair_up_to_n4():
    for n in range(1, 5):
        chains = enumerate_chains(n)
        for a, b in itertools.product(chains, repeat=2):
            assert comparable(a, b) == (a.family <= b.family or b.family <= a.family), (a, b)
            assert nestedsets._compatible(a, b) == _family_rule(a, b), (a, b)
    assert len(chains) ** 2 == 115_600


def _chain_on(rng, labels):
    """A chain whose top is a non-empty random subset of ``labels``, its
    ext a random ordered part of that top."""
    top = rng.sample(labels, rng.randint(1, len(labels)))
    depth = rng.randrange(len(top))
    return Chain(frozenset(top[depth:]), tuple(top[:depth]))


def _chain_pair(rng, n):
    """Two chains over 0..n built from labels: the second is any chain, one
    on the first's core (apart, touching or overlapping), one on its top,
    one on its top and one label more, or a run of the first's own sets."""
    labels = list(range(n + 1))
    a = _chain_on(rng, rng.sample(labels, n))  # a proper top
    core, top = sorted(a.core), sorted(a.core.union(a.ext))
    mode = rng.randrange(5)
    if mode == 1:
        b = _chain_on(rng, core)
    elif mode == 2:
        b = _chain_on(rng, top)
    elif mode == 3 and len(top) < n:
        b = _chain_on(rng, top + [rng.choice(sorted(set(labels) - set(top)))])
    elif mode == 4:
        i = rng.randint(0, len(a.ext))
        j = rng.randint(i, len(a.ext))
        b = Chain(a.core.union(a.ext[j:]), a.ext[i:j])
    else:
        b = _chain_on(rng, rng.sample(labels, n))
    return (a, b) if rng.random() < 0.5 else (b, a)


def test_the_mask_rule_equals_the_family_rule_on_random_pairs_at_n5_to_8():
    rng = random.Random(3301)
    outcomes = set()
    for _ in range(20_000):
        n = rng.randint(5, 8)
        a, b = _chain_pair(rng, n)
        expected = _family_rule(a, b)
        contained = a.family <= b.family or b.family <= a.family
        assert comparable(a, b) == contained, (a, b)
        assert nestedsets._compatible(a, b) == expected, (a, b)
        outcomes.add((contained, expected))
    # contained, apart with a gap, and neither: every kind of pair came up
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_enumerate_vertices_counts():
    assert [len(enumerate_vertices(n)) for n in (1, 2, 3)] == [2, 12, 120]


def test_enumerate_vertices_n2_matches_explicit_list():
    assert {face_of(v, 2) for v in enumerate_vertices(2)} == set(VERTICES_N2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerate_vertices_in_the_order_of_nested_key(n):
    vertices = [face_of(v, n) for v in enumerate_vertices(n)]
    assert vertices == sorted(vertices, key=nested_key)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vertices_are_chain_rank_keys(n):
    chains = enumerate_chains(n)
    keys = enumerate_vertices(n)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for key in keys:
        assert type(key) is tuple and len(key) == n
        assert all(a < b for a, b in zip(key, key[1:]))
        assert all(r in range(len(chains)) for r in key)
    bracketings = all_bracketings(n)
    assert {face_of(key, n) for key in keys} == {to_nested(b) for b in bracketings}
    for b, key in zip(bracketings, vertex_keys(bracketings, n), strict=True):
        assert face_of(key, n) == to_nested(b)
    assert keys == faces(n, 0)


def test_vertex_keys_name_the_to_nested_chains_of_a_sample_n5():
    keys = set(enumerate_vertices(5))
    sample = random.Random(26).sample(all_bracketings(5), 300)
    for b, key in zip(sample, vertex_keys(sample, 5), strict=True):
        assert key in keys
        assert face_of(key, 5) == to_nested(b)


def test_vertex_keys_equal_the_per_bracketing_oracle_in_the_order_given():
    for n in range(1, 6):
        bracketings = all_bracketings(n)
        # the canonical order, then a shuffle with repeats, so each
        # permutation comes back after others
        mixed = random.Random(3400 + n).choices(bracketings, k=2 * len(bracketings))
        for order in (bracketings, mixed):
            assert list(vertex_keys(order, n)) == vertex_keys_by_bracketing(order, n)


@pytest.mark.parametrize("n", [6, 7])
def test_vertex_keys_of_single_bracketings_equal_the_oracle(n):
    rng = random.Random(3467 + n)
    for _ in range(100):
        b = random_bracketing(rng, n)
        assert list(vertex_keys([b], n, max_n=n)) == vertex_keys_by_bracketing([b], n)


@settings(max_examples=150, deadline=None)
@given(bracketings(max_n=6))
def test_vertex_keys_name_the_to_nested_chains(b):
    (key,) = vertex_keys([b], b.n, max_n=b.n)
    assert type(key) is tuple and len(key) == b.n
    assert all(x < y for x, y in zip(key, key[1:]))
    assert face_of(key, b.n) == to_nested(b)


def test_vertex_build_calls_no_sort_key(monkeypatch):
    expected = enumerate_vertices(4)  # warms the chain cache

    def refuse(chain):
        raise AssertionError("_vertices sorted by Chain.sort_key")

    monkeypatch.setattr(Chain, "sort_key", refuse)
    assert list(nestedsets._vertices.__wrapped__(4)) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_route_vertices_match_to_nested(n):
    via_to_nested = sorted(key_of(to_nested(b), n) for b in all_bracketings(n))
    assert enumerate_vertices(n) == via_to_nested


def test_rank_route_vertices_hold_a_to_nested_sample_n5():
    vertices = set(enumerate_vertices(5))
    for b in random.Random(5).sample(all_bracketings(5), 200):
        assert key_of(to_nested(b), 5) in vertices


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_faces_come_once_each_in_canonical_order(n):
    for dim in range(n + 1):
        found = [face_of(key, n) for key in faces(n, dim)]
        assert found == sorted(found, key=lambda f: key_of(f, n))
        assert len(found) == len(set(found))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vertex_and_face_builds_make_no_chain(n, monkeypatch):
    expected = enumerate_vertices(n)  # warms the chain cache
    expected_faces = [faces(n, dim) for dim in range(n + 1)]

    def refuse(chain):
        raise AssertionError("a Chain was built")

    monkeypatch.setattr(Chain, "__post_init__", refuse)
    assert list(nestedsets._vertices.__wrapped__(n)) == expected
    assert [faces(n, dim) for dim in range(n + 1)] == expected_faces


def test_vertices_are_nested_with_one_full_chain():
    for n in (1, 2, 3):
        for v in (face_of(key, n) for key in enumerate_vertices(n)):
            assert len(v) == n
            assert is_nested(v, n)
            assert sum(1 for c in v if is_full_chain(c, n)) == 1


def test_every_chain_appears_in_some_vertex():
    for n in (1, 2, 3):
        covered = set().union(*enumerate_vertices(n))
        assert covered == set(range(len(enumerate_chains(n))))


def test_catalan_count_of_vertices_over_fixed_full_chain():
    for n in (1, 2, 3):
        anchor = enumerate_chains(n).index(Chain(frozenset({n}), tuple(range(1, n))))
        count = sum(1 for v in enumerate_vertices(n) if anchor in v)
        assert count == math.comb(2 * n, n) // (n + 1)


def test_catalan_recurrence():
    catalan = [1]
    for n in range(6):
        catalan.append(sum(catalan[i] * catalan[n - i] for i in range(n + 1)))
    assert catalan[:7] == [math.comb(2 * n, n) // (n + 1) for n in range(7)]


def test_faces_examples():
    vertices = [face_of(key, 2) for key in faces(2, 0)]
    assert set(vertices) == frozenset(VERTICES_N2)
    assert len(vertices) == len(set(vertices))
    body = [face_of(key, 2) for key in faces(2, 2)]
    assert set(body) == {frozenset()}
    assert len(body) == len(set(body))
    two_faces = [face_of(key, 3) for key in faces(3, 2)]
    assert len(two_faces) == 62
    assert all(len(f) == 1 for f in two_faces)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_faces_are_chain_rank_keys(n):
    chains = enumerate_chains(n)
    for dim in range(n + 1):
        keys = faces(n, dim)
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for key in keys:
            assert type(key) is tuple and len(key) == n - dim
            assert all(a < b for a, b in zip(key, key[1:]))
            assert all(r in range(len(chains)) for r in key)
            assert is_nested([chains[r] for r in key], n)
        assert keys == sorted(key_of(f, n) for f in faces_via_cliques(n, dim))
    if n >= 2:
        assert [key for key, _ in diagram_census(n).faces] == faces(n, 2)


def test_faces_rejects_bad_dimension():
    with pytest.raises(ValueError):
        faces(2, 3)
    with pytest.raises(ValueError):
        faces(2, -1)


@pytest.mark.parametrize("route", [faces, faces_via_cliques])
@pytest.mark.parametrize("dim", [0, 1])
def test_faces_reject_n_below_one_before_the_dimension(route, dim):
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        route(0, dim)


def test_faces_agree_with_clique_route():
    for n in (1, 2, 3):
        for dim in range(n + 1):
            found = [face_of(key, n) for key in faces(n, dim)]
            assert set(found) == faces_via_cliques(n, dim)
            assert len(found) == len(set(found))


def test_clique_route_calls_no_sort_key(monkeypatch):
    expected = [len(faces(3, dim)) for dim in range(4)]  # warms the chain cache

    def refuse(chain):
        raise AssertionError("faces_via_cliques sorted by Chain.sort_key")

    monkeypatch.setattr(Chain, "sort_key", refuse)
    assert [len(faces_via_cliques(3, dim)) for dim in range(4)] == expected


def test_flag_property_on_subsets():
    # nested iff every pair is nested, over all subsets of size <= 3 at n=2
    chains = enumerate_chains(2)
    for size in (2, 3):
        for subset in itertools.combinations(chains, size):
            pairwise = all(is_nested(p, 2) for p in itertools.combinations(subset, 2))
            assert is_nested(subset, 2) == pairwise


def test_superficial_count_on_vertices():
    for v in (face_of(key, 2) for key in enumerate_vertices(2)):
        for c in v:
            assert superficial_count(v, c) == 1


def test_superficial_count_lone_full_chain():
    m = chain_of({0, 1, 2}, {0, 1}, {0})
    assert superficial_count({m}, m) == 3


def test_superficial_count_requires_membership():
    with pytest.raises(ValueError):
        superficial_count({chain_of({0})}, chain_of({1}))


def test_resource_cap():
    with pytest.raises(ResourceCapError):
        enumerate_vertices(3, max_n=2)
    assert len(enumerate_vertices(3, max_n=3)) == 120


def test_vertex_keys_refuses_n_above_the_cap_before_ranking_chains(monkeypatch):
    def refuse(n):
        raise AssertionError(f"the chains of n = {n} were ranked")

    monkeypatch.delenv("PA_MAX_N", raising=False)
    b7 = parse_bracketing("((((0*1)*(2*3))*(4*5))*(6*7))", 7)
    with monkeypatch.context() as patched:
        patched.setattr(nestedsets, "_rank_by_mask", refuse)
        with pytest.raises(ResourceCapError, match="n=7 exceeds the enumeration cap 6"):
            vertex_keys([b7], 7)  # refused as the call is made
    b6 = parse_bracketing("(((0*1)*(2*3))*((4*5)*6))", 6)
    (key,) = vertex_keys([b6], 6, max_n=6)
    assert face_of(key, 6) == to_nested(b6)


def test_enumerate_chains_refuses_n_above_the_cap_before_listing(monkeypatch):
    listed = []

    def record(n):
        listed.append(n)
        return (Chain({0}),)

    monkeypatch.delenv("PA_MAX_N", raising=False)
    monkeypatch.setattr(nestedsets, "_enumerate_chains", record)
    with pytest.raises(ResourceCapError, match="n=8 exceeds the enumeration cap 6"):
        enumerate_chains(8)  # 1,071,276 chains, 14 s and 629 MB if listed
    assert listed == []
    assert enumerate_chains(8, max_n=8) == [Chain({0})]
    monkeypatch.setenv("PA_MAX_N", "8")
    assert enumerate_chains(8) == [Chain({0})]
    assert listed == [8, 8]


def test_resource_cap_env_override(monkeypatch):
    monkeypatch.setenv("PA_MAX_N", "2")
    with pytest.raises(ResourceCapError):
        enumerate_vertices(3)
    monkeypatch.setenv("PA_MAX_N", "3")
    assert len(enumerate_vertices(3)) == 120


def test_resource_cap_rejects_bad_settings(monkeypatch):
    monkeypatch.setenv("PA_MAX_N", "abc")
    with pytest.raises(ValueError, match="PA_MAX_N"):
        enumerate_vertices(2)
    for value in ("0", "-1"):
        monkeypatch.setenv("PA_MAX_N", value)
        with pytest.raises(ValueError, match="PA_MAX_N must be at least 1"):
            enumerate_vertices(2)
    monkeypatch.delenv("PA_MAX_N")
    with pytest.raises(ValueError, match="max_n must be at least 1"):
        enumerate_vertices(2, max_n=0)
