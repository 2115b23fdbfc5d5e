import itertools
import sys

import pytest
from hypothesis import given, settings

from conftest import bracketings, chain_of
from oracles import build_graph_by_moves, chain_incident, face_of, ordered_partition
from simplepa import (
    ALPHA,
    SIGMA,
    BracketSyntaxError,
    Bracketing,
    Chain,
    RewriteGraph,
    all_bracketings,
    alpha_neighbors,
    build_graph,
    enumerate_chains,
    enumerate_vertices,
    from_nested,
    is_full_chain,
    parse_bracketing,
    print_bracketing,
    sigma_neighbor,
    to_nested,
)
from simplepa.brackets import _shape_template, _tree_shapes


def test_parse_permuted_product():
    b = parse_bracketing("((2*3)*(0*1))", 3)
    assert b.perm == (2, 3, 0, 1)
    assert b.spans == ((0, 3), (0, 1), (2, 3))
    assert print_bracketing(b) == "((2*3)*(0*1))"


def test_parse_trivial_product():
    b = parse_bracketing("0*1", 1)
    assert b.perm == (0, 1)
    assert b.spans == ((0, 1),)
    assert print_bracketing(b) == "(0*1)"


def test_parse_accepts_middle_dot_and_whitespace():
    assert parse_bracketing(" (2 · (3·(0 · 1))) ", 3) == parse_bracketing(
        "(2*(3*(0*1)))", 3
    )
    assert parse_bracketing("(2\u00a0*\u2003(3*(0*1)))", 3) == parse_bracketing(
        "(2*(3*(0*1)))", 3
    )


def test_parse_print_canonicalizes_outer_parentheses():
    b = parse_bracketing("((2*3)*0)*1", 3)
    assert print_bracketing(b) == "(((2*3)*0)*1)"
    assert parse_bracketing(print_bracketing(b), 3) == b


_MALFORMED = [
    ("((0*1)*2", 2, "expected ')'", 8),  # unbalanced
    ("(0*1)*1", 2, "repeated label 1", 6),
    ("(0*1)", 2, "product has 2 labels, expected 3", 5),  # missing leaf
    ("(0*1*2)", 2, "expected ')'", 4),  # ternary product
    ("(0*3)", 1, "label 3 outside 0..1", 3),
    ("0*", 1, "expected '(' or a label", 2),
    ("", 1, "expected '(' or a label", 0),
    ("(0*1)x", 1, "unexpected character 'x'", 5),  # stray character
    ("(0*1) (", 1, "unexpected trailing input", 6),
]


@pytest.mark.parametrize(
    "text,n,message,position", _MALFORMED, ids=[f"{text}-{n}" for text, n, _, _ in _MALFORMED]
)
def test_parse_rejects_malformed_input(text, n, message, position):
    with pytest.raises(BracketSyntaxError) as err:
        parse_bracketing(text, n)
    assert str(err.value) == f"{message} (position {position})"
    assert err.value.position == position


def test_parse_accepts_ascii_digits_only():
    # str.isdigit admits both: int() reads the first as ((2*3)*(0*1)) and fails on "1²"
    for text, n, position in (("((٢*٣)*(٠*١))", 3, 2), ("(0*1²)", 1, 4)):
        with pytest.raises(BracketSyntaxError, match="unexpected character") as err:
            parse_bracketing(text, n)
        assert err.value.position == position


def test_parse_bounds_the_nesting_depth_by_n():
    # the deepest valid tree over 0..4 nests four pairs of parentheses
    assert print_bracketing(parse_bracketing("((((0*1)*2)*3)*4)", 4)) == "((((0*1)*2)*3)*4)"
    for text, n, position in (("(" * 3000, 1, 1), ("(((((0*1)*2)*3)*4)", 3, 3), ("0*((", 1, 3)):
        with pytest.raises(BracketSyntaxError, match="deeper") as err:
            parse_bracketing(text, n)
        assert err.value.position == position


def test_roundtrip_on_all_canonical_strings():
    for n in (1, 2):
        for b in all_bracketings(n):
            assert parse_bracketing(print_bracketing(b), n) == b


def test_to_nested_examples():
    m = chain_of({1, 0, 3}, {1, 0}, {1})
    v = to_nested(parse_bracketing("((2*3)*(0*1))", 3))
    assert v == frozenset([m, chain_of({1}), chain_of({1, 0, 3})])

    assert to_nested(parse_bracketing("0*1", 1)) == frozenset([chain_of({1})])

    v_prime = to_nested(parse_bracketing("(2*(3*(0*1)))", 3))
    assert v_prime == frozenset([m, chain_of({1, 0}, {1}), chain_of({1})])


def test_from_nested_inverts_to_nested():
    for n in (1, 2, 3):
        for b in all_bracketings(n):
            assert from_nested(to_nested(b)) == b


def test_from_nested_inverts_to_nested_sampled_n4():
    import random

    rng = random.Random(41)
    pool = all_bracketings(4)
    for b in rng.sample(pool, 1000):
        assert from_nested(to_nested(b)) == b


def test_from_nested_rejects_bad_input():
    m = chain_of({1, 0, 3}, {1, 0}, {1})  # the complete chain of (2*(3*(0*1)))
    cases = [
        (frozenset(), "an empty set has no bracketing"),
        # two chains, neither complete; then two complete chains
        ([chain_of({0}), chain_of({1})], "exactly one complete chain"),
        ([chain_of({1, 2}, {2}), chain_of({0, 2}, {2})], "exactly one complete chain"),
        ([Chain({1}, (0, 4)), chain_of({0}), chain_of({1})], r"do not cover 0\.\.3 minus one"),
        # not nested: {2} is no suffix of the permutation
        ([m, chain_of({2}), chain_of({1})], r"Chain\(\{2\}, \[\]\) is not derived"),
        ([m, chain_of({1, 3}), chain_of({1})], r"Chain\(\{1,3\}, \[\]\) is not derived"),
        ([m, Chain({0}, (1,)), chain_of({1})], r"Chain\(\{0\}, \[1\]\) is not derived"),
        ([m, Chain({0, 1, 2, 3}), chain_of({1})], r"Chain\(\{0,1,2,3\}, \[\]\) is not derived"),
        ([m, Chain({1, 4}), chain_of({1})], r"Chain\(\{1,4\}, \[\]\) is not derived"),
        ([m, chain_of({1}), chain_of({1})], "expected 3 distinct bracket pairs"),
        ([m, chain_of({0, 1}), chain_of({1, 0, 3})], "crosses another"),
    ]
    for chains, message in cases:
        with pytest.raises(ValueError, match=message):
            from_nested(chains)


def test_from_nested_accepts_exactly_the_vertices():
    for n in (1, 2, 3):
        vertices = set(enumerate_vertices(n))
        for key in itertools.combinations(range(len(enumerate_chains(n))), n):
            v = face_of(key, n)
            if key in vertices:
                assert to_nested(from_nested(v)) == v
            else:
                with pytest.raises(ValueError):
                    from_nested(v)


def test_alpha_neighbors_example():
    v = parse_bracketing("((2*3)*(0*1))", 3)
    v_prime = parse_bracketing("(2*(3*(0*1)))", 3)
    neighbors = alpha_neighbors(v)
    assert len(neighbors) == 2
    assert v_prime in neighbors
    # the shared 1-face keeps everything but the rotated bracket
    assert len(to_nested(v) & to_nested(v_prime)) == 2


def test_alpha_neighbors_trivial():
    assert alpha_neighbors(parse_bracketing("0*1", 1)) == []


def test_alpha_neighbors_preserve_permutation_and_count():
    for b in all_bracketings(3):
        neighbors = alpha_neighbors(b)
        assert len(neighbors) == 2
        for nb in neighbors:
            assert nb.perm == b.perm
            assert len(to_nested(b) & to_nested(nb)) == 2


def test_sigma_neighbor_examples():
    v = parse_bracketing("((2*3)*(0*1))", 3)
    assert print_bracketing(sigma_neighbor(v)) == "((2*0)*(3*1))"
    assert print_bracketing(sigma_neighbor(parse_bracketing("0*1", 1))) == "(1*0)"


def test_sigma_neighbor_is_an_involution():
    for b in all_bracketings(2):
        other = sigma_neighbor(b)
        assert other != b
        assert sigma_neighbor(other) == b
        assert other.spans == b.spans


def test_all_bracketings_counts_and_order():
    assert [len(all_bracketings(n)) for n in (1, 2, 3)] == [2, 12, 120]
    strings = [print_bracketing(b) for b in all_bracketings(3)]
    assert strings == sorted(strings)
    assert len(set(strings)) == len(strings)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shape_templates_print_every_bracketing(n):
    templates = {spans: _shape_template(spans, n) for spans in _tree_shapes(n)}
    for b in all_bracketings(n):
        assert templates[b.spans].format(*b.perm) == print_bracketing(b)


def test_build_graph_small():
    g1 = build_graph(1)
    assert len(g1.vertices) == 2 and len(g1.edges) == 1
    assert all(kind == SIGMA for _, _, kind in g1.edges)

    g2 = build_graph(2)
    assert len(g2.vertices) == 12 and len(g2.edges) == 12
    assert g2.is_connected()
    assert all(g2.degree(i) == 2 for i in range(12))
    # a single 12-cycle: connected and 2-regular


def test_build_graph_n3():
    g = build_graph(3)
    assert len(g.vertices) == 120 and len(g.edges) == 180
    assert sum(1 for e in g.edges if e[2] == SIGMA) == 60
    assert sum(1 for e in g.edges if e[2] == ALPHA) == 120
    assert g.is_connected()
    for i in range(len(g.vertices)):
        assert g.degree(i) == 3
        assert g.kind_degree(i, SIGMA) == 1


def test_build_graph_equals_the_move_by_move_oracle():
    for n in range(1, 6):
        assert build_graph(n) == build_graph_by_moves(n)


def _hand_built_graph():
    """Four vertices: 0 -alpha- 1 -sigma- 2, and 3 on no edge."""
    vertices = tuple(all_bracketings(2)[:4])
    return RewriteGraph(vertices, frozenset({(0, 1, ALPHA), (1, 2, SIGMA)}))


def test_hand_built_graph_degrees_match_a_brute_force_count():
    g = _hand_built_graph()
    for i in range(4):
        assert g.degree(i) == sum(i in (a, b) for a, b, _ in g.edges)
        for kind in (ALPHA, SIGMA):
            assert g.kind_degree(i, kind) == sum(i in (a, b) for a, b, k in g.edges if k == kind)
    assert [g.degree(i) for i in range(4)] == [1, 2, 1, 0]
    assert not g.is_connected()
    # one more edge reaches vertex 3
    joined = RewriteGraph(g.vertices, g.edges | {(2, 3, ALPHA)})
    assert joined.is_connected()


def test_a_graph_with_its_table_built_equals_a_fresh_one():
    for g in (_hand_built_graph(), build_graph(3)):
        g.degree(0), g.kind_degree(1, SIGMA), g.is_connected()
        fresh = RewriteGraph(tuple(list(g.vertices)), frozenset(set(g.edges)))
        assert "_neighbors" in vars(g) and "_neighbors" not in vars(fresh)
        assert g == fresh and hash(g) == hash(fresh)


def test_an_id_outside_the_graph_or_an_unknown_kind_raises():
    g = _hand_built_graph()
    with pytest.raises(IndexError):
        g.degree(4)
    with pytest.raises(IndexError):
        g.kind_degree(4, ALPHA)
    with pytest.raises(KeyError):
        g.kind_degree(0, "gamma")


def test_graph_edges_are_one_faces():
    g = build_graph(2)
    for i, j, kind in g.edges:
        shared = to_nested(g.vertices[i]) & to_nested(g.vertices[j])
        assert len(shared) == 1
        has_full = any(is_full_chain(c, 2) for c in shared)
        assert kind == (ALPHA if has_full else SIGMA)


def test_sigma_edges_are_exactly_the_permutation_changes():
    for n in (2, 3):
        g = build_graph(n)
        for i, j, kind in g.edges:
            same_perm = g.vertices[i].perm == g.vertices[j].perm
            assert kind == (ALPHA if same_perm else SIGMA)


def test_ordered_partition():
    c = Chain(frozenset({1}), (3, 0))
    first, middle, last = ordered_partition(c, 3)
    assert first == frozenset({2})
    assert middle == (3, 0)
    assert last == frozenset({1})


def test_chain_incident_examples():
    b = parse_bracketing("((2*3)*(0*1))", 3)
    pentagon_facet = chain_of({0, 1, 3}, {0, 1}, {1})
    assert chain_incident(b, pentagon_facet)
    assert chain_incident(parse_bracketing("0*1", 1), chain_of({1}))
    assert not chain_incident(b, chain_of({0}))


def test_chain_incident_agrees_with_membership():
    from simplepa import enumerate_chains

    for n in (1, 2):
        chains = enumerate_chains(n)
        for v in enumerate_vertices(n):
            b = from_nested(face_of(v, n))
            for r, c in enumerate(chains):
                assert chain_incident(b, c) == (r in v)


def test_bracketing_check():
    parse_bracketing("(0*1)", 1).check()
    with pytest.raises(ValueError):
        Bracketing((0, 0), ((0, 1),)).check()
    with pytest.raises(ValueError):
        Bracketing((0, 1, 2), ((0, 1),)).check()
    for spans in (
        ((0, 1), (0, 2)),  # not in preorder
        ((0, 2), (1, 1)),  # a pair over one position
        ((0, 2), (1, 3)),  # past position n
        ((0, 3), (0, 2), (1, 3)),  # crossing pairs
        ((0, 3), (0, 1), (0, 1)),  # a repeated pair
    ):
        with pytest.raises(ValueError):
            Bracketing(tuple(range(len(spans) + 1)), spans).check()
    with pytest.raises(ValueError):
        parse_bracketing("0", 0)


def test_combs_nested_beyond_the_stack_round_trip():
    # a left and a right comb over 0..n, nested twice as deep as Python's
    # recursion limit: valid input, read, printed and moved by loops
    n = 2 * sys.getrecursionlimit()
    left = "(" * n + "0" + "".join(f"*{i})" for i in range(1, n + 1))
    right = "".join(f"({i}*" for i in range(n)) + f"{n}" + ")" * n
    for text in (left, right):
        b = parse_bracketing(text, n)
        assert print_bracketing(b) == text
        assert from_nested(to_nested(b)) == b
        b.check()
        other = sigma_neighbor(b)
        assert other != b and other.spans == b.spans and sigma_neighbor(other) == b
        neighbors = alpha_neighbors(b)
        assert len(neighbors) == n - 1
        assert all(a.perm == b.perm and len(set(a.spans) - set(b.spans)) == 1 for a in neighbors)


@settings(max_examples=300, deadline=None)
@given(bracketings())
def test_random_bracketings_round_trip(b):
    text = print_bracketing(b)
    assert parse_bracketing(text, b.n) == b
    assert print_bracketing(parse_bracketing(text, b.n)) == text
    assert from_nested(to_nested(b)) == b


@settings(max_examples=300, deadline=None)
@given(bracketings())
def test_random_moves_share_an_edge_face(b):
    # an alpha move keeps the complete chain, a sigma move replaces it
    n, v = b.n, to_nested(b)
    neighbors = alpha_neighbors(b)
    assert len(neighbors) == n - 1
    for a in neighbors:
        shared = v & to_nested(a)
        assert len(shared) == n - 1
        assert any(is_full_chain(c, n) for c in shared)
    shared = v & to_nested(sigma_neighbor(b))
    assert len(shared) == n - 1
    assert not any(is_full_chain(c, n) for c in shared)
