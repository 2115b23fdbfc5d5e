import pytest
from hypothesis import given, settings

from conftest import bracketings, chain_of
from simplepa import (
    ALPHA,
    SIGMA,
    BracketSyntaxError,
    Bracketing,
    Chain,
    all_bracketings,
    alpha_neighbors,
    build_graph,
    chain_incident,
    enumerate_vertices,
    from_nested,
    is_full_chain,
    ordered_partition,
    parse_bracketing,
    print_bracketing,
    sigma_neighbor,
    to_nested,
)


def test_parse_permuted_product():
    b = parse_bracketing("((2*3)*(0*1))", 3)
    assert b.perm == (2, 3, 0, 1)
    assert b.tree == ((0, 1), (2, 3))
    assert print_bracketing(b) == "((2*3)*(0*1))"


def test_parse_trivial_product():
    b = parse_bracketing("0*1", 1)
    assert b.perm == (0, 1)
    assert b.tree == (0, 1)
    assert print_bracketing(b) == "(0*1)"


def test_parse_accepts_middle_dot_and_whitespace():
    assert parse_bracketing(" (2 · (3·(0 · 1))) ", 3) == parse_bracketing(
        "(2*(3*(0*1)))", 3
    )


def test_parse_print_canonicalizes_outer_parentheses():
    b = parse_bracketing("((2*3)*0)*1", 3)
    assert print_bracketing(b) == "(((2*3)*0)*1)"
    assert parse_bracketing(print_bracketing(b), 3) == b


@pytest.mark.parametrize(
    "text,n",
    [
        ("((0*1)*2", 2),  # unbalanced
        ("(0*1)*1", 2),  # repeated leaf
        ("(0*1)", 2),  # missing leaf
        ("(0*1*2)", 2),  # ternary product
        ("(0*3)", 1),  # leaf out of range
        ("0*", 1),
        ("", 1),
        ("(0*1)x", 1),  # stray character
        ("(0*1) (", 1),  # trailing input
    ],
)
def test_parse_rejects_malformed_input(text, n):
    with pytest.raises(BracketSyntaxError) as err:
        parse_bracketing(text, n)
    assert 0 <= err.value.position <= len(text)


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
    with pytest.raises(ValueError):
        from_nested(frozenset())
    with pytest.raises(ValueError):  # two chains, neither complete
        from_nested(frozenset([chain_of({0}), chain_of({1})]))
    with pytest.raises(ValueError):  # two complete chains
        from_nested(frozenset([chain_of({1, 2}, {2}), chain_of({0, 2}, {2})]))
    with pytest.raises(ValueError):  # not nested: {2} is no suffix of the permutation
        m = chain_of({1, 0, 3}, {1, 0}, {1})
        from_nested(frozenset([m, chain_of({2}), chain_of({1})]))


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
        assert other.tree == b.tree


def test_all_bracketings_counts_and_order():
    assert [len(all_bracketings(n)) for n in (1, 2, 3)] == [2, 12, 120]
    strings = [print_bracketing(b) for b in all_bracketings(3)]
    assert strings == sorted(strings)
    assert len(set(strings)) == len(strings)


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
            b = from_nested(v)
            for c in chains:
                assert chain_incident(b, c) == (c in v)


def test_bracketing_check():
    parse_bracketing("(0*1)", 1).check()
    with pytest.raises(ValueError):
        Bracketing((0, 0), (0, 1)).check()
    with pytest.raises(ValueError):
        Bracketing((0, 1, 2), (0, 1)).check()
    with pytest.raises(ValueError):
        parse_bracketing("0", 0)


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
