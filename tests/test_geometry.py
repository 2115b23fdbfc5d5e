import itertools
import json
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from conftest import bracketings, chain_of, random_bracketing
from oracles import (
    back_substitute_by_chains,
    face_of,
    facet_table,
    gauss_jordan,
    key_of,
    normalized_functional,
    tight,
    suffix_interval,
    top_simplex_points,
    value,
    verify_chains,
)
from simplepa import (
    ALPHA,
    SIGMA,
    Bracketing,
    Chain,
    Hyperplane,
    ResourceCapError,
    RewriteGraph,
    SingularSystemError,
    affine_dimension,
    all_bracketings,
    ambient_plane,
    build_graph,
    enumerate_chains,
    enumerate_vertices,
    f_vector,
    facet_inequality,
    facet_rhs,
    fractional_offset,
    h_representation,
    is_nested,
    normalization_map,
    polytope_graph,
    realization_report,
    solve_exact,
    vertex_coordinates,
    vertex_point,
    verify_vertex,
    vertex_keys,
)
from simplepa import geometry, nestedsets
from simplepa.brackets import _tree_spans, from_nested, print_bracketing, to_nested
from simplepa.cli import render_bracketing_record
from simplepa.geometry import VertexReport
from simplepa.nestedsets import _enumerate_chains


def test_facet_rhs_values():
    assert facet_rhs(2, 0, 2) == Fraction(25, 2)
    assert facet_rhs(1, 1, 2) == 9
    for n in range(1, 6):
        assert facet_rhs(1, 0, n) == 3
        for m in range(1, n + 1):
            assert facet_rhs(1, m - 1, n) == 3**m


def test_facet_rhs_decomposition_spot():
    # rhs = 3^(l+k) + ... + 3^(l+1) + offset, with the offset below one
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            for l in range(0, n - k + 1):
                eps = fractional_offset(k, n)
                assert 0 <= eps < 1
                assert facet_rhs(k, l, n) == sum(3**j for j in range(l + 1, l + k + 1)) + eps
    assert fractional_offset(1, 5) == 0


def test_facet_rhs_rejects_bad_parameters():
    for _ in range(2):  # the bounds are cached per class; a refusal is not
        with pytest.raises(ValueError):
            facet_rhs(0, 0, 2)
        with pytest.raises(ValueError):
            facet_rhs(2, 1, 2)
    with pytest.raises(ValueError):
        fractional_offset(3, 2)


def test_facet_rhs_caches_one_bound_per_class():
    facet_rhs.cache_clear()
    n = 4
    for c in enumerate_chains(n) + enumerate_chains(n):
        facet_inequality(c, n)
    for k, l in [(0, 0), (2, 3), (1, -1)]:
        with pytest.raises(ValueError):
            facet_rhs(k, l, n)
    assert facet_rhs.cache_info().currsize == n * (n + 1) // 2


def test_facet_inequality_examples():
    h = facet_inequality(Chain({2}, (1,)), 2)  # x_1 + 2 x_2 >= 25/2
    assert h.coeffs == (0, 1, 2) and h.rhs == Fraction(25, 2)

    h = facet_inequality(Chain({1, 2}), 2)  # x_1 + x_2 >= 9
    assert h.coeffs == (0, 1, 1) and h.rhs == 9

    for n in (1, 2, 3):
        for i in range(n + 1):
            h = facet_inequality(Chain({i}), n)
            assert h.rhs == 3
            assert h.coeffs == tuple(1 if j == i else 0 for j in range(n + 1))


def test_hyperplane_equality_hash_and_repr():
    h = facet_inequality(Chain({2}, (1,)), 2)  # x_1 + 2 x_2 >= 25/2
    twin = Hyperplane(h.coeffs, h.rhs)
    assert h == twin and hash(h) == hash(twin)
    assert repr(h) == repr(twin)


def test_h_representation():
    ambient, facets = h_representation(1)
    assert ambient.coeffs == (1, 1) and ambient.rhs == 9
    assert [h.coeffs for h in facets] == [(1, 0), (0, 1)]
    assert all(h.rhs == 3 for h in facets)
    assert len(h_representation(2)[1]) == 12
    assert len(h_representation(3)[1]) == 62


def test_h_representation_refuses_n_above_the_cap_before_listing_chains(monkeypatch):
    def refuse(n):
        raise AssertionError(f"the chains of n = {n} were enumerated")

    monkeypatch.delenv("PA_MAX_N", raising=False)
    with monkeypatch.context() as patched:
        patched.setattr(nestedsets, "_enumerate_chains", refuse)
        with pytest.raises(ResourceCapError, match="n=7 exceeds the enumeration cap 6"):
            h_representation(7)
    ambient, facets = h_representation(6, max_n=6)
    assert ambient == ambient_plane(6)
    assert len(facets) == len(enumerate_chains(6)) == 14_840


def test_solve_exact():
    assert solve_exact([[2, 1], [1, -1]], [7, -1]) == ((2, 3), 1)  # determinant -3
    assert solve_exact([[0, 2], [3, 1]], [1, 1]) == ((1, 3), 6)  # needs a row swap
    assert solve_exact([[2, 0], [0, 4]], [1, 1]) == ((2, 1), 4)  # lowest terms
    with pytest.raises(SingularSystemError):
        solve_exact([[1, 2], [2, 4]], [1, 2])
    with pytest.raises(ValueError):
        solve_exact([[1, 2]], [1])


@st.composite
def _integer_systems(draw):
    size = draw(st.integers(1, 6))
    entries = st.integers(-20, 20)
    vectors = st.lists(entries, min_size=size, max_size=size)
    return draw(st.lists(vectors, min_size=size, max_size=size)), draw(vectors)


@settings(max_examples=300, deadline=None)
@given(_integer_systems())
def test_solve_exact_agrees_with_gauss_jordan(system):
    matrix, rhs = system
    if len(matrix) > 1:
        with pytest.raises(SingularSystemError):  # the first row repeated
            solve_exact([*matrix[:-1], matrix[0]], [*rhs[:-1], rhs[0]])
    expected = gauss_jordan(matrix, rhs)
    assume(expected is not None)
    scaled, d = solve_exact(matrix, rhs)
    assert d > 0
    assert tuple(Fraction(x, d) for x in scaled) == expected


def test_back_substitution_equals_solve_exact_on_every_vertex():
    # the per-rank rows against the chain-by-chain pass and elimination
    for n in range(1, 6):
        table = facet_table(n)
        chains = enumerate_chains(n)
        for v in enumerate_vertices(n):
            point = verify_vertex(v, n).scaled
            assert point == back_substitute_by_chains([(chains[r], table[r]) for r in v], n)
            assert point == geometry._solve_vertex([table[r] for r in v], n)


def test_back_substitution_equals_solve_exact_on_a_sample_n6():
    n = 6
    table = facet_table(n, max_n=n)
    chains = enumerate_chains(n, max_n=n)
    rng = random.Random(606)
    sample = [random_bracketing(rng, n) for _ in range(400)]
    for v in vertex_keys(sample, n, max_n=n):
        point, _, _ = geometry._solve_key(v, n)
        assert point == back_substitute_by_chains([(chains[r], table[r]) for r in v], n)
        assert point == geometry._solve_vertex([table[r] for r in v], n)


@settings(max_examples=60, deadline=None)
@given(bracketings(max_n=8, min_n=6))
def test_back_substitution_equals_solve_exact_at_n6_to_8(b):
    # the set's own chains, in its order: no chain ranks are involved
    n = b.n
    chains = list(to_nested(b))
    point, _, _ = geometry._back_substitute(range(n), chains, n)
    assert point == geometry._solve_vertex([facet_inequality(c, n) for c in chains], n)


def test_the_solve_reads_the_permutation_and_the_tree_off_the_chains():
    for n in range(1, 5):
        chains = enumerate_chains(n)
        every = all_bracketings(n)
        for b, v in zip(every, vertex_keys(every, n), strict=True):
            _, perm, tree = geometry._solve_key(v, n)
            assert perm == b.perm
            assert sorted(tree) == sorted(b.spans) and sorted(tree.values()) == list(v)
            for (lo, hi), r in tree.items():  # each node's chain: perm's suffixes lo+1..hi
                assert suffix_interval(chains[r], perm) == (lo + 1, hi)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_vertex_lies_in_its_permutations_chamber(n):
    # the coordinates strictly decrease along the permutation
    every = all_bracketings(n)
    for b, v in zip(every, vertex_keys(every, n), strict=True):
        x = vertex_point(v, n)
        assert all(x[i] > x[j] for i, j in zip(b.perm, b.perm[1:])), print_bracketing(b)


@seed(3706)
@settings(max_examples=60, deadline=None)
@given(bracketings(max_n=10, min_n=6))
def test_a_vertex_at_n6_to_10_lies_in_its_permutations_chamber(b):
    # solved from the set's own chains, with no key and no chain list
    n = b.n
    (scaled, d), perm, tree = geometry._back_substitute(range(n), list(to_nested(b)), n)
    assert perm == b.perm and sorted(tree) == sorted(b.spans)
    assert d > 0 and all(scaled[i] > scaled[j] for i, j in zip(perm, perm[1:]))


def _solve_cases():
    """Every vertex up to n = 4, then a seeded sample of bracketings at
    n = 7 to 9, each as (n, its chains)."""
    cases = [(n, face_of(v, n)) for n in range(1, 5) for v in enumerate_vertices(n)]
    rng = random.Random(909)
    cases += [(n, to_nested(random_bracketing(rng, n))) for n in (7, 8, 9) for _ in range(40)]
    return cases


def test_the_small_coefficient_solve_equals_the_scaled_rows_and_gauss_jordan():
    for n, v in _solve_cases():
        rows = [facet_inequality(c, n) for c in v]
        point = geometry._solve_vertex(rows, n)
        # the rows q·a vs p of each bound p/q, as the solve took them before
        scaled_rows = [
            (tuple(h.rhs.denominator * a for a in h.coeffs), h.rhs.numerator) for h in rows
        ]
        ambient = ((1,) * (n + 1), 3 ** (n + 1))
        assert point == solve_exact(*zip(*scaled_rows, ambient))
        scaled, d = point
        assert d > 0 and gcd(d, *scaled) == 1
        matrix = [h.coeffs for h in rows] + [ambient[0]]
        expected = gauss_jordan(matrix, [h.rhs for h in rows] + [ambient[1]])
        assert tuple(Fraction(x, d) for x in scaled) == expected


def test_elimination_gets_no_coefficient_above_n(monkeypatch):
    largest = []
    solve = geometry.solve_exact

    def record(matrix, rhs):
        largest.append(max(abs(a) for row in matrix for a in row))
        return solve(matrix, rhs)

    monkeypatch.setattr(geometry, "solve_exact", record)
    for n, v in _solve_cases():
        largest.clear()
        vertex_coordinates(v, n)
        assert largest == [n]  # the complete chain's core coefficient
    rng = random.Random(910)
    for _ in range(20):
        largest.clear()
        render_bracketing_record(print_bracketing(random_bracketing(rng, 7)), 7)
        assert largest == [7]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_check_solves_no_vertex_by_elimination(n, monkeypatch):
    def refuse(matrix, rhs):
        raise AssertionError("a vertex was solved by elimination")

    monkeypatch.setattr(geometry, "solve_exact", refuse)
    assert realization_report(n)["ok"]
    if n >= 2:  # the lowered bound keeps its row's coefficients
        assert not realization_report(n, perturb=True)["ok"]
    for v in enumerate_vertices(n):
        assert sum(vertex_point(v, n)) == 3 ** (n + 1)


def test_vertex_coordinates_examples():
    assert vertex_coordinates(frozenset([chain_of({1})]), 1) == (6, 3)
    v = frozenset([chain_of({1, 2}, {2}), chain_of({1, 2})])
    assert vertex_coordinates(v, 2) == (18, Fraction(11, 2), Fraction(7, 2))


def test_vertex_coordinates_validation():
    with pytest.raises(ValueError):
        vertex_coordinates(frozenset([chain_of({1})]), 2)  # not maximal
    with pytest.raises(ValueError):
        vertex_coordinates(frozenset([chain_of({2}), chain_of({1, 2})]), 2)  # not nested


def test_lookup_at_n7_solves_from_its_own_facets():
    before = _enumerate_chains.cache_info()
    record = json.loads(render_bracketing_record("((3*(7*0))*(((5*2)*6)*(1*4)))", 7))
    assert _enumerate_chains.cache_info() == before  # no 118,974-chain list was read
    point = [Fraction(x) for x in record["coordinates"]]
    assert sum(point) == 3**8
    assert len(record["tight"]) == 7
    for row in record["tight"]:
        assert tight(facet_inequality(Chain(row["core"], row["ext"]), 7), point)


def test_verify_vertex_all_pass_n2():
    for v in enumerate_vertices(2):
        report = verify_vertex(v, 2)
        assert report.tight == frozenset(v)
        assert report.strict_ok
        assert report.multiplicity_ok


def test_verify_vertex_refuses_n_above_the_cap(monkeypatch):
    monkeypatch.delenv("PA_MAX_N", raising=False)
    before = _enumerate_chains.cache_info()
    with pytest.raises(ResourceCapError):  # refused before the key is read
        verify_vertex(tuple(range(7)), 7)
    assert _enumerate_chains.cache_info() == before  # no 118,974-chain list was read


def test_vertex_point_refuses_n_above_the_cap(monkeypatch):
    monkeypatch.delenv("PA_MAX_N", raising=False)
    before = _enumerate_chains.cache_info()
    with pytest.raises(ResourceCapError):  # refused before the key is read
        vertex_point((0,) * 7, 7)
    assert _enumerate_chains.cache_info() == before  # no 118,974-chain list was read


def test_verify_vertex_refuses_a_malformed_key():
    n = 3
    v = enumerate_vertices(n)[0]
    last = len(enumerate_chains(n)) - 1
    # chains of the permutation 0123 whose spans cross
    crossing = key_of([chain_of({1, 2, 3}, {2, 3}, {3}), chain_of({1, 2, 3}), chain_of({2, 3})], n)
    assert sorted(c.span(n) for c in face_of(crossing, n)) == [(0, 1), (0, 3), (1, 2)]
    for key in [
        v + (5,),  # one rank too many
        v[:-1],  # one too few
        (0, 1, 2),  # spans (2, 3) three times
        (v[0], v[0], v[1]),  # a repeated rank
        (-1, *v[1:]),  # a negative rank would index from the end
        (*v[:-1], last + 1),  # a rank past the table
        crossing,  # (0, 1) and (1, 2) cross
        (3, 34, 59),  # one tree's spans, but the chains of three permutations
    ]:
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            verify_vertex(key, n)
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            vertex_point(key, n)
    for rank in (-1, last + 1):  # a bound's rank is checked as a key's are
        with pytest.raises(ValueError, match=f"a bound for rank {rank},"):
            verify_vertex(v, n, {rank: Fraction(0)})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_back_substitution_takes_exactly_the_spans_of_a_tree(n):
    # every multiset of n spans inside 0..n, each holding its chain of the
    # identity permutation: a tree's (Catalan(n) of them) solve, and every
    # other one returns None rather than a point
    spans = [(lo, hi) for lo in range(n) for hi in range(lo + 1, n + 1)]
    perm = tuple(range(n + 1))
    trees = 0
    for family in itertools.combinations_with_replacement(spans, n):
        try:
            _tree_spans(family, n)
        except ValueError:
            tree = False
        else:
            tree = True
        chains = [Chain(perm[hi:], perm[lo + 1 : hi]) for lo, hi in family]
        assert (geometry._back_substitute(range(n), chains, n) is not None) == tree, family
        trees += tree
    assert trees == comb(2 * n, n) // (n + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_key_is_accepted_exactly_when_it_is_a_vertex(n):
    # every n ranks: 37,820 keys at n = 3, of which 120 are vertices
    accepted = set()
    for key in itertools.combinations(range(len(enumerate_chains(n))), n):
        try:
            vertex_point(key, n)
        except ValueError:
            continue
        accepted.add(key)
    assert accepted == set(enumerate_vertices(n))


def test_a_vertex_with_one_chain_swapped_is_accepted_exactly_when_a_vertex():
    n = 4
    chains = enumerate_chains(n)
    vertices = enumerate_vertices(n)
    known = set(vertices)
    rng = random.Random(3704)
    outcomes = Counter()
    for _ in range(3000):
        v = rng.choice(vertices)
        i = rng.randrange(n)
        r = rng.choice([r for r in range(len(chains)) if r not in v])
        key = tuple(sorted((*v[:i], *v[i + 1 :], r)))
        same_spans = sorted(chains[r].span(n) for r in key) == sorted(chains[r].span(n) for r in v)
        outcomes[key in known, same_spans] += 1
        if key in known:
            assert verify_vertex(key, n).tight == frozenset(key)
            assert sum(vertex_point(key, n)) == 3 ** (n + 1)
        else:
            with pytest.raises(ValueError, match=re.escape(repr(key))):
                verify_vertex(key, n)
            with pytest.raises(ValueError, match=re.escape(repr(key))):
                vertex_point(key, n)
    # the sample holds neighbours of both moves (a rotation moves one span, a
    # sigma move keeps them), and keys on a vertex's own spans that mix
    # other permutations' chains, which only the chain check refuses
    assert outcomes[True, False] > 0 and outcomes[True, True] > 0
    assert outcomes[False, True] > 100


def test_verify_vertex_negative_control():
    # lowering one bound must surface as a strictness failure somewhere
    target = len(enumerate_chains(2)) - 1
    bounds = {target: facet_table(2)[target].rhs - 1}
    reports = [verify_vertex(v, 2, bounds) for v in enumerate_vertices(2)]
    assert any(not r.strict_ok for r in reports)


def _fraction_verdict(v, table, report):
    """verify_vertex's tight set and strictness, recomputed at the point X/d
    with the Fraction oracles tight and value."""
    scaled, d = report.scaled
    point = tuple(Fraction(x, d) for x in scaled)
    tight_set = frozenset(c for c, h in table.items() if tight(h, point))
    strict_ok = all(value(h, point) > h.rhs for c, h in table.items() if c not in v)
    return tight_set, strict_ok


def test_verify_vertex_agrees_with_fraction_oracle():
    for n in (1, 2, 3):
        table = facet_table(n)
        for v in enumerate_vertices(n):
            report = verify_vertex(v, n)
            assert (report.tight, report.strict_ok) == _fraction_verdict(v, table, report)
            assert report.multiplicity_ok == (len(report.tight) == n)


@pytest.mark.parametrize(("n", "perturb"), [(1, False), (2, False), (2, True), (3, False), (3, True)])
def test_verify_vertex_on_keys_agrees_with_the_chain_set_oracle(n, perturb):
    # the --perturb control lowers the last canonical facet's bound by 1
    chains = enumerate_chains(n)
    table = {c: facet_inequality(c, n) for c in chains}
    bounds = {}
    if perturb:
        h = table[chains[-1]]
        table[chains[-1]] = Hyperplane(h.coeffs, h.rhs - 1)
        bounds[len(chains) - 1] = h.rhs - 1
    failing = 0
    for v in enumerate_vertices(n):
        report = verify_vertex(v, n, bounds or None)
        point, tight_set, strict_ok = verify_chains(face_of(v, n), n, table)
        scaled, d = report.scaled
        assert tuple(Fraction(x, d) for x in scaled) == point
        assert {chains[r] for r in report.tight} == tight_set
        assert report.strict_ok == strict_ok
        assert report.multiplicity_ok == (len(tight_set) == n)
        failing += tight_set != face_of(v, n) or not strict_ok
    assert (failing > 0) == perturb


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("shift", [1, -1, Fraction(1, 7), -Fraction(1, 7)])
def test_verify_vertex_agrees_with_fraction_oracle_on_shifted_tables(n, shift):
    # a shift by 1/7 gives vertex denominators that do not divide 2(3^n - n - 1)
    base = facet_table(n)
    for target in (0, len(base) - 1):
        table = dict(base)
        h = table[target]
        table[target] = Hyperplane(h.coeffs, h.rhs + shift)
        for bounds in ({r: f.rhs for r, f in table.items()}, {target: table[target].rhs}):
            for v in enumerate_vertices(n):
                report = verify_vertex(v, n, bounds)
                scaled, d = report.scaled
                assert all(type(x) is int for x in scaled)
                assert d > 0 and gcd(d, *scaled) == 1
                assert (report.tight, report.strict_ok) == _fraction_verdict(v, table, report)


def test_verify_vertex_flags_a_facet_moved_onto_an_outside_vertex():
    n = 3
    base = facet_table(n)
    target = len(base) - 1
    outside = next(v for v in enumerate_vertices(n) if target not in v)
    h = base[target]
    table = dict(base)
    table[target] = Hyperplane(h.coeffs, value(h, vertex_coordinates(face_of(outside, n), n)))
    for bounds in ({r: f.rhs for r, f in table.items()}, {target: table[target].rhs}):
        report = verify_vertex(outside, n, bounds)
        assert report.tight == {*outside, target}
        assert not report.strict_ok and not report.multiplicity_ok
        for v in enumerate_vertices(n):
            report = verify_vertex(v, n, bounds)
            assert (report.tight, report.strict_ok) == _fraction_verdict(v, table, report)


def test_class_check_agrees_with_the_facet_scan_on_every_vertex():
    for n in (1, 2, 3, 4):
        ranks = range(len(enumerate_chains(n)))
        for v in enumerate_vertices(n):
            report = verify_vertex(v, n)
            scan = geometry._facet_scan(v, report.scaled, ranks, n, {})
            assert (report.tight, report.strict_ok) == scan


def test_class_check_never_falls_back_on_a_vertex(monkeypatch):
    def no_scan(*args):
        raise AssertionError("the class check fell back to the facet scan")

    monkeypatch.setattr(geometry, "_facet_scan", no_scan)
    for n in (1, 2, 3, 4, 5):
        for v in enumerate_vertices(n):
            report = verify_vertex(v, n)
            assert report.tight == frozenset(v) and report.strict_ok and report.multiplicity_ok
    # new bounds, here one for every rank, are compared by the facet scan
    with pytest.raises(AssertionError, match="fell back"):
        verify_vertex(enumerate_vertices(2)[0], 2, {r: f.rhs for r, f in facet_table(2).items()})


@pytest.mark.parametrize(("n", "catalan"), [(2, 2), (3, 5), (4, 14)])
def test_the_perturb_control_runs_the_class_check(n, catalan, monkeypatch):
    # a vertex solved from the lowered row falls below a class bound and is
    # scanned over the whole table; every other vertex takes the class check
    # and compares the lowered row alone
    scan = geometry._facet_scan
    full = []

    def spy(v, point, ranks, n, bounds):
        if len(ranks) > 1:
            full.append(v)
        return scan(v, point, ranks, n, bounds)

    monkeypatch.setattr(geometry, "_facet_scan", spy)
    assert not realization_report(n, perturb=True)["ok"]
    target = len(enumerate_chains(n)) - 1
    assert len(full) == catalan
    assert set(full) == {v for v in enumerate_vertices(n) if target in v}


@st.composite
def _class_check_points(draw):
    """A vertex v at n = 2..5 and an integer point (X, d): v's own point, or
    it with two coordinates made equal, one coordinate lowered or d changed,
    or another vertex's point, or any point at all."""
    b = draw(bracketings(max_n=5).filter(lambda b: b.n >= 2))
    n, v = b.n, key_of(to_nested(b), b.n)
    mode = draw(st.sampled_from(["vertex", "tie", "lower", "rescale", "other", "any"]))
    owner = v
    if mode == "other":  # the same tree over another permutation
        other = Bracketing(draw(st.permutations(range(n + 1))), b.spans)
        owner = key_of(to_nested(other), n)
    scaled, d = geometry._solve_vertex([facet_table(n)[r] for r in owner], n)
    scaled = list(scaled)
    labels = st.integers(0, n)
    if mode == "tie":
        i, j = draw(st.lists(labels, min_size=2, max_size=2, unique=True))
        scaled[j] = scaled[i]
    elif mode == "lower":
        scaled[draw(labels)] -= draw(st.integers(1, d))
    elif mode == "rescale":
        d = draw(st.integers(1, 2 * d))
    elif mode == "any":
        d = draw(st.integers(1, 20))
        scaled = draw(st.lists(st.integers(-20, 3 ** (n + 1) * d), min_size=n + 1, max_size=n + 1))
    return n, v, (tuple(scaled), d)


@settings(max_examples=400, deadline=None)
@given(_class_check_points())
def test_class_check_agrees_with_the_facet_scan_at_any_point(case):
    n, v, point = case
    scaled, d = point
    _, perm, tree = geometry._solve_key(v, n)
    outside = any(scaled[i] <= scaled[j] for i, j in zip(perm, perm[1:]))
    values = {r: Fraction(sum(a * x for a, x in zip(h.coeffs, scaled)), d) - h.rhs
              for r, h in facet_table(n).items()}
    below = any(slack < 0 for slack in values.values())
    off_tree = any(slack == 0 for r, slack in values.items() if r not in v)
    verdict = geometry._class_scan(point, perm, tree, n)
    # the class check decides exactly the points in v's chamber, on or above
    # every bound and tight on none outside v, and then as the scan over
    # every facet does
    assert (verdict is None) == (outside or below or off_tree)
    if verdict is not None:
        scan = geometry._facet_scan(v, point, range(len(enumerate_chains(n))), n, {})
        assert (verdict, True) == scan


def test_facet_classes_are_complete():
    # class (k, l) is the span (n - l - k, n - l) of its chains
    for n in range(1, 7):
        table = geometry._span_bounds(n)
        assert sorted(table) == [(lo, hi) for lo in range(n) for hi in range(lo + 1, n + 1)]
        sizes = {
            (n - l - k, n - l): comb(n + 1, l + 1) * factorial(n - l) // factorial(n - l - k + 1)
            for k in range(1, n + 1)
            for l in range(n - k + 1)
        }
        chains = enumerate_chains(n)
        assert sum(sizes.values()) == len(chains)
        seen = Counter()
        for c in chains:
            h = facet_inequality(c, n)
            k, l = c.num_sets, len(c.core) - 1
            # the row places k on the core, j on the j-th ext label, 0 elsewhere
            placement = [0] * (n + 1)
            for label in c.core:
                placement[label] = k
            for j, label in enumerate(c.ext, start=1):
                placement[label] = j
            assert h.coeffs == tuple(placement)
            assert sorted(h.coeffs, reverse=True) == [k] * (l + 1) + [*range(k - 1, 0, -1)] + [0] * (
                n - l - k + 1
            )
            assert c.span(n) == (n - l - k, n - l)
            assert h.rhs == Fraction(*table[c.span(n)]) == facet_rhs(k, l, n)
            seen[c.span(n)] += 1
        assert seen == sizes


def test_vertex_denominators_divide_twice_offset_denominator():
    for n in (1, 2, 3, 4):
        bound = 2 * (3**n - n - 1)
        for v in enumerate_vertices(n):
            assert all(bound % x.denominator == 0 for x in vertex_coordinates(face_of(v, n), n))


def test_tight_pairs_are_nested():
    # any two facets meeting at a common vertex are compatible
    for n in (1, 2, 3):
        chains = enumerate_chains(n)
        for v in enumerate_vertices(n):
            tight = verify_vertex(v, n).tight
            for a, b in itertools.combinations(tight, 2):
                assert is_nested({chains[a], chains[b]}, n)


def _construction_coordinates(v, n):
    """Independent oracle for vertices over the identity permutation: solve
    the normalized coordinates interval by interval, then map back."""
    intervals = set()
    for c in v:
        interval = suffix_interval(c, range(n + 1))
        assert interval is not None
        intervals.add(interval)
    prime = [None] * (n + 1)  # 1-based

    def fill(a, b):
        uncovered = set(range(a, b + 1))
        for p, q in intervals:
            if (p, q) != (a, b) and a <= p and q <= b:
                uncovered -= set(range(p, q + 1))
        (j,) = uncovered
        left = 3 ** (j - a) if j > a else 0
        right = 3 ** (b - j) if j < b else 0
        prime[j] = Fraction(3 ** (b - a + 1) - left - right)
        if j > a:
            fill(a, j - 1)
        if j < b:
            fill(j + 1, b)

    fill(1, n)
    s = 3**n - n - 1
    coords = [None] * (n + 1)
    for i in range(1, n):
        coords[i] = 2 * 3 ** (n - i) + Fraction(prime[i] - prime[i + 1], s)
    coords[n] = 3 + Fraction(prime[n] - 3, s)
    coords[0] = 3 ** (n + 1) - sum(coords[1:])
    return tuple(coords)


def test_recursive_construction_oracle():
    for n in (1, 2, 3, 4):
        anchor = Chain(frozenset({n}), tuple(range(1, n)))
        checked = 0
        for v in (face_of(key, n) for key in enumerate_vertices(n)):
            if anchor not in v:
                continue
            assert vertex_coordinates(v, n) == _construction_coordinates(v, n)
            checked += 1
        assert checked == [1, 2, 5, 14][n - 1]


def test_affine_dimension():
    a, b, c = ((0, 0), 1), ((1, 0), 1), ((0, 1), 1)
    assert affine_dimension([]) == -1
    assert affine_dimension([a]) == 0
    assert affine_dimension([a, b]) == 1
    assert affine_dimension([a, b, ((2, 0), 1)]) == 1
    assert affine_dimension([a, b, ((1, 0), 2)]) == 1  # (1/2, 0) lies on the line
    assert affine_dimension([b, ((2, 0), 2)]) == 0  # one point, written twice
    assert affine_dimension([a, b, c]) == 2
    assert affine_dimension([a, b, c], stop_at=1) == 1
    for mixed in ([b, ((1,), 1)], [b, ((0,), 1)]):  # a 2- and a 1-dimensional point
        with pytest.raises(ValueError, match="point dimension mismatch"):
            affine_dimension(mixed)


def _fraction_affine_dimension(points, stop_at=None):
    """Fraction elimination over the differences from the first point."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    basis = []  # (leading index, echelon row)
    for p in pts[1:]:
        vec = [a - b for a, b in zip(p, base)]
        for lead, row in basis:
            if vec[lead] != 0:
                factor = vec[lead] / row[lead]
                vec = [x - factor * y for x, y in zip(vec, row)]
        lead = next((i for i, x in enumerate(vec) if x != 0), None)
        if lead is not None:
            basis.append((lead, vec))
            if stop_at is not None and len(basis) >= stop_at:
                return len(basis)
    return len(basis)


@st.composite
def _scaled_point_sets(draw):
    """(X, d) points in up to 4 dimensions: some drawn freely, the rest
    repeats or integer combinations of earlier rows (X, d), hence affinely
    dependent on them."""
    dim = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            weights = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            row = [sum(w * r[i] for w, r in zip(weights, rows)) for i in range(dim + 1)]
            if row[-1] < 0:
                row = [-x for x in row]
            if row[-1] == 0:
                row = list(draw(st.sampled_from(rows)))
        else:
            coords = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
            row = [*coords, draw(st.integers(1, 4))]
        rows.append(row)
    return [(tuple(row[:-1]), row[-1]) for row in rows]


@settings(max_examples=400, deadline=None)
@given(_scaled_point_sets(), st.none() | st.integers(1, 4))
def test_affine_dimension_agrees_with_fraction_elimination(points, stop_at):
    fractions = [tuple(Fraction(x, d) for x in scaled) for scaled, d in points]
    expected = _fraction_affine_dimension(fractions, stop_at)
    assert affine_dimension(points, stop_at) == expected
    assert affine_dimension(points) == _fraction_affine_dimension(fractions)


def test_normalization_map_values():
    chart = normalization_map(2)
    assert chart.matrix == ((6, 6), (0, 6))
    assert chart.offset == (-51, -15)
    v = frozenset([chain_of({1, 2}, {2}), chain_of({2})])
    image = chart.apply(vertex_coordinates(v, 2))
    # both facets of the standard block become subset sums: x'_2 = 3, x'_1 + x'_2 = 9
    assert image[1] == 3 and image[0] + image[1] == 9


def test_normalized_functional_turns_facets_into_subset_sums():
    for n in (1, 2, 3):
        s = 3**n - n - 1
        seen = 0
        for c in enumerate_chains(n):
            interval = suffix_interval(c, range(n + 1))
            if interval is None:
                continue
            a, b = interval
            coeffs, const = normalized_functional(facet_inequality(c, n), n)
            indicator = tuple(
                Fraction(1, s) if a <= j <= b else Fraction(0) for j in range(1, n + 1)
            )
            assert coeffs == indicator
            assert const == -Fraction(3 ** (b - a + 1), s)
            seen += 1
        assert seen == n * (n + 1) // 2  # one chain per index interval


def test_normalized_functional_matches_every_facet_at_every_vertex():
    for n in (1, 2, 3):
        chart = normalization_map(n)
        points = [vertex_coordinates(face_of(v, n), n) for v in enumerate_vertices(n)]
        for h in h_representation(n)[1]:
            coeffs, const = normalized_functional(h, n)
            for x in points:
                image = chart.apply(x)
                assert sum(c * y for c, y in zip(coeffs, image)) + const == value(h, x) - h.rhs


def test_standard_chain_interval():
    assert suffix_interval(Chain({3}, (1, 2)), range(4)) == (1, 3)
    assert suffix_interval(Chain({2, 3}), range(4)) == (2, 2)
    assert suffix_interval(Chain({0}), range(4)) is None
    assert suffix_interval(Chain({1, 2}, (0,)), range(3)) is None  # top set is all of 0..n


def test_top_simplex_points():
    for n in (1, 2, 3, 4):
        points = top_simplex_points(n)
        assert len(points) == n
        ambient = ambient_plane(n)
        rhs = facet_rhs(n, 0, n)
        anchor = facet_inequality(Chain(frozenset({n}), tuple(range(1, n))), n)
        for p in points:
            assert tight(ambient, p)
            assert value(anchor, p) == rhs
        assert points[-1][-1] == 3 + fractional_offset(n, n)


def test_top_simplex_points_strictly_inside_other_facets():
    n = 3
    points = top_simplex_points(n)
    for c in enumerate_chains(n):
        if suffix_interval(c, range(n + 1)) is not None:
            continue
        h = facet_inequality(c, n)
        assert all(value(h, p) > h.rhs for p in points)


def test_polytope_graph_is_a_cycle_for_n2():
    g = polytope_graph(2)
    assert len(g.vertices) == 12 and len(g.edges) == 12
    assert g.is_connected()
    assert all(g.degree(i) == 2 for i in range(12))
    assert sum(1 for e in g.edges if e[2] == SIGMA) == 6


def test_polytope_graph_equals_rewrite_graph():
    for n in (1, 2, 3):
        assert polytope_graph(n) == build_graph(n)


def test_graph_degrees_match_an_edge_scan():
    for n in (1, 2, 3):
        for g in (build_graph(n), polytope_graph(n)):
            for i in range(len(g.vertices)):
                assert g.degree(i) == sum(1 for a, b, _ in g.edges if i in (a, b))
                for kind in (ALPHA, SIGMA):
                    scan = sum(1 for a, b, k in g.edges if k == kind and i in (a, b))
                    assert g.kind_degree(i, kind) == scan


def test_graph_degree_memo_leaves_equality_and_hash_alone():
    g = build_graph(3)
    before = hash(g)
    assert g.degree(0) == 3
    assert hash(g) == before
    assert g == polytope_graph(3)


def test_polytope_graph_shares_the_bracketing_objects():
    for n in (1, 2, 3, 4):
        g = polytope_graph(n)
        assert len(g.vertices) == len(all_bracketings(n))
        assert all(a is b for a, b in zip(g.vertices, all_bracketings(n)))


def _remap_two_vertices(swap):
    """A from_nested that sends the second vertex at n = 3 to the first one's
    bracketing, and with ``swap`` the first to the second one's as well."""
    first, second = (face_of(v, 3) for v in enumerate_vertices(3)[:2])
    images = {second: from_nested(first)}
    if swap:
        images[first] = from_nested(second)

    def remapped(chains):
        v = frozenset(chains)
        return images.get(v) or from_nested(v)

    return remapped


@pytest.mark.parametrize("swap", [False, True], ids=["collision", "swap"])
def test_a_broken_bijection_fails_the_graph_check(swap, monkeypatch):
    monkeypatch.setattr(geometry, "from_nested", _remap_two_vertices(swap))
    assert polytope_graph(3) != build_graph(3)
    report = realization_report(3)
    assert not report["graphs_equal"]
    assert not report["ok"]


_REPORT_FLAGS = (
    "tight_sets_match", "strict_inequalities", "simple", "vertices_distinct",
    "facets_irredundant", "graphs_equal", "graph_connected", "graph_regular",
    "sigma_degree_ok", "euler_ok",
)


def _false_flags(report):
    return [key for key in _REPORT_FLAGS if not report[key]]


def _without_sigma_edges(count):
    """A build_graph that drops the first ``count`` of its sigma edges, in
    sorted order, or every one of them with None."""

    def build(n, max_n=None):
        g = build_graph(n, max_n=max_n)
        sigma = sorted(e for e in g.edges if e[2] == SIGMA)
        return RewriteGraph(g.vertices, g.edges.difference(sigma[:count]))

    return build


def test_a_missing_sigma_edge_fails_the_graph_checks_in_order(monkeypatch):
    monkeypatch.setattr(geometry, "build_graph", _without_sigma_edges(1))
    report = realization_report(3)
    assert _false_flags(report) == ["graphs_equal", "graph_regular", "sigma_degree_ok"]
    assert report["failures"] == [
        "polytope graph differs from the rewrite graph",
        "rewrite graph is not n-regular",
        "some vertex does not have exactly one sigma edge",
    ]
    assert not report["ok"]


def test_no_sigma_edges_disconnect_the_rewrite_graph(monkeypatch):
    monkeypatch.setattr(geometry, "build_graph", _without_sigma_edges(None))
    report = realization_report(3)
    assert _false_flags(report) == [
        "graphs_equal", "graph_connected", "graph_regular", "sigma_degree_ok"
    ]
    assert report["failures"] == [
        "polytope graph differs from the rewrite graph",
        "rewrite graph is not connected",
        "rewrite graph is not n-regular",
        "some vertex does not have exactly one sigma edge",
    ]
    assert not report["ok"]


def test_colliding_vertex_points_fail_only_vertices_distinct(monkeypatch):
    first, second = enumerate_vertices(3)[:2]

    def collide(v, n, bounds=None):
        report = verify_vertex(v, n, bounds)
        if v == second:
            return replace(report, scaled=verify_vertex(first, n, bounds).scaled)
        return report

    monkeypatch.setattr(geometry, "verify_vertex", collide)
    report = realization_report(3)
    assert _false_flags(report) == ["vertices_distinct"]
    assert report["failures"] == ["vertex coordinates collide"]
    assert not report["ok"]


def test_f_vector():
    assert f_vector(1) == (2,)
    assert f_vector(2) == (12, 12)
    assert f_vector(3) == (120, 180, 62)
    for n in (1, 2, 3):
        fv = f_vector(n)
        assert sum((-1) ** k * fv[k] for k in range(n)) == 1 - (-1) ** n


def test_f_vector_sorts_no_face(monkeypatch):
    enumerate_vertices(4)  # the cached vertex list is built, and sorted, once

    def refuse(chain):
        raise AssertionError("f_vector sorted by Chain.sort_key")

    monkeypatch.setattr(Chain, "sort_key", refuse)
    assert f_vector(4) == (1680, 3360, 2020, 340)


def test_realization_report_clean_and_perturbed():
    report = realization_report(2)
    assert report["ok"]
    assert report["f_vector"] == [12, 12]
    assert report["failures"] == []

    bad = realization_report(2, perturb=True)
    assert not bad["ok"]
    assert not bad["strict_inequalities"]
    assert bad["failures"]

    keys = {
        "n", "perturbed", "vertex_count", "facet_count", "f_vector", "euler_ok",
        "tight_sets_match", "strict_inequalities", "simple", "vertices_distinct",
        "facets_irredundant", "graphs_equal", "graph_connected", "graph_regular",
        "sigma_degree_ok", "failures", "ok",
    }
    assert set(report) == set(bad) == keys


@pytest.mark.parametrize(
    ("n", "max_n", "env"), [(5, None, None), (6, 6, None), (6, None, "6"), (6, 6, "2")]
)
def test_realization_report_caps_at_5_unless_asked(n, max_n, env, monkeypatch):
    # reaching the chain list means the cap let n through; nothing is built
    class Reached(Exception):
        pass

    def reached(n):
        raise Reached

    if env is None:
        monkeypatch.delenv("PA_MAX_N", raising=False)
    else:
        monkeypatch.setenv("PA_MAX_N", env)
    monkeypatch.setattr(geometry, "_enumerate_chains", reached)
    with pytest.raises(Reached):
        realization_report(n, max_n=max_n)


def test_realization_report_refuses_n6_by_default(monkeypatch):
    monkeypatch.delenv("PA_MAX_N", raising=False)
    monkeypatch.setattr(geometry, "_enumerate_chains", None)  # a call would fail with TypeError
    with pytest.raises(ResourceCapError, match="cap 5 of the full check.*1,119 MB"):
        realization_report(6)
    monkeypatch.setenv("PA_MAX_N", "5")
    with pytest.raises(ResourceCapError, match="enumeration cap 5;"):
        realization_report(6)


def test_realization_report_refuses_perturb_at_n1():
    # at n = 1 the lowered bound still leaves a valid segment: nothing could fail
    with pytest.raises(ValueError, match="n >= 2"):
        realization_report(1, perturb=True)
    assert realization_report(1)["ok"]


def test_realization_report_interleaves_vertex_failures_and_caps_them(monkeypatch):
    def nothing_tight(v, n, bounds=None):
        scaled = geometry._solve_vertex([facet_table(n)[r] for r in v], n)
        return VertexReport(scaled, frozenset(), False, False)

    monkeypatch.setattr(geometry, "verify_vertex", nothing_tight)
    report = realization_report(3)
    label = print_bracketing(from_nested(face_of(enumerate_vertices(3)[0], 3)))
    assert report["failures"][:3] == [
        f"vertex {label}: tight facets differ from its own chains",
        f"vertex {label}: some outside facet is not strict",
        f"vertex {label}: tight on 0 facets, expected 3",
    ]
    assert len(report["failures"]) == 21
    assert report["failures"][-1] == "... more failures suppressed"
    assert not (report["tight_sets_match"] or report["strict_inequalities"] or report["simple"])
    assert not report["facets_irredundant"]
    assert not report["ok"]


def test_realization_report_flags_a_wrong_f_vector(monkeypatch):
    monkeypatch.setattr(geometry, "f_vector", lambda n, max_n=None: (121, 180, 62))
    report = realization_report(3)
    assert report["failures"] == [
        "Euler relation fails for f-vector (121, 180, 62)",
        "vertex count 120 differs from (2n)!/n! = 120",
    ]
    assert not report["euler_ok"]
    assert not report["ok"]
    flags = [key for key, value in report.items() if value is True]
    assert len(flags) == 9 and "euler_ok" not in flags

    # Euler holds for this one, so only the vertex count, which has no flag
    # of its own, can make the report fail
    monkeypatch.setattr(geometry, "f_vector", lambda n, max_n=None: (121, 181, 62))
    report = realization_report(3)
    assert report["failures"] == ["vertex count 120 differs from (2n)!/n! = 120"]
    assert report["euler_ok"]
    assert not report["ok"]
