import itertools
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import chain_of
from simplepa import (
    ALPHA,
    SIGMA,
    Chain,
    Hyperplane,
    ResourceCapError,
    SingularSystemError,
    affine_dimension,
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
    normalized_functional,
    polytope_graph,
    realization_report,
    solve_exact,
    standard_chain_interval,
    top_simplex_points,
    vertex_coordinates,
    verify_vertex,
)
from simplepa import geometry
from simplepa.brackets import from_nested, parse_bracketing, print_bracketing, to_nested
from simplepa.cli import render_bracketing_record
from simplepa.geometry import VertexReport, _facet_table


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
    with pytest.raises(ValueError):
        facet_rhs(0, 0, 2)
    with pytest.raises(ValueError):
        facet_rhs(2, 1, 2)
    with pytest.raises(ValueError):
        fractional_offset(3, 2)


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


def test_hyperplane_row_is_integral_and_stays_out_of_equality():
    h = facet_inequality(Chain({2}, (1,)), 2)  # x_1 + 2 x_2 >= 25/2
    twin = Hyperplane(h.coeffs, h.rhs)
    before = hash(h)
    assert h.row == ((0, 2, 4), 25)
    assert "row" in vars(h) and "row" not in vars(twin)
    assert h == twin and hash(h) == hash(twin) == before
    assert repr(h) == repr(twin)


def test_h_representation():
    ambient, facets = h_representation(1)
    assert ambient.coeffs == (1, 1) and ambient.rhs == 9
    assert [h.coeffs for h in facets] == [(1, 0), (0, 1)]
    assert all(h.rhs == 3 for h in facets)
    assert len(h_representation(2)[1]) == 12
    assert len(h_representation(3)[1]) == 62


def test_solve_exact():
    assert solve_exact([[2, 1], [1, -1]], [7, -1]) == ((2, 3), 1)  # determinant -3
    assert solve_exact([[0, 2], [3, 1]], [1, 1]) == ((1, 3), 6)  # needs a row swap
    assert solve_exact([[2, 0], [0, 4]], [1, 1]) == ((2, 1), 4)  # lowest terms
    with pytest.raises(SingularSystemError):
        solve_exact([[1, 2], [2, 4]], [1, 2])
    with pytest.raises(ValueError):
        solve_exact([[1, 2]], [1])


def _gauss_jordan(matrix, rhs):
    """Fraction Gauss-Jordan elimination; None for a singular system."""
    size = len(matrix)
    aug = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(size):
            if r != col:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    return tuple(row[size] for row in aug)


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
    expected = _gauss_jordan(matrix, rhs)
    assume(expected is not None)
    scaled, d = solve_exact(matrix, rhs)
    assert d > 0
    assert tuple(Fraction(x, d) for x in scaled) == expected


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
    _facet_table.cache_clear()
    record = json.loads(render_bracketing_record("((3*(7*0))*(((5*2)*6)*(1*4)))", 7))
    assert _facet_table.cache_info().currsize == 0  # no 118,974-row table was built
    point = [Fraction(x) for x in record["coordinates"]]
    assert sum(point) == 3**8
    assert len(record["tight"]) == 7
    for row in record["tight"]:
        assert facet_inequality(Chain(row["core"], row["ext"]), 7).tight(point)


def test_verify_vertex_all_pass_n2():
    for v in enumerate_vertices(2):
        report = verify_vertex(v, 2)
        assert report.tight == v
        assert report.strict_ok
        assert report.multiplicity_ok


def test_verify_vertex_refuses_n_above_the_cap(monkeypatch):
    monkeypatch.delenv("PA_MAX_N", raising=False)
    v = to_nested(parse_bracketing("((3*(7*0))*(((5*2)*6)*(1*4)))", 7))
    _facet_table.cache_clear()
    with pytest.raises(ResourceCapError):
        verify_vertex(v, 7)
    assert _facet_table.cache_info().currsize == 0  # no 118,974-row table was built


def test_verify_vertex_negative_control():
    # lowering one bound must surface as a strictness failure somewhere
    table = dict(_facet_table(2))
    target = list(table)[-1]
    h = table[target]
    table[target] = Hyperplane(h.coeffs, h.rhs - 1)
    reports = [verify_vertex(v, 2, facets=table) for v in enumerate_vertices(2)]
    assert any(not r.strict_ok for r in reports)


def _fraction_verdict(v, table, report):
    """verify_vertex's tight set and strictness, recomputed at the point X/d
    with the Fraction forms Hyperplane.tight and Hyperplane.value."""
    scaled, d = report.scaled
    point = tuple(Fraction(x, d) for x in scaled)
    tight = frozenset(c for c, h in table.items() if h.tight(point))
    strict_ok = all(h.value(point) > h.rhs for c, h in table.items() if c not in v)
    return tight, strict_ok


def test_verify_vertex_agrees_with_fraction_oracle():
    for n in (1, 2, 3):
        table = _facet_table(n)
        for v in enumerate_vertices(n):
            report = verify_vertex(v, n)
            assert (report.tight, report.strict_ok) == _fraction_verdict(v, table, report)
            assert report.multiplicity_ok == (len(report.tight) == n)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("shift", [1, -1, Fraction(1, 7), -Fraction(1, 7)])
def test_verify_vertex_agrees_with_fraction_oracle_on_shifted_tables(n, shift):
    # a shift by 1/7 gives vertex denominators that do not divide 2(3^n - n - 1)
    base = _facet_table(n)
    chains = list(base)
    for target in (chains[0], chains[-1]):
        table = dict(base)
        h = table[target]
        table[target] = Hyperplane(h.coeffs, h.rhs + shift)
        for v in enumerate_vertices(n):
            report = verify_vertex(v, n, facets=table)
            scaled, d = report.scaled
            assert all(type(x) is int for x in scaled)
            assert d > 0 and gcd(d, *scaled) == 1
            assert (report.tight, report.strict_ok) == _fraction_verdict(v, table, report)


def test_verify_vertex_flags_a_facet_moved_onto_an_outside_vertex():
    n = 3
    base = _facet_table(n)
    target = list(base)[-1]
    outside = next(v for v in enumerate_vertices(n) if target not in v)
    h = base[target]
    table = dict(base)
    table[target] = Hyperplane(h.coeffs, h.value(vertex_coordinates(outside, n)))
    report = verify_vertex(outside, n, facets=table)
    assert report.tight == outside | {target}
    assert not report.strict_ok and not report.multiplicity_ok
    for v in enumerate_vertices(n):
        report = verify_vertex(v, n, facets=table)
        assert (report.tight, report.strict_ok) == _fraction_verdict(v, table, report)


def test_vertex_denominators_divide_twice_offset_denominator():
    for n in (1, 2, 3, 4):
        bound = 2 * (3**n - n - 1)
        for v in enumerate_vertices(n):
            assert all(bound % x.denominator == 0 for x in vertex_coordinates(v, n))


def test_tight_pairs_are_nested():
    # any two facets meeting at a common vertex are compatible
    for n in (1, 2, 3):
        for v in enumerate_vertices(n):
            tight = verify_vertex(v, n).tight
            for a, b in itertools.combinations(tight, 2):
                assert is_nested({a, b}, n)


def _construction_coordinates(v, n):
    """Independent oracle for vertices over the identity permutation: solve
    the normalized coordinates interval by interval, then map back."""
    intervals = set()
    for c in v:
        interval = standard_chain_interval(c, n)
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
        for v in enumerate_vertices(n):
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
            interval = standard_chain_interval(c, n)
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


def test_standard_chain_interval():
    assert standard_chain_interval(Chain({3}, (1, 2)), 3) == (1, 3)
    assert standard_chain_interval(Chain({2, 3}), 3) == (2, 2)
    assert standard_chain_interval(Chain({0}), 3) is None
    assert standard_chain_interval(Chain({1, 2}, (0,)), 2) is None  # top set is all of 0..n


def test_top_simplex_points():
    for n in (1, 2, 3, 4):
        points = top_simplex_points(n)
        assert len(points) == n
        ambient = ambient_plane(n)
        rhs = facet_rhs(n, 0, n)
        anchor = facet_inequality(Chain(frozenset({n}), tuple(range(1, n))), n)
        for p in points:
            assert ambient.tight(p)
            assert anchor.value(p) == rhs
        assert points[-1][-1] == 3 + fractional_offset(n, n)


def test_top_simplex_points_strictly_inside_other_facets():
    n = 3
    points = top_simplex_points(n)
    for c in enumerate_chains(n):
        if standard_chain_interval(c, n) is not None:
            continue
        h = facet_inequality(c, n)
        assert all(h.value(p) > h.rhs for p in points)


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


def test_f_vector():
    assert f_vector(1) == (2,)
    assert f_vector(2) == (12, 12)
    assert f_vector(3) == (120, 180, 62)
    for n in (1, 2, 3):
        fv = f_vector(n)
        assert sum((-1) ** k * fv[k] for k in range(n)) == 1 - (-1) ** n


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


def test_realization_report_refuses_perturb_at_n1():
    # at n = 1 the lowered bound still leaves a valid segment: nothing could fail
    with pytest.raises(ValueError, match="n >= 2"):
        realization_report(1, perturb=True)
    assert realization_report(1)["ok"]


def test_realization_report_interleaves_vertex_failures_and_caps_them(monkeypatch):
    def nothing_tight(v, n, facets=None):
        scaled = geometry._solve_vertex(v, n, _facet_table(n))
        return VertexReport(scaled, frozenset(), False, False)

    monkeypatch.setattr(geometry, "verify_vertex", nothing_tight)
    report = realization_report(3)
    label = print_bracketing(from_nested(enumerate_vertices(3)[0]))
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
