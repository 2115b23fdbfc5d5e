"""Exact rational realization of the simple permutoassociahedron.

The polytope PA_n lives in the hyperplane x_0 + ... + x_n = 3^(n+1) of
R^(n+1).  A chain with k sets whose core has l+1 labels contributes one
facet halfspace: coefficient j on the j-th ext label (outermost first),
coefficient k on every core label, and right-hand side

    (3^(k+l+1) - 3^(l+1)) / 2  +  (3^k - 3k) / (3^n - n - 1).

The second summand is a sub-unit fractional offset; it is exactly what makes
a vertex meet its own n facets and clear every other facet strictly, so the
whole module works in exact arithmetic and never touches floating point.
The check runs in integers: each vertex is solved from the facets' integer
rows by fraction-free elimination as X/d over one common denominator d,
compared with each facet by one integer comparison, and kept as (X, d) to
rank the facet hulls.  Fractions appear only at input and output: facet
right-hand sides, the coordinates a caller reads, the normalization chart.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial
from math import gcd, prod
from operator import mul

from .limits import check_cap, check_n
from .nestedsets import (
    Chain,
    NestedSet,
    enumerate_chains,
    enumerate_vertices,
    faces,
    is_full_chain,
    is_nested,
    suffix_interval,
)


def fractional_offset(k: int, n: int) -> Fraction:
    """The sub-unit offset (3^k - 3k) / (3^n - n - 1); zero for k = 1."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return Fraction(3**k - 3 * k, 3**n - n - 1)


def facet_rhs(k: int, l: int, n: int) -> Fraction:
    """Right-hand side of the facet inequality of a chain with k sets whose
    core has l+1 labels.  Equals 3^(l+k) + ... + 3^(l+1) plus the offset."""
    if not (1 <= k and 0 <= l and k + l <= n):
        raise ValueError(f"need 1 <= k and k+l <= n, got k={k}, l={l}, n={n}")
    return Fraction(3 ** (k + l + 1) - 3 ** (l + 1), 2) + fractional_offset(k, n)


@dataclass(frozen=True)
class Hyperplane:
    """Integer linear form over x_0..x_n with a rational bound."""

    coeffs: tuple[int, ...]
    rhs: Fraction

    def value(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != len(self.coeffs):
            raise ValueError("point dimension mismatch")
        return sum((c * x for c, x in zip(self.coeffs, point)), Fraction(0))

    def tight(self, point: Sequence[Fraction]) -> bool:
        return self.value(point) == self.rhs

    @cached_property
    def row(self) -> tuple[tuple[int, ...], int]:
        """The integer form (q*a, p) of a.x vs p/q; out of ==, hash and repr."""
        q = self.rhs.denominator
        return tuple(q * a for a in self.coeffs), self.rhs.numerator


def facet_inequality(chain: Chain, n: int) -> Hyperplane:
    """The facet halfspace a.x >= rhs of a chain."""
    chain.check(n)
    k = chain.num_sets
    coeffs = [0] * (n + 1)
    for position, label in enumerate(chain.ext, start=1):
        coeffs[label] = position
    for label in chain.core:
        coeffs[label] = k
    return Hyperplane(tuple(coeffs), facet_rhs(k, len(chain.core) - 1, n))


def ambient_plane(n: int) -> Hyperplane:
    """The hyperplane x_0 + ... + x_n = 3^(n+1) containing the polytope."""
    check_n(n)
    return Hyperplane((1,) * (n + 1), Fraction(3 ** (n + 1)))


def h_representation(n: int) -> tuple[Hyperplane, list[Hyperplane]]:
    """The ambient equality plus one facet inequality per chain, canonical order."""
    return ambient_plane(n), [facet_inequality(c, n) for c in enumerate_chains(n)]


# ---------------------------------------------------------------------------
# exact linear algebra

class SingularSystemError(ArithmeticError):
    """The linear system has no unique solution."""


def solve_exact(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> ScaledPoint:
    """Solve a square integer system exactly: x = X/d in lowest terms, d > 0.

    Fraction-free (Bareiss 1968): each forward step divides exactly by the
    previous pivot, and the back-substitution scales by the last pivot (the
    determinant up to sign), so by Cramer's rule its divisions are exact too.
    Raises SingularSystemError when no pivot can be found.
    """
    size = len(matrix)
    if len(rhs) != size or any(len(row) != size for row in matrix):
        raise ValueError("expected a square system")
    aug = [[*map(int, row), int(b)] for row, b in zip(matrix, rhs)]
    previous = 1
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularSystemError(f"no pivot in column {col}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, size):
            factor = aug[r][col]
            row = aug[r]
            top = aug[col]
            for c in range(col, size + 1):
                row[c] = (pivot * row[c] - factor * top[c]) // previous
        previous = pivot
    numerators = [0] * size
    for r in range(size - 1, -1, -1):
        row = aug[r]
        acc = previous * row[size] - sum(map(mul, row[r + 1 : size], numerators[r + 1 :]))
        numerators[r] = acc // row[r]
    g = gcd(previous, *numerators) if previous > 0 else -gcd(previous, *numerators)
    return tuple(x // g for x in numerators), previous // g


Point = tuple[Fraction, ...]
ScaledPoint = tuple[tuple[int, ...], int]  # (X, d), the point X/d in lowest terms, d > 0


@lru_cache(maxsize=None)
def _facet_table(n: int) -> dict[Chain, Hyperplane]:
    return {c: facet_inequality(c, n) for c in enumerate_chains(n)}


def _solve_vertex(v: Iterable[Chain], n: int, table: Mapping[Chain, Hyperplane]) -> ScaledPoint:
    coeffs, rhs = zip(*(table[chain].row for chain in v), ((1,) * (n + 1), 3 ** (n + 1)))
    return solve_exact(coeffs, rhs)


def vertex_coordinates(v: NestedSet, n: int) -> Point:
    """The unique point where the n facet hyperplanes of a maximal nested set
    meet the ambient plane."""
    v = frozenset(v)
    if len(v) != n:
        raise ValueError(f"expected a maximal nested set of cardinality {n}")
    if not is_nested(v, n):
        raise ValueError("the given chains are not nested")
    scaled, d = _solve_vertex(v, n, {c: facet_inequality(c, n) for c in v})
    return tuple(Fraction(x, d) for x in scaled)


@dataclass(frozen=True)
class VertexReport:
    """Outcome of checking one vertex, solved as ``scaled`` = (X, d), against every facet."""

    scaled: ScaledPoint
    tight: frozenset[Chain]
    strict_ok: bool
    multiplicity_ok: bool


def verify_vertex(
    v: NestedSet, n: int, facets: Mapping[Chain, Hyperplane] | None = None
) -> VertexReport:
    """Solve the vertex from its defining system, then report which facets it
    meets with equality and whether all remaining ones hold strictly.

    On a correct realization, ``tight`` equals ``v``, every other facet is
    strict, and the vertex lies on exactly n facet hyperplanes.
    """
    v = frozenset(v)
    if facets is None:
        check_cap(n)
        facets = _facet_table(n)
    # with x = X/d, a.x >= p/q compares exactly as (q*a).X >= p*d, since d, q > 0
    scaled, d = _solve_vertex(v, n, facets)
    tight = []
    strict_ok = True
    for c, h in facets.items():
        coeffs, p = h.row
        lhs = sum(map(mul, coeffs, scaled))
        bound = p * d
        if lhs <= bound:
            if lhs == bound:
                tight.append(c)
            if c not in v:
                strict_ok = False
    return VertexReport((scaled, d), frozenset(tight), strict_ok, len(tight) == n)


def affine_dimension(points: Iterable[ScaledPoint], stop_at: int | None = None) -> int:
    """Dimension of the affine hull of the points X/d, given as (X, d) with
    d > 0, computed over the integers.

    Since (X, d) = d * (X/d, 1), the affine dimension is the rank of the
    integer rows (X, d) less one.  Returns -1 for no points.  ``stop_at``
    allows an early exit as soon as the dimension is known to reach that
    value.
    """
    basis: list[tuple[int, list[int]]] = []  # (leading index, echelon row)
    for scaled, d in points:
        vec = [*scaled, d]
        for lead, row in basis:
            factor = vec[lead]
            if factor:
                pivot = row[lead]
                vec = [pivot * x - factor * y for x, y in zip(vec, row)]
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is not None:
            g = gcd(*vec)
            basis.append((lead, [x // g for x in vec]))
            if stop_at is not None and len(basis) - 1 >= stop_at:
                break
    return len(basis) - 1


# ---------------------------------------------------------------------------
# normalization to subset-sum coordinates

@dataclass(frozen=True)
class AffineMap:
    """x' = offset + matrix @ (x_1..x_n); the x_0 coordinate is dropped."""

    matrix: tuple[tuple[Fraction, ...], ...]
    offset: tuple[Fraction, ...]

    def apply(self, point: Sequence[Fraction]) -> Point:
        n = len(self.offset)
        if len(point) != n + 1:
            raise ValueError(f"expected a point with {n + 1} coordinates")
        tail = point[1:]
        return tuple(
            off + sum((m * x for m, x in zip(row, tail)), Fraction(0))
            for row, off in zip(self.matrix, self.offset)
        )


def normalization_map(n: int) -> AffineMap:
    """The affine chart that turns the facets derived from the descending
    complete chain {n,..,1} > ... > {n} into subset-sum form: a facet whose
    sets are the suffixes with index interval Y maps to sum(x'_i, i in Y) =
    3^|Y|, and the whole polytope image satisfies x'_i >= 3."""
    check_n(n)
    s = 3**n - n - 1
    matrix = tuple(
        tuple(Fraction(s) if j >= i else Fraction(0) for j in range(n)) for i in range(n)
    )
    offset = tuple(Fraction(3 - s * 3 ** (n - i + 1)) for i in range(1, n + 1))
    return AffineMap(matrix, offset)


def _w_vector(n: int) -> list[int]:
    # x-coordinates of the normalization's base point: 2*3^(n-i) except 3 at the end
    return [2 * 3 ** (n - i) for i in range(1, n)] + [3]


def normalized_functional(h: Hyperplane, n: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Pull the hyperplane's functional back through the inverse of the
    normalization chart, restricted to the ambient plane.

    Returns (coeffs, constant) with the image of ``h`` intersected with the
    ambient plane equal to {x' : coeffs . x' + constant = 0}.
    """
    if len(h.coeffs) != n + 1:
        raise ValueError("hyperplane dimension mismatch")
    s = 3**n - n - 1
    w = _w_vector(n)
    # x_i as an affine function of x' (1-based i); row i-1 holds its coeffs
    coeff = [[Fraction(0)] * n for _ in range(n)]
    const = [Fraction(0)] * n
    for i in range(n):
        const[i] = Fraction(w[i])
        coeff[i][i] = Fraction(1, s)
        if i + 1 < n:
            coeff[i][i + 1] = -Fraction(1, s)
        else:
            const[i] -= Fraction(3, s)
    # x_0 = 3^(n+1) - (x_1 + ... + x_n) on the ambient plane
    coeff0 = [-sum(coeff[i][j] for i in range(n)) for j in range(n)]
    const0 = Fraction(3 ** (n + 1)) - sum(const)

    out_coeffs = [h.coeffs[0] * coeff0[j] for j in range(n)]
    out_const = h.coeffs[0] * const0 - h.rhs
    for i in range(n):
        a = h.coeffs[i + 1]
        if a:
            for j in range(n):
                out_coeffs[j] += a * coeff[i][j]
            out_const += a * const[i]
    return tuple(out_coeffs), out_const


def standard_chain_interval(chain: Chain, n: int) -> tuple[int, int] | None:
    """The 1-based index interval (a, b) when every set of the chain is a
    suffix {j, ..., n}; None for chains not of that shape."""
    return suffix_interval(chain, range(n + 1))


def top_simplex_points(n: int) -> list[Point]:
    """n points spanning the simplex cut out of the ambient permutohedron by
    the facet hyperplane of the complete descending chain.

    The i-th point is the common base point (2*3^n, 2*3^(n-1), ..., 6, 3)
    with the offset moved from coordinate i-1 to coordinate i.
    """
    check_n(n)
    eps = fractional_offset(n, n)
    base = [Fraction(2 * 3 ** (n - j)) for j in range(n)] + [Fraction(3)]
    points = []
    for i in range(1, n + 1):
        coords = list(base)
        coords[i - 1] -= eps
        coords[i] += eps
        points.append(tuple(coords))
    return points


# ---------------------------------------------------------------------------
# the polytope graph and face counts

def polytope_graph(n: int, max_n: int | None = None):
    """The graph of the polytope, built from face combinatorics alone:
    vertices are maximal nested sets, edges join pairs sharing n-1 chains.
    Must coincide with the rewrite graph under the bracketing bijection."""
    from .brackets import ALPHA, SIGMA, RewriteGraph, vertices_in_printed_order

    order = vertices_in_printed_order(n, max_n=max_n)
    index = {v: i for i, (_, v) in enumerate(order)}

    buckets: dict[NestedSet, list[int]] = {}
    for v, i in index.items():
        for chain in v:
            buckets.setdefault(v - {chain}, []).append(i)
    edges = set()
    for edge_face, pair in buckets.items():
        if len(pair) != 2:
            raise RuntimeError(f"edge face shared by {len(pair)} vertices, expected 2")
        i, j = sorted(pair)
        kind = ALPHA if any(is_full_chain(c, n) for c in edge_face) else SIGMA
        edges.add((i, j, kind))
    return RewriteGraph(tuple(b for b, _ in order), frozenset(edges))


def f_vector(n: int, max_n: int | None = None) -> tuple[int, ...]:
    """(f_0, ..., f_(n-1)): the number of faces in each proper dimension."""
    return tuple(len(faces(n, dim, max_n=max_n)) for dim in range(n))


# ---------------------------------------------------------------------------
# the full verification suite

_MAX_REPORTED_FAILURES = 20


def realization_report(n: int, perturb: bool = False, max_n: int | None = None) -> dict:
    """Run every geometric and combinatorial check at size n and return a
    JSON-ready summary.

    Checks: each vertex solves to a point tight on exactly its own chains and
    strictly inside every other facet; all vertices are distinct; every facet
    carries enough affinely independent vertices to be facet-defining; the
    polytope graph equals the rewrite graph (connected, n-regular, one sigma
    edge per vertex); the face counts satisfy the Euler relation.

    The checks form one ordered table.  Each check is a generator yielding a
    ``(report_key, message)`` pair per failure; a key's flag in the report is
    true when the key never failed, and ``ok`` when nothing failed.

    ``perturb`` lowers one facet's right-hand side by 1 before checking, as a
    negative control: the report must then flag failures.  It needs n >= 2,
    since at n = 1 the lowered bound still cuts out a valid segment.
    """
    from .brackets import SIGMA, build_graph, from_nested, print_bracketing

    check_cap(n, max_n)
    table = dict(_facet_table(n))
    if perturb and n < 2:
        raise ValueError(f"perturb needs n >= 2, got {n}: a lowered bound still leaves a segment")
    if perturb:
        # relax the last canonical facet (a complete descending chain); the
        # vertices on it then cross their neighboring facets
        target = list(table)[-1]
        h = table[target]
        table[target] = Hyperplane(h.coeffs, h.rhs - 1)

    verts = enumerate_vertices(n, max_n=max_n)
    points: list[ScaledPoint] = []
    tight_points: dict[Chain, list[ScaledPoint]] = {c: [] for c in table}

    # shared by several checks; built once, by the first check that runs
    rewrite = cache(partial(build_graph, n, max_n=max_n))
    fv = cache(partial(f_vector, n, max_n=max_n))

    def vertices():
        for v in verts:
            report = verify_vertex(v, n, facets=table)
            points.append(report.scaled)
            for chain in report.tight:
                tight_points[chain].append(report.scaled)
            problems = []
            if report.tight != v:
                problems.append(("tight_sets_match", "tight facets differ from its own chains"))
            if not report.strict_ok:
                problems.append(("strict_inequalities", "some outside facet is not strict"))
            if not report.multiplicity_ok:
                problems.append(("simple", f"tight on {len(report.tight)} facets, expected {n}"))
            if problems:  # the label is printed only for a vertex that fails
                label = print_bracketing(from_nested(v))
                for key, problem in problems:
                    yield key, f"vertex {label}: {problem}"

    def distinct():
        if len(set(points)) != len(points):
            yield "vertices_distinct", "vertex coordinates collide"

    def irredundant():
        for chain, pts in tight_points.items():
            if affine_dimension(pts, stop_at=n - 1) < n - 1:
                yield "facets_irredundant", (
                    f"facet {chain!r} is not facet-defining (affine dimension < {n - 1})"
                )

    def graphs_equal():
        if rewrite() != polytope_graph(n, max_n=max_n):
            yield "graphs_equal", "polytope graph differs from the rewrite graph"

    def connected():
        if not rewrite().is_connected():
            yield "graph_connected", "rewrite graph is not connected"

    def regular():
        if any(rewrite().degree(i) != n for i in range(len(rewrite().vertices))):
            yield "graph_regular", "rewrite graph is not n-regular"

    def one_sigma_edge():
        if any(rewrite().kind_degree(i, SIGMA) != 1 for i in range(len(rewrite().vertices))):
            yield "sigma_degree_ok", "some vertex does not have exactly one sigma edge"

    def euler():
        if sum((-1) ** k * fv()[k] for k in range(n)) != 1 - (-1) ** n:
            yield "euler_ok", f"Euler relation fails for f-vector {fv()}"

    def vertex_count():
        expected = prod(range(n + 1, 2 * n + 1))
        if len(verts) != expected or fv()[0] != expected:
            yield None, f"vertex count {len(verts)} differs from (2n)!/n! = {expected}"

    checks = (
        (("tight_sets_match", "strict_inequalities", "simple"), vertices),
        (("vertices_distinct",), distinct),
        (("facets_irredundant",), irredundant),
        (("graphs_equal",), graphs_equal),
        (("graph_connected",), connected),
        (("graph_regular",), regular),
        (("sigma_degree_ok",), one_sigma_edge),
        (("euler_ok",), euler),
        ((), vertex_count),
    )
    failures: list[str] = []
    failed = set()
    for _, check in checks:
        for key, message in check():
            failed.add(key)
            if len(failures) < _MAX_REPORTED_FAILURES:
                failures.append(message)
            elif len(failures) == _MAX_REPORTED_FAILURES:
                failures.append("... more failures suppressed")

    return {
        "n": n,
        "perturbed": perturb,
        "vertex_count": len(verts),
        "facet_count": len(table),
        "f_vector": list(fv()),
        **{key: key not in failed for keys, _ in checks for key in keys},
        "failures": failures,
        "ok": not failed,
    }
