"""Exact rational realization of the simple permutoassociahedron.

The polytope PA_n lives in the hyperplane x_0 + ... + x_n = 3^(n+1) of
R^(n+1).  A chain with k sets whose core has l+1 labels contributes one
facet halfspace: coefficient j on the j-th ext label (outermost first),
coefficient k on every core label, and right-hand side

    (3^(k+l+1) - 3^(l+1)) / 2  +  (3^k - 3k) / (3^n - n - 1).

The second summand is a sub-unit fractional offset; it is exactly what makes
a vertex meet its own n facets and clear every other facet strictly, so the
whole module works in exact arithmetic and never touches floating point.
The check runs in integers: each vertex is solved as X/d over one common
denominator d, and kept as (X, d) to rank the facet hulls.  Fractions
appear only at input and output: facet right-hand sides, the coordinates a
caller reads, the normalization chart.  The check takes each vertex as its
key, the ranks of its chains in ``enumerate_chains(n)``, decodes those n
chains to its bracketing (``brackets._decode``, whose lemma is the vertex
test), and reports the tight facets as a set of ranks.

The facets fall into n(n+1)/2 classes (k, l), 1 <= k and k+l <= n.  All
facets of a class share one right-hand side, and their rows are the
placements onto the labels of one vector: k on l+1 labels, then k-1, ..., 1
on k-1 more, and 0 on the rest.  Each placement is the row of exactly one
chain (core the k's, ext read from 1 up to k-1), so a class holds all
C(n+1, l+1)·(n-l)!/(n-l-k+1)! of them, and the class sizes sum to the
facet count.  Every chain of class (k, l) has the span (n-l-k, n-l)
below, so the bounds are one table of n(n+1)/2 entries keyed by span.

Lemma (the vertex system is triangular).  Let the vertex be the bracketing
(perm, spans), write Y_m = x_perm[m] + ... + x_perm[n], so Y_0 = 3^(n+1)
on the ambient plane, and P(m) = Y_1 + ... + Y_m, so P(0) = 0.  The chain
at the node (lo, hi), its :meth:`~simplepa.nestedsets.Chain.span`, has
core perm[hi:] and ext perm[lo+1:hi], so its row gives coefficient m - lo
to x_perm[m] for lo < m < hi and hi - lo to the core: it is Y_(lo+1) +
... + Y_hi = P(hi) - P(lo), the "subset-sum form" of
:func:`normalization_map`.  Taken in preorder, each node has one end
known: the root's lo is 0, a left child shares its parent's lo and a
right child its parent's hi.  Its row then sets the other end, which
lies strictly between its parent's ends and was set by no earlier row,
so the n rows set P(1), ..., P(n) once each.  The system is triangular
in P with unit diagonal, and Y_m = P(m) - P(m-1) and x_perm[j] = Y_j -
Y_(j+1) are unimodular.  Hence the system is nonsingular, and one exact
addition or subtraction per node solves it, where elimination takes
O(n^3) steps.  This is the recursion over binary trees behind Loday's
coordinates ("Realization of the Stasheff polytope", 2004).  The pass
reads only (perm, spans) and each span's bound, or a new one, as
``--perturb`` sets.  It gives the same lowest-terms (X, d) as
:func:`solve_exact`, the test oracle and :func:`vertex_coordinates`'s
independent route, which eliminates on the chains' own coefficients,
integers of at most n, and the ambient row of ones, with the bounds over
one common denominator in the right-hand side.  Its minors are then of
that small matrix: Hadamard's bound for entries of at most n,
(n·sqrt(n+1))^(n+1), is about 35 bits at n = 7, where rows scaled by
each bound's own denominator, up to 2(3^n - n - 1), allowed about 131.
Neither route checks its own answer; the chamber check below derives the
tight set afresh from the point, so a wrong solve fails the check.

Lemma (the chamber).  The vertex of (perm, spans) lies in perm's chamber:
x_perm[0] > x_perm[1] > ... > x_perm[n].  The bound of the node (lo, hi)
is 3^(n+1-hi) + ... + 3^(n-lo) + e_k, with k = hi - lo and the offset
e_k = (3^k - 3k)/(3^n - n - 1), so with Y_m = 3^(n+1-m) + z_m, where z_0
= 0 and z_(n+1) = -1, the node's row says z_(lo+1) + ... + z_hi = e_k.
As 0 = e_1 <= e_2 <= ... <= e_n < 1, the end that a node sets of Z(m) =
z_1 + ... + z_m lies between its parent's two, so every Z(m) lies in
[0, e_n] and |z_m| < 1 for 1 <= m <= n.  Hence x_perm[j] - x_perm[j+1] =
4·3^(n-1-j) + z_j - 2·z_(j+1) + z_(j+2) > 4 - 4 = 0.  In the chamber, by
the rearrangement inequality (Hardy, Littlewood and Pólya,
*Inequalities*, §10.2), the least value of class (k, l) pairs its
largest coefficients with the smallest coordinates, and only one
placement attains it: perm's chain at the span (n-l-k, n-l).  So the
check is one integer comparison per span, each least value a difference
of two prefix sums of X read along perm reversed: the tree's n spans
meet their bounds, each naming the key's rank there, and the other
n(n-1)/2 clear theirs.  New bounds, such as ``--perturb``'s, are then
compared one by one.  A point that the spans leave undecided (outside the
chamber, below a bound or tight off the tree) is scanned facet by facet.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import gcd, lcm, prod
from operator import mul, sub

from .brackets import (
    ALPHA, SIGMA, RewriteGraph, _decode, _position_index, all_bracketings, build_graph,
    from_nested, print_bracketing,
)
from .limits import CHECK_MAX_N, CHECK_WHY, check_cap, check_n
from .nestedsets import (
    Chain,
    NestedSet,
    _enumerate_chains,
    enumerate_chains,
    enumerate_vertices,
    faces,
    is_full_chain,
    is_nested,
)


def fractional_offset(k: int, n: int) -> Fraction:
    """The sub-unit offset (3^k - 3k) / (3^n - n - 1); zero for k = 1."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return Fraction(3**k - 3 * k, 3**n - n - 1)


@lru_cache(maxsize=None)
def facet_rhs(k: int, l: int, n: int) -> Fraction:
    """Right-hand side of the facet inequality of a chain with k sets whose
    core has l+1 labels.  Equals 3^(l+k) + ... + 3^(l+1) plus the offset.
    Cached: at most the n(n+1)/2 classes of each n, as :func:`_span_bounds`
    keeps them; a refused class raises, so it is never cached."""
    if not (1 <= k and 0 <= l and k + l <= n):
        raise ValueError(f"need 1 <= k and k+l <= n, got k={k}, l={l}, n={n}")
    return Fraction(3 ** (k + l + 1) - 3 ** (l + 1), 2) + fractional_offset(k, n)


@dataclass(frozen=True)
class Hyperplane:
    """Integer linear form over x_0..x_n with a rational bound."""

    coeffs: tuple[int, ...]
    rhs: Fraction


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


def h_representation(n: int, max_n: int | None = None) -> tuple[Hyperplane, list[Hyperplane]]:
    """The ambient equality plus one facet inequality per chain, canonical
    order; n above the cap is refused before any chain is listed."""
    return ambient_plane(n), [facet_inequality(c, n) for c in enumerate_chains(n, max_n)]


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
Key = tuple[int, ...]  # a vertex: the ranks of its chains in enumerate_chains(n)


def _solve_vertex(rows: Sequence[Hyperplane], n: int) -> ScaledPoint:
    """The point where the facet hyperplanes ``rows`` of one vertex meet the
    ambient plane.

    :func:`solve_exact` gets the rows' own coefficients, at most n for a
    chain's row, beside the ambient row of ones.  The bounds p/q share one
    denominator D, the lcm of the q, which goes into the right-hand side,
    so the system solves to D·x = X/e, and x is X/(e·D).  That is in lowest
    terms already: an integer row a with a·x = p/q makes q divide the
    least denominator of x, so D divides it, and e·D over it divides both
    e and every X, whose only common divisor is 1."""
    d = lcm(*[h.rhs.denominator for h in rows])
    rhs = [h.rhs.numerator * (d // h.rhs.denominator) for h in rows]
    scaled, e = solve_exact([*(h.coeffs for h in rows), (1,) * (n + 1)], [*rhs, 3 ** (n + 1) * d])
    return scaled, e * d


Tree = dict[tuple[int, int], int]  # each node's span (lo, hi), to the rank of its chain


@lru_cache(maxsize=None)
def _span_bounds(n: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The bound p/q of each facet class (k, l), as (p, q), keyed by the
    span (lo, hi) = (n - l - k, n - l) of its chains, 0 <= lo < hi <= n."""
    spans = [(lo, hi) for lo in range(n) for hi in range(lo + 1, n + 1)]
    return {(lo, hi): facet_rhs(hi - lo, n - hi, n).as_integer_ratio() for lo, hi in spans}


def _back_substitute(
    perm: Sequence[int], spans: Sequence[tuple[int, int]], n: int,
    bounds: Mapping[tuple[int, int], Fraction] = {},
) -> ScaledPoint:
    """The point (X, d) of the bracketing (perm, spans), where the facets of
    perm's chains at the spans meet the ambient plane, as
    :func:`solve_exact` gives it, by one preorder pass over the prefix sums
    of the tree (the module docstring's first lemma).  Each span's bound is
    its own in ``bounds``, else its class's in :func:`_span_bounds`.  It
    reads no chain and checks nothing: ``spans`` must be one binary tree's,
    in preorder, as ``Bracketing.spans`` and ``brackets._decode`` give them.
    """
    table = _span_bounds(n)
    rows = [bounds[span].as_integer_ratio() if span in bounds else table[span] for span in spans]
    d = lcm(*[q for _, q in rows])
    prefix = [0, *[None] * n]  # d·P(0), ..., d·P(n); P(0) = 0
    for (lo, hi), (p, q) in zip(spans, rows):
        row = p * (d // q)  # d·(P(hi) - P(lo))
        if prefix[lo] is None:  # a right child: its parent fixed P(hi)
            prefix[lo] = prefix[hi] - row
        else:  # the root or a left child: P(lo) is fixed
            prefix[hi] = prefix[lo] + row
    # d·Y_0, ..., d·Y_(n+1), with Y_0 = 3^(n+1) and Y_(n+1) = 0
    suffix = [3 ** (n + 1) * d, *map(sub, prefix[1:], prefix), 0]
    scaled = [0] * (n + 1)
    for label, y, after in zip(perm, suffix, suffix[1:]):
        scaled[label] = y - after
    g = gcd(d, *scaled)
    return tuple(x // g for x in scaled), d // g


def _class_scan(
    point: ScaledPoint, perm: tuple[int, ...], tree: Tree, n: int
) -> frozenset[int] | None:
    """The ranks of the tight canonical facets at X/d, by one comparison per
    span in perm's chamber (the module docstring's second lemma): the tree's
    spans meet or clear their bounds and every other span clears its own.
    None, for the facet scan to decide, when X/d lies outside the chamber,
    some span falls below its bound, or a span off the tree meets it."""
    scaled, d = point
    xs = [scaled[label] for label in reversed(perm)]  # increasing in the chamber
    if any(a >= b for a, b in zip(xs, xs[1:])):
        return None
    # perm's chain at (lo, hi) has k = hi - lo on xs[0..n-hi], then k-1, ..., 1
    # on xs[n-hi+1..n-lo-1]; over the prefix sums S_m = xs[0] + ... + xs[m-1]
    # that is S_(n-hi+1) + ... + S_(n-lo), so one more prefix sum gives it
    sums = list(accumulate(accumulate(xs), initial=0))
    tight = []
    for span, (p, q) in _span_bounds(n).items():
        lo, hi = span
        least, bound = q * (sums[n - lo] - sums[n - hi]), p * d
        if least < bound or least == bound and span not in tree:
            return None
        if least == bound:
            tight.append(tree[span])
    return frozenset(tight)


def _facet_scan(
    v: Key, point: ScaledPoint, ranks: Iterable[int], n: int, bounds: Mapping[int, Fraction]
) -> tuple[frozenset[int], bool]:
    """The tight facets among ``ranks`` at X/d and whether every one
    outside ``v`` is strict, by one comparison per facet: the
    :func:`facet_inequality` of each rank's chain, with its bound from
    ``bounds`` where that holds the rank."""
    # with x = X/d, a.x >= p/q compares exactly as q*(a.X) >= p*d, since d, q > 0
    scaled, d = point
    chains = _enumerate_chains(n)
    tight = []
    strict_ok = True
    for r in ranks:
        h = facet_inequality(chains[r], n)
        rhs = bounds.get(r, h.rhs)
        lhs, bound = rhs.denominator * sum(map(mul, h.coeffs, scaled)), rhs.numerator * d
        if lhs <= bound:
            if lhs == bound:
                tight.append(r)
            if r not in v:
                strict_ok = False
    return frozenset(tight), strict_ok


def vertex_coordinates(v: NestedSet, n: int) -> Point:
    """The unique point where the n facet hyperplanes of a maximal nested set
    meet the ambient plane."""
    v = frozenset(v)
    if len(v) != n:
        raise ValueError(f"expected a maximal nested set of cardinality {n}")
    if not is_nested(v, n):
        raise ValueError("the given chains are not nested")
    scaled, d = _solve_vertex([facet_inequality(c, n) for c in v], n)
    return tuple(Fraction(x, d) for x in scaled)


def vertex_point(v: Key, n: int) -> Point:
    """The point of the vertex with key ``v``, as :func:`enumerate_vertices`
    gives it, from its chains in the cached chain list, so n must be within
    the enumeration cap; ``v`` is checked as :func:`verify_vertex` checks
    it.  ``pa generate --vrep`` and ``pa export --off`` solve bracketings
    with :func:`_back_substitute`; :func:`vertex_coordinates`, chain sets."""
    check_cap(n)
    (scaled, d), _, _ = _solve_key(v, n)
    return tuple(Fraction(x, d) for x in scaled)


def _solve_key(
    v: Key, n: int, bounds: Mapping[int, Fraction] = {}
) -> tuple[ScaledPoint, tuple[int, ...], Tree]:
    """The point, the permutation and the tree of the vertex with key ``v``:
    its chains in ``enumerate_chains(n)``, decoded by
    ``brackets._decode``, then :func:`_back_substitute` with the bound of
    each rank in ``bounds`` on its span.  Raises ValueError, naming ``v``,
    unless it holds n ranks of one vertex's chains: the chains of one
    permutation at the spans of one binary tree over 0..n."""
    chains = _enumerate_chains(n)
    try:
        if len(v) != n or min(v) < 0 or max(v) >= len(chains):
            raise ValueError
        perm, placed = _decode([chains[r] for r in v], n)
    except ValueError:
        raise ValueError(f"{v!r} is not a vertex key at n = {n}: expected ranks in "
                         f"0..{len(chains) - 1} of one permutation's chains at one bracketing "
                         f"tree's spans") from None
    tree = {span: v[i] for span, i in placed.items()}
    overrides = {span: bounds[r] for span, r in tree.items() if r in bounds} if bounds else {}
    return _back_substitute(perm, tuple(tree), n, overrides), perm, tree


@dataclass(frozen=True)
class VertexReport:
    """Outcome of checking one vertex, solved as ``scaled`` = (X, d), against
    every facet; ``tight`` holds the ranks of the facets it meets."""

    scaled: ScaledPoint
    tight: frozenset[int]
    strict_ok: bool
    multiplicity_ok: bool


def verify_vertex(v: Key, n: int, bounds: Mapping[int, Fraction] | None = None) -> VertexReport:
    """Solve the vertex with key ``v`` (as :func:`enumerate_vertices` gives
    it) from its defining system, then report which facets it meets with
    equality and whether all remaining ones hold strictly.

    The system is solved by back-substitution over the vertex's bracketing
    tree from its own chains (the module docstring's first lemma).
    ``bounds`` maps ranks to new right-hand sides, such as the
    ``--perturb`` control's lowered one, which enter the same pass.

    On a correct realization, ``tight`` holds the ranks in ``v``, every
    other facet is strict, and the vertex lies on exactly n facet
    hyperplanes.

    With ``bounds`` None, n must be within the enumeration cap; a caller
    that passes a mapping, even an empty one, has checked its own cap.
    Raises ValueError, naming ``v``, unless it holds the ranks of one
    permutation's chains at the spans of one binary tree over 0..n, or
    when a key of ``bounds`` is no rank.

    The canonical bounds are checked in the chamber of the vertex's
    permutation (the module docstring's second lemma), one comparison per
    span, and the new bounds one by one; a point that the chamber check
    leaves undecided falls back to the brute-force scan of every facet.
    """
    if bounds is None:
        check_cap(n)
        bounds = {}
    count = len(_enumerate_chains(n))
    for r in bounds:
        if not 0 <= r < count:
            raise ValueError(f"a bound for rank {r}, outside 0..{count - 1} at n = {n}")
    point, perm, tree = _solve_key(v, n, bounds)
    tight, strict_ok = _class_scan(point, perm, tree, n), True
    if tight is None:
        tight, strict_ok = _facet_scan(v, point, range(count), n, bounds)
    elif bounds:  # no canonical bound is crossed: only the new ones are left
        own_tight, strict_ok = _facet_scan(v, point, bounds, n, bounds)
        tight = tight.difference(bounds) | own_tight
    return VertexReport(point, tight, strict_ok, len(tight) == n)


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
        if basis and len(vec) != len(basis[0][1]):
            raise ValueError("point dimension mismatch")
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


# ---------------------------------------------------------------------------
# the polytope graph and face counts

def polytope_graph(n: int, max_n: int | None = None):
    """The graph of the polytope, built from face combinatorics alone:
    vertices are maximal nested sets, edges join pairs sharing n-1 chains.
    Must coincide with the rewrite graph under the bracketing bijection."""
    vertices = all_bracketings(n, max_n=max_n)
    position = _position_index(vertices)
    chains = _enumerate_chains(n)
    roots = {r for r, c in enumerate(chains) if is_full_chain(c, n)}  # alpha edges hold one
    # each maximal nested set sits at its from_nested bracketing, so the check
    # still tests the bijection: were from_nested not injective, some index
    # would have no edges here, while the rewrite graph gives it n
    buckets: dict[Key, list[int]] = {}
    for v in enumerate_vertices(n, max_n=max_n):
        b = from_nested(map(chains.__getitem__, v))
        i = position[b.spans][b.perm]
        for edge_face in combinations(v, n - 1):
            buckets.setdefault(edge_face, []).append(i)
    edges = set()
    for edge_face, pair in buckets.items():
        if len(pair) != 2:
            raise RuntimeError(f"edge face shared by {len(pair)} vertices, expected 2")
        i, j = sorted(pair)
        kind = SIGMA if roots.isdisjoint(edge_face) else ALPHA
        edges.add((i, j, kind))
    return RewriteGraph(tuple(vertices), frozenset(edges))


def f_vector(n: int, max_n: int | None = None) -> tuple[int, ...]:
    """(f_0, ..., f_(n-1)): the number of faces in each proper dimension."""
    return tuple(len(faces(n, dim, max_n=max_n)) for dim in range(n))


# ---------------------------------------------------------------------------
# the full verification suite

_MAX_REPORTED_FAILURES = 20
_REPORT_KEYS = (
    "tight_sets_match", "strict_inequalities", "simple", "vertices_distinct",
    "facets_irredundant", "graphs_equal", "graph_connected", "graph_regular",
    "sigma_degree_ok", "euler_ok",
)


def realization_report(n: int, perturb: bool = False, max_n: int | None = None) -> dict:
    """Run every geometric and combinatorial check at size n and return a
    JSON-ready summary.

    Checks: each vertex solves to a point tight on exactly its own chains and
    strictly inside every other facet; all vertices are distinct; every facet
    carries enough affinely independent vertices to be facet-defining; the
    polytope graph equals the rewrite graph (connected, n-regular, one sigma
    edge per vertex); the face counts satisfy the Euler relation.

    The checks run in that order, and each phase frees its data before the
    next builds its own.  A failure records its report key, whose flag is
    then false, and its message: the first 20 messages are kept as they
    come, then one line says that more were suppressed.  ``ok`` is true
    when nothing failed.

    The default cap is ``CHECK_MAX_N`` (5), below the enumerations' own:
    ``max_n`` or ``PA_MAX_N`` raises it.

    ``perturb`` lowers one facet's right-hand side by 1 before checking, as a
    negative control: the report must then flag failures.  It needs n >= 2,
    since at n = 1 the lowered bound still cuts out a valid segment.

    The vertex check is ``verify_vertex``: one comparison per span in the
    vertex's chamber, then one per new bound.  It is handed the new bounds,
    none or the lowered one, so the cap is checked here alone.
    """
    check_cap(n, max_n, CHECK_MAX_N, CHECK_WHY)
    chains = _enumerate_chains(n)
    if perturb and n < 2:
        raise ValueError(f"perturb needs n >= 2, got {n}: a lowered bound still leaves a segment")
    bounds = {}
    if perturb:
        # relax the last canonical facet (a complete descending chain); the
        # vertices on it then cross their neighboring facets
        target = len(chains) - 1
        bounds[target] = facet_inequality(chains[target], n).rhs - 1

    failures: list[str] = []
    failed = set()

    def fail(key: str | None, message: str) -> None:
        failed.add(key)
        if len(failures) < _MAX_REPORTED_FAILURES:
            failures.append(message)
        elif len(failures) == _MAX_REPORTED_FAILURES:
            failures.append("... more failures suppressed")

    verts = enumerate_vertices(n, max_n=max_n)
    points: set[ScaledPoint] = set()
    tight_points: dict[int, list[ScaledPoint]] = {r: [] for r in range(len(chains))}
    for v in verts:
        report = verify_vertex(v, n, bounds)
        points.add(report.scaled)
        for r in report.tight:
            tight_points[r].append(report.scaled)
        problems = []
        if report.tight != frozenset(v):
            problems.append(("tight_sets_match", "tight facets differ from its own chains"))
        if not report.strict_ok:
            problems.append(("strict_inequalities", "some outside facet is not strict"))
        if not report.multiplicity_ok:
            problems.append(("simple", f"tight on {len(report.tight)} facets, expected {n}"))
        if problems:  # the label is printed only for a vertex that fails
            label = print_bracketing(from_nested(map(chains.__getitem__, v)))
            for key, problem in problems:
                fail(key, f"vertex {label}: {problem}")

    if len(points) != len(verts):
        fail("vertices_distinct", "vertex coordinates collide")
    del points
    for r, pts in tight_points.items():
        if affine_dimension(pts, stop_at=n - 1) < n - 1:
            fail("facets_irredundant",
                 f"facet {chains[r]!r} is not facet-defining (affine dimension < {n - 1})")
    del tight_points

    rewrite = build_graph(n, max_n=max_n)
    if rewrite != polytope_graph(n, max_n=max_n):
        fail("graphs_equal", "polytope graph differs from the rewrite graph")
    if not rewrite.is_connected():
        fail("graph_connected", "rewrite graph is not connected")
    ids = range(len(rewrite.vertices))
    if any(rewrite.degree(i) != n for i in ids):
        fail("graph_regular", "rewrite graph is not n-regular")
    if any(rewrite.kind_degree(i, SIGMA) != 1 for i in ids):
        fail("sigma_degree_ok", "some vertex does not have exactly one sigma edge")
    del rewrite

    fv = f_vector(n, max_n=max_n)
    if sum((-1) ** k * fv[k] for k in range(n)) != 1 - (-1) ** n:
        fail("euler_ok", f"Euler relation fails for f-vector {fv}")
    expected = prod(range(n + 1, 2 * n + 1))
    if len(verts) != expected or fv[0] != expected:
        fail(None, f"vertex count {len(verts)} differs from (2n)!/n! = {expected}")

    return {
        "n": n,
        "perturbed": perturb,
        "vertex_count": len(verts),
        "facet_count": len(chains),
        "f_vector": list(fv),
        **{key: key not in failed for key in _REPORT_KEYS},
        "failures": failures,
        "ok": not failed,
    }
