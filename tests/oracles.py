"""Independent routes that the tests compare the package against.

None of these is reached by a ``pa`` subcommand; each one recomputes, by a
different method, something the package computes on its production route:

* ``is_nested_oracle`` checks every antichain, where ``is_nested`` checks pairs;
  it merges their families and walks the merged family, sorted by size, in
  ``_union_admissible``, where ``is_nested`` decides a pair by mask tests
  and one comparison of ext segments (the ``nestedsets`` docstring lemma);
* ``faces_via_cliques`` grows cliques of compatible chains, where ``faces``
  takes subsets of the vertices;
* ``chain_incident`` reads facet incidence off a bracketing's spans, where
  ``to_nested`` builds the chains;
* ``value`` and ``tight`` evaluate a facet in ``Fraction`` arithmetic, where
  ``verify_vertex`` compares integers, and ``verify_chains`` checks a
  vertex given by its chains against a table keyed by chain, solved by
  ``gauss_jordan``, where ``verify_vertex`` takes a chain-rank key, solves
  it fraction-free and finds the tight facets span by span in the
  chamber of the vertex's permutation;
* ``normalized_functional`` and ``top_simplex_points`` work in the paper's
  normalisation chart, which ``normalization_map`` builds, and
  ``suffix_interval`` checks a chain's sets against the suffixes of a
  permutation, where ``Chain.span`` reads the chain's bracket off its
  sizes alone;
* ``nested_key`` orders faces by their chains' ``Chain.sort_key`` tuples,
  where the package orders them by key, their chains' ranks in
  ``enumerate_chains``; ``face_of`` turns such a rank key, which is how
  ``faces`` hands a face out, back into its nested set of chains, and
  ``key_of`` turns a set of chains into its key by their positions in the
  chain list, where the package ranks a bracketing's chains by bitmask;
* ``classify_1_face`` reads an edge's kind off its chains, where
  ``RewriteGraph`` labels an edge by the move that makes it, and
  ``span_class`` gives a face's span class from its chains, where
  ``diagram_census`` sums a per-rank table of the same bits;
* ``faces_payload`` and ``vrep_payload`` build the ``pa faces`` and ``pa
  generate --vrep`` documents as dicts for ``json`` to encode, in the
  order of ``Chain.sort_key`` and ``nested_key``, where the command joins
  its text around chain records encoded once each, in chain-rank order;
  ``bracketing_payload`` builds the ``pa bracketing`` record as a dict,
  where the command lays out its text by hand.

* ``build_graph_by_moves`` takes both moves at every bracketing and finds
  each neighbour by hashing it, where ``build_graph`` takes the rotations
  once per tree shape and finds the neighbours by permutation;
  ``vertex_keys_by_bracketing`` ranks each node of each bracketing, where
  ``vertex_keys`` ranks the chains of a permutation once for all its
  shapes; ``back_substitute_by_chains`` takes each chain's bound from its
  own halfspace and the permutation from the root chain alone, where
  ``verify_vertex`` reads each bound off a per-span table and checks every
  chain against the permutation; ``facet_table`` keys the halfspaces of
  ``h_representation`` by chain rank, where the package's scans build
  each rank's halfspace as they compare it.

``chain_top`` and ``chain_sets`` read a chain's top set and its sets,
which the package reads only as bitmasks (``Chain.mask``, ``Chain.family``).

pytest does not collect this module (its name does not start with ``test_``);
the tests import it as they import ``conftest``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul, sub

from simplepa import (
    ALPHA,
    SIGMA,
    Bracketing,
    Chain,
    DiagramType,
    Hyperplane,
    NestedSet,
    RewriteGraph,
    all_bracketings,
    alpha_neighbors,
    ambient_plane,
    classify_2_face,
    faces,
    fractional_offset,
    h_representation,
    is_full_chain,
    is_nested,
    normalization_map,
    parse_bracketing,
    print_bracketing,
    sigma_neighbor,
    to_nested,
    vertex_coordinates,
)
from simplepa.classify import _span_bit
from simplepa.limits import check_cap, check_n
from simplepa.nestedsets import _compatible, _enumerate_chains, _rank_by_mask

Point = tuple[Fraction, ...]

# The length of each diagram type's boundary cycle: its polygon's corners.
CYCLE_LENGTHS = {
    DiagramType.PENTAGON: 5,
    DiagramType.QUAD_FUNCTORIAL: 4,
    DiagramType.QUAD_NATURAL: 4,
    DiagramType.QUAD_SIGMA: 4,
    DiagramType.OCTAGON: 8,
    DiagramType.DODECAGON: 12,
}


def chain_top(chain: Chain) -> frozenset[int]:
    """The largest set of the chain."""
    return chain.core | frozenset(chain.ext)


def chain_sets(chain: Chain) -> tuple[frozenset[int], ...]:
    """The sets of the chain, largest first."""
    return tuple(chain.core | frozenset(chain.ext[j:]) for j in range(len(chain.ext) + 1))


def suffix_interval(chain: Chain, perm: Sequence[int]) -> tuple[int, int] | None:
    """The 1-based interval (a, b) with the chain's sets, largest first,
    equal to the suffixes perm[a:], ..., perm[b:]; None when they are not.
    Over 0..n it is (lo + 1, hi) for the chain's ``span(n)`` (lo, hi) when
    the chain sits in some bracketing of ``perm``."""
    a = len(perm) - len(chain_top(chain))
    b = a + len(chain.ext)
    if a < 1 or chain.ext != tuple(perm[a:b]) or chain.core != frozenset(perm[b:]):
        return None
    return a, b


def chain_from_sets(sets: Iterable[Iterable[int]]) -> Chain:
    """Build a chain from its family of sets (any order)."""
    family = sorted({frozenset(s) for s in sets}, key=len, reverse=True)
    ext = []
    for big, small in zip(family, family[1:]):
        step = big - small
        if not small < big or len(step) != 1:
            raise ValueError(f"sets {set(big)} and {set(small)} do not differ by one label")
        ext.extend(step)
    return Chain(family[-1] if family else frozenset(), tuple(ext))


# ---------------------------------------------------------------------------
# nested sets and faces

def _union_admissible(masks: Iterable[int]) -> bool:
    """Whether a family of set-masks is a descending chain of sets with some
    step dropping at least two labels (so it is not itself a facet chain)."""
    seq = sorted(masks, key=int.bit_count, reverse=True)
    gapped = False
    for big, small in zip(seq, seq[1:]):
        if small | big != big:
            return False
        if big.bit_count() - small.bit_count() >= 2:
            gapped = True
    return gapped


def is_nested_oracle(chains: Iterable[Chain], n: int) -> bool:
    """Brute-force nestedness test straight from the definition: the union of
    every antichain (of any size, not just pairs) must be a descending family
    with a gap.  Agrees with ``is_nested`` on all inputs."""
    members = list(dict.fromkeys(chains))
    for c in members:
        c.check(n)
    fams = [c.family for c in members]
    for size in range(2, len(members) + 1):
        for combo in itertools.combinations(range(len(members)), size):
            if any(
                fams[i] <= fams[j] or fams[j] <= fams[i]
                for i, j in itertools.combinations(combo, 2)
            ):
                continue
            merged = frozenset().union(*(fams[i] for i in combo))
            if not _union_admissible(merged):
                return False
    return True


def faces_via_cliques(n: int, dim: int, max_n: int | None = None) -> frozenset[NestedSet]:
    """Independent route to ``faces``: nested sets are exactly the cliques
    of the pairwise-compatibility graph on chains (the complex is flag), so
    faces of dimension d are the cliques of size n - d."""
    check_n(n)
    if not 0 <= dim <= n:
        raise ValueError(f"dim must lie in 0..{n}, got {dim}")
    if dim == n:
        return frozenset([frozenset()])
    check_cap(n, max_n)
    chains = _enumerate_chains(n)
    size = n - dim
    out: set[NestedSet] = set()
    members: list[Chain] = []

    def extend(start: int) -> None:
        if len(members) == size:
            out.add(frozenset(members))
            return
        for i in range(start, len(chains)):
            c = chains[i]
            if all(_compatible(c, m) for m in members):
                members.append(c)
                extend(i + 1)
                members.pop()

    extend(0)
    return frozenset(out)


# ---------------------------------------------------------------------------
# edge kinds and span classes from the chains

def classify_1_face(e: Iterable[Chain], n: int) -> str:
    """Edge kind of a 1-face (a nested set of cardinality n-1): ``ALPHA`` or
    ``SIGMA``, the labels that :class:`RewriteGraph` edges carry."""
    e = frozenset(e)
    if len(e) != n - 1:
        raise ValueError(f"a 1-face must have {n - 1} chains, got {len(e)}")
    if not is_nested(e, n):
        raise ValueError("the given chains are not nested")
    return ALPHA if any(is_full_chain(c, n) for c in e) else SIGMA


def span_class(f: Iterable[Chain]) -> int:
    """The (len(core), len(ext)) of each chain of ``f`` as a bitmask: the
    bracketing spans its chains come from, with the labels forgotten (see
    :func:`diagram_census`).  The chains of a face come from distinct spans
    of one bracketing, so their bits are distinct and add up to the set."""
    return sum(map(_span_bit, f))


# ---------------------------------------------------------------------------
# facet incidence without going through nested sets

def ordered_partition(chain: Chain, n: int) -> tuple[frozenset[int], tuple[int, ...], frozenset[int]]:
    """The chain as an ordered partition of 0..n: the complement of its top
    set, then its ext labels as singleton blocks, then its core."""
    chain.check(n)
    first = frozenset(range(n + 1)) - chain_top(chain)
    return (first, chain.ext, chain.core)


def chain_incident(b: Bracketing, chain: Chain) -> bool:
    """Whether the chain's facet touches the bracketing's vertex, decided
    purely from the bracket pairs: some pair must span exactly the middle
    singleton blocks of the chain's ordered partition, with the blocks on
    either side matching.  Equivalent to ``chain in to_nested(b)``."""
    n = b.n
    first, middle, last = ordered_partition(chain, n)
    perm = b.perm
    for lo, hi in b.spans:
        if (
            tuple(perm[lo + 1:hi]) == middle
            and frozenset(perm[hi:]) == last
            and frozenset(perm[:lo + 1]) == first
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# facets in Fraction arithmetic

def value(h: Hyperplane, point: Sequence[Fraction]) -> Fraction:
    """The linear form of ``h`` at the point, exactly."""
    if len(point) != len(h.coeffs):
        raise ValueError("point dimension mismatch")
    return sum((c * x for c, x in zip(h.coeffs, point)), Fraction(0))


def tight(h: Hyperplane, point: Sequence[Fraction]) -> bool:
    """Whether the point lies on the hyperplane of ``h``."""
    return value(h, point) == h.rhs


@lru_cache(maxsize=None)
def facet_table(n: int, max_n: int | None = None) -> dict[int, Hyperplane]:
    """Each chain's facet halfspace, keyed by the chain's rank in
    ``enumerate_chains(n)``; the caller copies it before changing a row."""
    return dict(enumerate(h_representation(n, max_n)[1]))


def gauss_jordan(matrix: Sequence[Sequence], rhs: Sequence) -> Point | None:
    """Fraction Gauss-Jordan elimination, where ``solve_exact`` eliminates
    fraction-free; None for a singular system."""
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


def verify_chains(
    v: NestedSet, n: int, table: Mapping[Chain, Hyperplane]
) -> tuple[Point, frozenset[Chain], bool]:
    """A vertex's point, its tight facets and whether every facet outside it
    is strict, in ``Fraction`` arithmetic: the rows of ``v``'s chains in
    ``table`` meet the ambient plane at the point, and every row of the
    table is evaluated there."""
    ambient = ambient_plane(n)
    rows = [table[c] for c in v] + [ambient]
    point = gauss_jordan([h.coeffs for h in rows], [h.rhs for h in rows])
    tight_set = frozenset(c for c, h in table.items() if tight(h, point))
    strict_ok = all(value(h, point) > h.rhs for c, h in table.items() if c not in v)
    return point, tight_set, strict_ok


# ---------------------------------------------------------------------------
# the normalisation chart

def normalized_functional(h: Hyperplane, n: int) -> tuple[tuple[Fraction, ...], Fraction]:
    """Pull the hyperplane's functional back through the inverse of the
    normalization chart, restricted to the ambient plane.

    Returns (coeffs, constant) with the image of ``h`` intersected with the
    ambient plane equal to {x' : coeffs . x' + constant = 0}.
    """
    if len(h.coeffs) != n + 1:
        raise ValueError("hyperplane dimension mismatch")
    chart = normalization_map(n)
    s = chart.matrix[0][0]
    # with y_i = x'_i - offset_i = s*(x_i + ... + x_n), s*x_i = y_i - y_(i+1)
    # (y_(n+1) = 0) and, on the ambient plane, x_0 = 3^(n+1) - y_1/s; so a.x
    # gives y_i the weight (a_i - a_(i-1))/s
    a = h.coeffs
    coeffs = tuple((a[i] - a[i - 1]) / s for i in range(1, n + 1))
    const = a[0] * ambient_plane(n).rhs - h.rhs - sum(map(mul, coeffs, chart.offset))
    return coeffs, const


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
# the JSON documents as payloads

def face_of(key: Iterable[int], n: int) -> NestedSet:
    """The nested set a face key of ``faces(n, dim)`` names: the chains at
    those ranks of ``enumerate_chains(n)``."""
    chains = _enumerate_chains(n)
    return frozenset(chains[r] for r in key)


@lru_cache(maxsize=None)
def _positions(n: int) -> dict[Chain, int]:
    return {c: i for i, c in enumerate(_enumerate_chains(n))}


def key_of(chains: Iterable[Chain], n: int) -> tuple[int, ...]:
    """The key of a set of chains over 0..n, as ``faces`` hands a face out:
    the sorted positions of its chains in ``_enumerate_chains(n)``.  The
    inverse of ``face_of``."""
    return tuple(sorted(map(_positions(n).__getitem__, chains)))


def nested_key(chains: Iterable[Chain]) -> tuple:
    """Canonical sort key for a set of chains: their sort keys, sorted."""
    return tuple(sorted(c.sort_key() for c in chains))


def chain_record(chain: Chain) -> dict:
    """A chain as the JSON documents record it: core, ext and every set."""
    return {
        "core": sorted(chain.core),
        "ext": list(chain.ext),
        "sets": [sorted(s) for s in chain_sets(chain)],
    }


def faces_payload(n: int, dim: int, classify: bool) -> dict:
    """``pa faces --n N --dim D [--classify]``: ``json.dumps(payload,
    indent=2, sort_keys=True)`` and a newline is its output."""
    entries = []
    for f in sorted((face_of(key, n) for key in faces(n, dim)), key=nested_key):
        entry: dict = {"chains": [chain_record(c) for c in sorted(f, key=Chain.sort_key)]}
        if classify and f:
            entry["type"] = classify_2_face(f, n).value
        entries.append(entry)
    payload = {"n": n, "dim": dim, "count": len(entries), "faces": entries}
    if classify:
        payload["census"] = dict(Counter(entry["type"] for entry in entries if "type" in entry))
        payload["body_faces"] = sum(1 for entry in entries if not entry["chains"])
    return payload


def vrep_payload(n: int) -> dict:
    """``pa generate --n N --vrep``: ``json.dumps(payload, indent=2,
    sort_keys=True)`` and a newline is the file."""
    records = []
    for b in all_bracketings(n):
        v = to_nested(b)
        records.append({
            "bracketing": print_bracketing(b),
            "permutation": list(b.perm),
            "coordinates": [str(x) for x in vertex_coordinates(v, n)],
            "chains": [chain_record(c) for c in sorted(v, key=Chain.sort_key)],
        })
    return {"n": n, "count": len(records), "vertices": records}


def bracketing_payload(text: str, n: int) -> dict:
    """``pa bracketing --n N --parse TEXT``: ``json.dumps(payload,
    indent=2, sort_keys=True)`` and a newline is its output."""
    b = parse_bracketing(text, n)
    v = to_nested(b)
    return {
        "n": n,
        "bracketing": print_bracketing(b),
        "permutation": list(b.perm),
        "coordinates": [str(x) for x in vertex_coordinates(v, n)],
        "tight": [chain_record(c) for c in sorted(v, key=Chain.sort_key)],
    }


# ---------------------------------------------------------------------------
# the production routes taken move by move, node by node, chain by chain

def build_graph_by_moves(n: int) -> RewriteGraph:
    """The rewrite graph by both moves at every bracketing, each neighbour
    found by its hash in a map from bracketings to ids."""
    vertices = all_bracketings(n)
    index = {b: i for i, b in enumerate(vertices)}
    edges = set()
    for i, b in enumerate(vertices):
        for neighbor in alpha_neighbors(b):
            j = index[neighbor]
            edges.add((min(i, j), max(i, j), ALPHA))
        j = index[sigma_neighbor(b)]
        edges.add((min(i, j), max(i, j), SIGMA))
    return RewriteGraph(tuple(vertices), frozenset(edges))


def vertex_keys_by_bracketing(
    bracketings: Iterable[Bracketing], n: int
) -> list[tuple[int, ...]]:
    """The key of each bracketing's vertex, in the order given, by one rank
    lookup per node of each bracketing."""
    rank = _rank_by_mask(n)
    keys = []
    for b in bracketings:
        perm = b.perm
        suffix = [0] * (n + 2)
        for j in range(n, -1, -1):
            suffix[j] = suffix[j + 1] | 1 << perm[j]
        keys.append(tuple(sorted(rank[suffix[hi], perm[lo + 1:hi]] for lo, hi in b.spans)))
    return keys


def back_substitute_by_chains(
    facets: Iterable[tuple[Chain, Hyperplane]], n: int
) -> tuple[tuple[int, ...], int]:
    """The lowest-terms (X, d) of a vertex given as its n chains, each
    paired with a halfspace of the chain's own coefficients, by one
    preorder pass over the prefix sums of its bracketing tree: each
    chain's span, bound and, for the root, labels are read as it goes."""
    nodes = []
    for c, h in facets:
        lo, hi = c.span(n)
        nodes.append((lo, hi, h.rhs))
        if hi - lo == n:
            root = c
    nodes.sort(key=lambda node: (node[0], -node[1]))
    d = lcm(*[rhs.denominator for _, _, rhs in nodes])
    prefix = [0, *[None] * n]
    for lo, hi, rhs in nodes:
        row = rhs.numerator * (d // rhs.denominator)
        if prefix[lo] is None:
            prefix[lo] = prefix[hi] - row
        else:
            prefix[hi] = prefix[lo] + row
    suffix = [3 ** (n + 1) * d, *map(sub, prefix[1:], prefix), 0]
    (last,) = root.core
    perm = ((((1 << (n + 1)) - 1) ^ root.mask).bit_length() - 1, *root.ext, last)
    scaled = [0] * (n + 1)
    for label, y, after in zip(perm, suffix, suffix[1:]):
        scaled[label] = y - after
    g = gcd(d, *scaled)
    return tuple(x // g for x in scaled), d // g
