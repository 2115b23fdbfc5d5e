"""Bracketed permuted products: the vertex language of the polytope.

A vertex is a completely bracketed product of the labels 0..n in some order,
e.g. ``((2*3)*(0*1))`` for n = 3.  Concrete syntax::

    expr := INT | '(' expr ('*' | '·') expr ')'

with whitespace ignored, outermost parentheses optional on input and always
emitted on output.  The leaves must be exactly the integers 0..n, each once.

Internally a bracketing is a permutation plus the bracket pairs of a full
binary tree over the leaf positions 0..n, stored as the ``(lo, hi)`` span of
each of its n internal nodes, in preorder.  A node spanning positions lo..hi
corresponds to the chain whose sets are the label suffixes
{perm[j:], j = lo+1..hi}; this is a bijection between bracketings and
maximal nested sets.  Two local moves generate the rewrite graph: a
rotation at any internal edge of the tree (``alpha``) and the swap of the
two leaves adjacent to the root split (``sigma``).  The graph is n-regular
with exactly one sigma edge per vertex.  Parsing, printing and both moves
are loops over the spans, so no nesting depth is too deep for them.
"""

from __future__ import annotations

import bisect
import itertools
import re
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import or_

from .limits import check_cap, check_n
from .nestedsets import Chain, NestedSet

ALPHA = "alpha"
SIGMA = "sigma"


class BracketSyntaxError(ValueError):
    """Parse failure, carrying the offending position in the input string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class Bracketing:
    """A permutation of 0..n plus the bracket pairs of a full binary tree
    over the positions 0..n; position j carries the label ``perm[j]``.

    ``spans`` holds the tree's n internal nodes as ``(lo, hi)`` pairs, the
    first and last position under the node, in preorder: sorted by
    :func:`_preorder`, ``(lo, -hi)``, so the root ``(0, n)`` comes first.
    """

    perm: tuple[int, ...]
    spans: tuple[tuple[int, int], ...]

    def __post_init__(self):  # lists are converted; tuples, the common case, are kept
        if type(self.perm) is not tuple:
            object.__setattr__(self, "perm", tuple(self.perm))
        if type(self.spans) is not tuple:
            object.__setattr__(self, "spans", tuple(self.spans))

    @property
    def n(self) -> int:
        return len(self.perm) - 1

    def check(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError("a bracketing needs at least two labels")
        if sorted(self.perm) != list(range(n + 1)):
            raise ValueError(f"perm {self.perm} is not a permutation of 0..{n}")
        if _tree_spans(self.spans, n) != self.spans:
            raise ValueError("spans are not in preorder")

    def __repr__(self):
        return f"Bracketing({print_bracketing(self)!r})"


@dataclass(frozen=True)
class RewriteGraph:
    """Undirected graph on bracketings with alpha/sigma edge labels.

    Vertex ids are indices into ``vertices``, which is sorted by the
    canonical printed string; edges are (i, j, kind) with i < j.  The
    degrees and the connectivity test read one neighbour table, built on
    first use and memoized in the instance ``__dict__``, which the
    dataclass ``==`` and ``hash`` ignore.
    """

    vertices: tuple[Bracketing, ...]
    edges: frozenset[tuple[int, int, str]]

    @cached_property
    def _neighbors(self) -> dict[str, list[list[int]]]:
        """``_neighbors[kind][i]``: the neighbours of vertex i across edges
        of that kind, in one pass over ``edges``."""
        table = {kind: [[] for _ in self.vertices] for kind in (ALPHA, SIGMA)}
        for a, b, kind in self.edges:
            table[kind][a].append(b)
            table[kind][b].append(a)
        return table

    def degree(self, i: int) -> int:
        return len(self._neighbors[ALPHA][i]) + len(self._neighbors[SIGMA][i])

    def kind_degree(self, i: int, kind: str) -> int:
        return len(self._neighbors[kind][i])

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen, queue = {0}, [0]
        while queue:
            cur = queue.pop()
            for lists in self._neighbors.values():
                for nxt in lists[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
        return len(seen) == len(self.vertices)


# ---------------------------------------------------------------------------
# concrete syntax

# ASCII digits only: \d and str.isdigit also admit "²" and "٢"; \s is str.isspace
_TOKEN = re.compile(r"[0-9]+|\S")


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        token, at = match.group(), match.start()
        if token in "()":
            tokens.append((token, None, at))
        elif token in "*·":
            tokens.append(("op", None, at))
        elif "0" <= token[0] <= "9":
            tokens.append(("int", int(token), at))
        else:
            raise BracketSyntaxError(f"unexpected character {token!r}", at)
    tokens.append(("end", None, len(text)))
    return tokens


def parse_bracketing(text: str, n: int) -> Bracketing:
    """Parse a bracketed product over the labels 0..n.

    Raises :class:`BracketSyntaxError` with the offending position for any
    syntax error, non-binary product, or leaf multiset that is not exactly
    a permutation of 0..n.  One pass over the tokens keeps the open
    parentheses on a stack and fills in each one's span at its ``)``.
    """
    check_n(n)
    tokens = iter(_tokenize(text))
    leaves: list[tuple[int, int]] = []  # (label, source position)
    spans: list[list[int]] = []  # [lo, hi] per '(' in source order, which is preorder
    opened: list[list[int]] = []  # the spans of the unclosed '(', innermost last
    starred = [False]  # per level, the whole input first: is its '*' read?
    while True:
        kind, value, at = next(tokens)
        if kind == "(":
            if len(opened) == n:  # no valid tree over 0..n nests deeper
                raise BracketSyntaxError(f"parentheses nest deeper than {n}", at)
            opened.append([len(leaves), -1])
            spans.append(opened[-1])
            starred.append(False)
            continue
        if kind != "int":
            raise BracketSyntaxError("expected '(' or a label", at)
        leaves.append((value, at))
        kind, _, at = next(tokens)
        while opened and starred[-1]:  # a right operand ends: close its '('
            if kind != ")":
                raise BracketSyntaxError("expected ')'", at)
            opened.pop()[1] = len(leaves) - 1
            starred.pop()
            kind, _, at = next(tokens)
        if kind == "op" and not starred[-1]:
            starred[-1] = True
        elif opened:
            raise BracketSyntaxError("expected '*'", at)
        elif kind != "end":
            raise BracketSyntaxError("unexpected trailing input", at)
        else:
            break

    seen: set[int] = set()
    for value, at in leaves:
        if not 0 <= value <= n:
            raise BracketSyntaxError(f"label {value} outside 0..{n}", at)
        if value in seen:
            raise BracketSyntaxError(f"repeated label {value}", at)
        seen.add(value)
    if len(leaves) != n + 1:
        raise BracketSyntaxError(f"product has {len(leaves)} labels, expected {n + 1}", len(text))
    if starred[0]:  # outermost parentheses were omitted
        spans.insert(0, [0, n])
    return Bracketing(tuple(value for value, _ in leaves), tuple(map(tuple, spans)))


def print_bracketing(b: Bracketing) -> str:
    """Canonical fully parenthesized string; inverse of :func:`parse_bracketing`.
    The labels fill in the template of the bracketing's tree shape."""
    return _shape_template(b.spans, b.n).format(*b.perm)


# ---------------------------------------------------------------------------
# the bijection with maximal nested sets

def to_nested(b: Bracketing) -> NestedSet:
    """The maximal nested set of the bracketing: one chain per internal node."""
    perm = b.perm
    return frozenset(Chain(frozenset(perm[hi:]), perm[lo + 1:hi]) for lo, hi in b.spans)


def from_nested(v: NestedSet) -> Bracketing:
    """Inverse of :func:`to_nested`; rejects sets that are not maximal
    nested, as :func:`_decode` tests them."""
    chains = list(v)
    perm, placed = _decode(chains, len(chains))
    return Bracketing(perm, tuple(placed))


def _decode(chains: Sequence[Chain], n: int) -> tuple[tuple[int, ...], dict[tuple[int, int], int]]:
    """The bracketing of the vertex whose chains are ``chains``: its
    permutation, and each of its spans, in preorder, to the index of its
    chain in ``chains``.

    Lemma (the vertex test).  n chains are one vertex exactly when one of
    them is complete, its n labels and the one it leaves out read as a
    permutation perm of 0..n, the chain at each
    :meth:`~simplepa.nestedsets.Chain.span` (lo, hi) has top perm[lo+1:]
    and ext perm[lo+1:hi], and the n spans pass :func:`_tree_spans`, the
    tree test.  Then each chain is perm's at its span, as :func:`to_nested`
    builds it.  Raises ValueError at the first test that fails, naming the
    first chain in input order that fails its own."""
    if n < 1:
        raise ValueError("an empty set has no bracketing")
    full = [c for c in chains if len(c.ext) == n - 1]  # is_full_chain, with no call per chain
    if len(full) != 1:
        raise ValueError("not a maximal nested set: expected exactly one complete chain")
    anchor, labels = full[0], (1 << (n + 1)) - 1
    if anchor.mask | labels != labels or anchor.mask.bit_count() != n:
        raise ValueError(f"labels of {anchor} do not cover 0..{n} minus one")
    perm = ((labels ^ anchor.mask).bit_length() - 1, *anchor.ext, anchor.core_mask.bit_length() - 1)
    heads = list(itertools.accumulate((1 << label for label in perm), or_))  # heads[j]: perm[:j+1]
    nodes = []
    for i, c in enumerate(chains):
        lo, hi = c.span(n)
        if lo < 0 or c.mask != labels ^ heads[lo] or c.ext != perm[lo + 1:hi]:
            raise ValueError(f"{c} is not derived from the complete chain of the set")
        nodes.append((lo, -hi, i))  # these tuples sort by _preorder, with no call per span
    placed = {(lo, -neg_hi): i for lo, neg_hi, i in sorted(nodes)}  # a repeated span is kept once
    _check_tree(placed, n)
    return perm, placed


def _preorder(span: tuple[int, int]) -> tuple[int, int]:
    """The preorder key of a span (lo, hi): by lo, the widest first."""
    return span[0], -span[1]


def _tree_spans(spans, n: int) -> tuple[tuple[int, int], ...]:
    """``spans`` in preorder, if they are the bracket pairs of a full binary
    tree over positions 0..n: n distinct spans with lo < hi inside 0..n, no
    two crossing.  Such a family is one tree whose every node splits in two:
    a node with one part would equal that part, and a forest over n + 1
    leaves whose nodes have two or more parts has at most n nodes, with n
    only for a single binary tree.  The package's one tree test, called by
    :meth:`Bracketing.check` and, on spans it sorts itself, :func:`_decode`;
    :func:`_rotations` sorts its shapes by the same key, :func:`_preorder`."""
    ordered = tuple(sorted(spans, key=_preorder))
    _check_tree(ordered, n)
    return ordered


def _check_tree(ordered: Collection[tuple[int, int]], n: int) -> None:
    """The test of :func:`_tree_spans` on spans already in preorder."""
    if len(ordered) != n or len(set(ordered)) != n:
        raise ValueError(f"expected {n} distinct bracket pairs")
    ends: list[int] = []  # the hi of each span enclosing the current one
    for lo, hi in ordered:
        if not 0 <= lo < hi <= n:
            raise ValueError(f"bracket over positions {lo}..{hi} is not inside 0..{n}")
        while ends and ends[-1] < lo:
            ends.pop()
        if ends and ends[-1] < hi:
            raise ValueError(f"bracket over positions {lo}..{hi} crosses another")
        ends.append(hi)


# ---------------------------------------------------------------------------
# moves and the rewrite graph

def _split(spans: tuple[tuple[int, int], ...], i: int) -> int:
    """The last position under the left child of node i, which follows node i
    in preorder when it is a node rather than a leaf."""
    lo = spans[i][0]
    if i + 1 < len(spans) and spans[i + 1][0] == lo:
        return spans[i + 1][1]
    return lo


def alpha_neighbors(b: Bracketing) -> list[Bracketing]:
    """The n-1 bracketings reachable by one rotation (same permutation)."""
    return [Bracketing(b.perm, spans) for spans in _rotations(b.spans)]


def _rotations(spans: tuple[tuple[int, int], ...]) -> list[tuple[tuple[int, int], ...]]:
    """The spans of the n-1 tree shapes one rotation away, in preorder.

    Each non-root node drops its bracket pair and closes the resulting triple
    the other way, and the new pair takes its place in preorder: under a
    parent (plo, phi), a left child splitting at mid becomes (mid+1, phi),
    ((A*B)*C) to (A*(B*C)), and a right child becomes (plo, mid)."""
    out = []
    ancestors = [spans[0]]
    for i in range(1, len(spans)):
        lo, hi = spans[i]
        while ancestors[-1][1] < lo:
            ancestors.pop()
        plo, phi = ancestors[-1]
        mid = _split(spans, i)
        rest = [*spans[:i], *spans[i + 1:]]
        bisect.insort(rest, (mid + 1, phi) if lo == plo else (plo, mid), key=_preorder)
        out.append(tuple(rest))
        ancestors.append((lo, hi))
    return out


def sigma_neighbor(b: Bracketing) -> Bracketing:
    """Swap the two labels adjacent to the root split (an involution)."""
    j = _split(b.spans, 0)
    perm = list(b.perm)
    perm[j], perm[j + 1] = perm[j + 1], perm[j]
    return Bracketing(tuple(perm), b.spans)


def _tree_shapes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """The spans of every full binary tree over positions 0..n, built up by
    size: the tree over 0..k splitting at mid is the root (0, k), a tree over
    0..mid, then a tree over 0..k-mid-1 moved right by mid+1."""
    shapes: list[list[tuple]] = [[()]]
    for k in range(1, n + 1):
        shapes.append([
            ((0, k), *left, *((lo + mid + 1, hi + mid + 1) for lo, hi in right))
            for mid in range(k)
            for left in shapes[mid]
            for right in shapes[k - mid - 1]
        ])
    return shapes[n]


def _shape_template(spans: tuple[tuple[int, int], ...], n: int) -> str:
    """The printed form of every bracketing of one tree shape over 0..n, as
    a ``str.format`` template with one ``{}`` per position: each position
    writes one ``(`` per span starting there, its label, then one ``)`` per
    span ending there.  The labels fill it in to give
    :func:`print_bracketing`."""
    pieces = ["{}"] * (n + 1)
    for lo, hi in spans:
        pieces[lo] = "(" + pieces[lo]
        pieces[hi] += ")"
    return "*".join(pieces)


def _shape_formats(n: int) -> dict[tuple[tuple[int, int], ...], Callable[..., str]]:
    """The ``str.format`` of each tree shape's template over 0..n, keyed by
    its spans: ``_shape_formats(n)[b.spans](*b.perm)`` is
    ``print_bracketing(b)``.  A caller keeps it only for its own call, since
    the shapes grow without bound in n."""
    return {spans: _shape_template(spans, n).format for spans in _tree_shapes(n)}


@lru_cache(maxsize=None)
def _all_bracketings(n: int) -> tuple[Bracketing, ...]:
    formats = _shape_formats(n)  # one spans tuple per shape, shared by every permutation
    perms = itertools.permutations(range(n + 1))
    out = [Bracketing(perm, spans) for perm in perms for spans in formats]
    out.sort(key=lambda b: formats[b.spans](*b.perm))  # by printed string
    return tuple(out)


def all_bracketings(n: int, max_n: int | None = None) -> list[Bracketing]:
    """Every bracketing of every permutation of 0..n, sorted by printed string."""
    check_n(n)
    check_cap(n, max_n)
    return list(_all_bracketings(n))


def _position_index(vertices: Sequence[Bracketing]) -> dict[tuple, dict[tuple[int, ...], int]]:
    """``index[spans][perm]``: the position in ``vertices`` of the
    bracketing (perm, spans), found by two tuple lookups with no
    :class:`Bracketing` built or hashed."""
    index: dict[tuple, dict[tuple[int, ...], int]] = {}
    for i, b in enumerate(vertices):
        index.setdefault(b.spans, {})[b.perm] = i
    return index


def build_graph(n: int, max_n: int | None = None) -> RewriteGraph:
    """The rewrite graph on all bracketings: n-regular, connected, with
    exactly one sigma edge at every vertex.

    Lemma (moves per shape).  A rotation reads and changes only the spans,
    so the alpha neighbours of (perm, spans) are (perm, s) for the n-1
    rotated shapes s of spans, the same for every perm.  The sigma swap
    changes only the perm, at the positions j = ``_split(spans, 0)`` and
    j + 1, which the spans alone fix.  So the moves are taken once per tree
    shape (14 at n = 4, 42 at n = 5), and each neighbour is found by its
    permutation in the index ``spans -> perm -> vertex id``: no
    :class:`Bracketing` is built or hashed per edge.  Both moves undo
    themselves (``test_rotations_undo_themselves_and_reach_every_shape``),
    so each edge is met from both ends and is kept from its lower id.  The
    route reads no nested set or chain rank, so it stays independent of
    :func:`~simplepa.geometry.polytope_graph`.
    """
    vertices = all_bracketings(n, max_n=max_n)
    index = _position_index(vertices)
    edges = set()
    for spans, ids in index.items():
        rotated = [index[moved] for moved in _rotations(spans)]
        j = _split(spans, 0)
        for perm, i in ids.items():
            for other in rotated:
                k = other[perm]
                if i < k:
                    edges.add((i, k, ALPHA))
            k = ids[(*perm[:j], perm[j + 1], perm[j], *perm[j + 2:])]
            if i < k:
                edges.add((i, k, SIGMA))
    return RewriteGraph(tuple(vertices), frozenset(edges))
