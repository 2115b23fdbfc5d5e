"""Bracketed permuted products: the vertex language of the polytope.

A vertex is a completely bracketed product of the labels 0..n in some order,
e.g. ``((2*3)*(0*1))`` for n = 3.  Concrete syntax::

    expr := INT | '(' expr ('*' | '·') expr ')'

with whitespace ignored, outermost parentheses optional on input and always
emitted on output.  The leaves must be exactly the integers 0..n, each once.

Internally a bracketing is a permutation plus a full binary tree over the
leaf positions 0..n.  Each internal node spanning positions p..q corresponds
to the chain whose sets are the label suffixes {perm[j:], j = p+1..q}; this
is a bijection between bracketings and maximal nested sets.  Two local moves
generate the rewrite graph: a rotation at any internal edge of the tree
(``alpha``) and the swap of the two leaves adjacent to the root split
(``sigma``).  The graph is n-regular with exactly one sigma edge per vertex.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .limits import check_cap, check_n
from .nestedsets import Chain, NestedSet, is_full_chain, suffix_interval

ALPHA = "alpha"
SIGMA = "sigma"


class BracketSyntaxError(ValueError):
    """Parse failure, carrying the offending position in the input string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class Bracketing:
    """A permutation of 0..n plus a full binary tree over positions 0..n.

    ``tree`` is a nested pair structure whose leaves are the positions
    (ints); position j carries the label ``perm[j]``.
    """

    perm: tuple[int, ...]
    tree: "int | tuple"

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))

    @property
    def n(self) -> int:
        return len(self.perm) - 1

    def check(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError("a bracketing needs at least two labels")
        if sorted(self.perm) != list(range(n + 1)):
            raise ValueError(f"perm {self.perm} is not a permutation of 0..{n}")
        if _tree_leaves(self.tree) != list(range(n + 1)):  # so the root spans 0..n
            raise ValueError("tree is not a full binary tree over positions 0..n")

    def __repr__(self):
        return f"Bracketing({print_bracketing(self)!r})"


@dataclass(frozen=True)
class RewriteGraph:
    """Undirected graph on bracketings with alpha/sigma edge labels.

    Vertex ids are indices into ``vertices``, which is sorted by the
    canonical printed string; edges are (i, j, kind) with i < j.
    """

    vertices: tuple[Bracketing, ...]
    edges: frozenset[tuple[int, int, str]]

    @cached_property
    def _degree_counts(self) -> tuple[Counter, Counter]:
        """Edges at each vertex and at each (vertex, kind), in one pass.

        Memoized in the instance ``__dict__``, which the dataclass ``==`` and
        ``hash`` ignore.
        """
        total: Counter = Counter()
        by_kind: Counter = Counter()
        for a, b, kind in self.edges:
            total[a] += 1
            total[b] += 1
            by_kind[a, kind] += 1
            by_kind[b, kind] += 1
        return total, by_kind

    def degree(self, i: int) -> int:
        return self._degree_counts[0][i]

    def kind_degree(self, i: int, kind: str) -> int:
        return self._degree_counts[1][i, kind]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.vertices]
        for a, b, _ in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj = self.adjacency()
        seen = {0}
        queue = [0]
        while queue:
            cur = queue.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return len(seen) == len(self.vertices)


def _tree_leaves(tree) -> list[int]:
    if isinstance(tree, int):
        return [tree]
    return _tree_leaves(tree[0]) + _tree_leaves(tree[1])


def _internal_spans(tree) -> list[tuple[int, int]]:
    """The (lo, hi) leaf positions under each internal node, in preorder; a
    node's span is read off its children's, so one walk finds them all."""
    if isinstance(tree, int):
        return []
    left, right = tree
    below_left, below_right = _internal_spans(left), _internal_spans(right)
    lo = below_left[0][0] if below_left else left
    hi = below_right[0][1] if below_right else right
    return [(lo, hi), *below_left, *below_right]


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
    a permutation of 0..n.
    """
    check_n(n)
    tokens = _tokenize(text)
    pos = 0
    leaves: list[tuple[int, int]] = []  # (label, source position)

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def expect(kind: str, what: str):
        tok = advance()
        if tok[0] != kind:
            raise BracketSyntaxError(f"expected {what}", tok[2])
        return tok

    def atom(depth: int):
        kind, value, at = peek()
        if kind == "int":
            advance()
            leaves.append((value, at))
            return len(leaves) - 1
        if kind == "(":
            # no valid tree over 0..n nests deeper; this also bounds the recursion
            if depth == n:
                raise BracketSyntaxError(f"parentheses nest deeper than {n}", at)
            advance()
            left = atom(depth + 1)
            expect("op", "'*'")
            right = atom(depth + 1)
            expect(")", "')'")
            return (left, right)
        raise BracketSyntaxError("expected '(' or a label", at)

    tree = atom(0)
    if peek()[0] == "op":  # outermost parentheses were omitted
        advance()
        tree = (tree, atom(0))
    kind, _, at = peek()
    if kind != "end":
        raise BracketSyntaxError("unexpected trailing input", at)

    seen: set[int] = set()
    for value, at in leaves:
        if not 0 <= value <= n:
            raise BracketSyntaxError(f"label {value} outside 0..{n}", at)
        if value in seen:
            raise BracketSyntaxError(f"repeated label {value}", at)
        seen.add(value)
    if len(leaves) != n + 1:
        raise BracketSyntaxError(
            f"product has {len(leaves)} labels, expected {n + 1}", len(text)
        )
    if isinstance(tree, int):  # single label, only possible when n == 0
        raise BracketSyntaxError("expected a product", len(text))
    return Bracketing(tuple(value for value, _ in leaves), tree)


def print_bracketing(b: Bracketing) -> str:
    """Canonical fully parenthesized string; inverse of :func:`parse_bracketing`."""

    def render(tree) -> str:
        if isinstance(tree, int):
            return str(b.perm[tree])
        return f"({render(tree[0])}*{render(tree[1])})"

    return render(b.tree)


# ---------------------------------------------------------------------------
# the bijection with maximal nested sets

def to_nested(b: Bracketing) -> NestedSet:
    """The maximal nested set of the bracketing: one chain per internal node."""
    perm = b.perm
    chains = []
    for lo, hi in _internal_spans(b.tree):
        chains.append(Chain(frozenset(perm[hi:]), tuple(perm[lo + 1:hi])))
    return frozenset(chains)


def from_nested(v: NestedSet) -> Bracketing:
    """Inverse of :func:`to_nested`; rejects sets that are not maximal nested."""
    chains = list(v)
    n = len(chains)
    if n < 1:
        raise ValueError("an empty set has no bracketing")
    full = [c for c in chains if is_full_chain(c, n)]
    if len(full) != 1:
        raise ValueError("not a maximal nested set: expected exactly one complete chain")
    anchor = full[0]
    (last,) = anchor.core
    tail = (*anchor.ext, last)
    missing = set(range(n + 1)) - set(tail)
    if len(missing) != 1:
        raise ValueError(f"labels of {anchor} do not cover 0..{n} minus one")
    perm = (missing.pop(), *tail)

    spans = set()
    for c in chains:
        interval = suffix_interval(c, perm)
        if interval is None:
            raise ValueError(f"{c} is not derived from the complete chain of the set")
        lo, hi = interval
        spans.add((lo - 1, hi))
    if len(spans) != n:
        raise ValueError("chains do not give distinct bracket pairs")
    return Bracketing(perm, _tree_from_spans(spans, n))


def _tree_from_spans(spans: set[tuple[int, int]], n: int) -> "int | tuple":
    """The tree whose internal spans are exactly ``spans``.  A tree's spans
    sorted by (lo, -hi) are its preorder, and a node's left child is the next
    span when that one starts at the same lo."""
    preorder = sorted(spans, key=lambda span: (-span[0], span[1]))  # popped from the end

    def build(lo: int, hi: int):
        if lo == hi:
            return lo
        if (lo, hi) not in spans:
            raise ValueError(f"missing bracket over positions {lo}..{hi}")
        while preorder.pop() != (lo, hi):  # a skipped span is off the tree: one goes missing
            pass
        mid = preorder[-1][1] if preorder and preorder[-1][0] == lo else lo
        return (build(lo, mid), build(mid + 1, hi))

    return build(0, n)


# ---------------------------------------------------------------------------
# moves and the rewrite graph

def _rotations(tree):
    """All trees one rotation away, preserving the leaf order.

    Each internal non-root node contributes exactly one alternative: drop its
    bracket pair and close the resulting triple the other way.
    """
    if isinstance(tree, int):
        return
    left, right = tree
    if not isinstance(left, int):
        a, b = left
        yield (a, (b, right))
    if not isinstance(right, int):
        a, b = right
        yield ((left, a), b)
    for sub in _rotations(left):
        yield (sub, right)
    for sub in _rotations(right):
        yield (left, sub)


def alpha_neighbors(b: Bracketing) -> list[Bracketing]:
    """The n-1 bracketings reachable by one rotation (same permutation)."""
    return [Bracketing(b.perm, t) for t in _rotations(b.tree)]


def sigma_neighbor(b: Bracketing) -> Bracketing:
    """Swap the two labels adjacent to the root split (an involution)."""
    _, j = b.tree
    while not isinstance(j, int):  # the right subtree's leftmost position
        j = j[0]
    perm = list(b.perm)
    perm[j - 1], perm[j] = perm[j], perm[j - 1]
    return Bracketing(tuple(perm), b.tree)


@lru_cache(maxsize=None)
def _tree_shapes(lo: int, hi: int) -> tuple:
    if lo == hi:
        return (lo,)
    shapes = []
    for mid in range(lo, hi):
        for left in _tree_shapes(lo, mid):
            for right in _tree_shapes(mid + 1, hi):
                shapes.append((left, right))
    return tuple(shapes)


@lru_cache(maxsize=None)
def _all_bracketings(n: int) -> tuple[Bracketing, ...]:
    out = [
        Bracketing(perm, tree)
        for perm in itertools.permutations(range(n + 1))
        for tree in _tree_shapes(0, n)
    ]
    out.sort(key=print_bracketing)
    return tuple(out)


def all_bracketings(n: int, max_n: int | None = None) -> list[Bracketing]:
    """Every bracketing of every permutation of 0..n, sorted by printed string."""
    check_n(n)
    check_cap(n, max_n)
    return list(_all_bracketings(n))


def build_graph(n: int, max_n: int | None = None) -> RewriteGraph:
    """The rewrite graph on all bracketings: n-regular, connected, with
    exactly one sigma edge at every vertex."""
    vertices = all_bracketings(n, max_n=max_n)
    index = {b: i for i, b in enumerate(vertices)}
    edges = set()
    for i, b in enumerate(vertices):
        for neighbor in alpha_neighbors(b):
            j = index[neighbor]
            edges.add((min(i, j), max(i, j), ALPHA))
        j = index[sigma_neighbor(b)]
        edges.add((min(i, j), max(i, j), SIGMA))
    return RewriteGraph(tuple(vertices), frozenset(edges))


# ---------------------------------------------------------------------------
# facet incidence without going through nested sets

def ordered_partition(chain: Chain, n: int) -> tuple[frozenset[int], tuple[int, ...], frozenset[int]]:
    """The chain as an ordered partition of 0..n: the complement of its top
    set, then its ext labels as singleton blocks, then its core."""
    chain.check(n)
    first = frozenset(range(n + 1)) - chain.top
    return (first, chain.ext, chain.core)


def chain_incident(b: Bracketing, chain: Chain) -> bool:
    """Whether the chain's facet touches the bracketing's vertex, decided
    purely from the bracket pairs: some pair must span exactly the middle
    singleton blocks of the chain's ordered partition, with the blocks on
    either side matching.  Equivalent to ``chain in to_nested(b)``."""
    n = b.n
    first, middle, last = ordered_partition(chain, n)
    perm = b.perm
    for lo, hi in _internal_spans(b.tree):
        if (
            tuple(perm[lo + 1:hi]) == middle
            and frozenset(perm[hi:]) == last
            and frozenset(perm[:lo + 1]) == first
        ):
            return True
    return False
