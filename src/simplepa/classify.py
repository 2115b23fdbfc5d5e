"""Coherence-diagram types of the polytope's low-dimensional faces.

Edges come in two kinds: a 1-face containing a complete descending chain is
a reassociation (``alpha``), any other is a transposition (``sigma``).  The
2-faces fall into six classes, recognized purely combinatorially:

* with a complete chain present, the superficiality profile of the members
  decides between the pentagon (one chain has three uncovered sets) and the
  two quadrilaterals (two chains with two uncovered sets each, incomparable
  or comparable);
* without one, the number of distinct sets covered by the face decides
  between the remaining quadrilateral (n-1 sets) and, at n-2 sets, the
  octagon or the dodecagon according to whether the two missing links of the
  ambient complete chain are separated or adjacent.

Boundary walks recover each face's polygon; a pentagon is bounded by five
alpha edges, the dodecagon alternates alpha and sigma all the way round.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum

from .nestedsets import (
    Chain,
    NestedSet,
    comparable,
    enumerate_vertices,
    faces,
    is_full_chain,
    is_nested,
    nested_key,
    superficial_count,
)


class EdgeKind(str, Enum):
    ALPHA = "alpha"
    SIGMA = "sigma"


class DiagramType(str, Enum):
    PENTAGON = "pentagon"
    QUAD_FUNCTORIAL = "quad1"
    QUAD_NATURAL = "quad4"
    QUAD_SIGMA = "quad8"
    OCTAGON = "octagon"
    DODECAGON = "dodecagon"

    @property
    def cycle_length(self) -> int:
        return _CYCLE_LENGTHS[self]


_CYCLE_LENGTHS = {
    DiagramType.PENTAGON: 5,
    DiagramType.QUAD_FUNCTORIAL: 4,
    DiagramType.QUAD_NATURAL: 4,
    DiagramType.QUAD_SIGMA: 4,
    DiagramType.OCTAGON: 8,
    DiagramType.DODECAGON: 12,
}


def classify_1_face(e: Iterable[Chain], n: int) -> EdgeKind:
    """Edge kind of a 1-face (a nested set of cardinality n-1)."""
    e = frozenset(e)
    if len(e) != n - 1:
        raise ValueError(f"a 1-face must have {n - 1} chains, got {len(e)}")
    if not is_nested(e, n):
        raise ValueError("the given chains are not nested")
    return EdgeKind.ALPHA if any(is_full_chain(c, n) for c in e) else EdgeKind.SIGMA


def classify_2_face(f: Iterable[Chain], n: int) -> DiagramType:
    """Diagram type of a 2-face (a nested set of cardinality n-2, n >= 2)."""
    f = frozenset(f)
    if n < 2:
        raise ValueError("2-faces only exist for n >= 2")
    if len(f) != n - 2:
        raise ValueError(f"a 2-face must have {n - 2} chains, got {len(f)}")
    if not f:
        raise ValueError("the empty set is the polytope body, not a proper 2-face")
    if not is_nested(f, n):
        raise ValueError("the given chains are not nested")

    if any(is_full_chain(c, n) for c in f):
        counts = {c: superficial_count(f, c) for c in f}
        if any(v == 3 for v in counts.values()):
            return DiagramType.PENTAGON
        doubles = [c for c, v in counts.items() if v == 2]
        if len(doubles) == 2:
            a, b = doubles
            return DiagramType.QUAD_NATURAL if comparable(a, b) else DiagramType.QUAD_FUNCTORIAL
        raise ValueError(f"unexpected superficiality profile {sorted(counts.values())}")

    covered = frozenset().union(*(c.family for c in f))  # the sets, as bitmasks
    if len(covered) == n - 1:
        return DiagramType.QUAD_SIGMA
    if len(covered) == n - 2:
        # positions of the two absent sets in the ambient complete chain,
        # recovered from the missing set sizes (position = n + 1 - size)
        missing = sorted(set(range(1, n + 1)) - {s.bit_count() for s in covered})
        j, k = n + 1 - missing[1], n + 1 - missing[0]
        return DiagramType.OCTAGON if k - j > 1 else DiagramType.DODECAGON
    raise ValueError("not a two-dimensional face")


def boundary_cycle(f: Iterable[Chain], n: int, max_n: int | None = None) -> list[NestedSet]:
    """The vertices around a 2-face, walked in cycle order.

    Starts at the canonically least vertex and walks towards its canonically
    lesser neighbor; consecutive entries share n-1 chains.
    """
    f = frozenset(f)
    classify_2_face(f, n)  # validates that f really is a proper 2-face
    verts = [v for v in enumerate_vertices(n, max_n=max_n) if f <= v]
    adjacency: dict[int, list[int]] = {i: [] for i in range(len(verts))}
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if len(verts[i] & verts[j]) == n - 1:
                adjacency[i].append(j)
                adjacency[j].append(i)
    if any(len(nbrs) != 2 for nbrs in adjacency.values()):
        raise RuntimeError("boundary of the face is not a disjoint union of cycles")

    start = min(range(len(verts)), key=lambda i: nested_key(verts[i]))
    cycle = [start]
    previous, current = None, start
    while True:
        candidates = [j for j in adjacency[current] if j != previous]
        if previous is None:
            candidates.sort(key=lambda i: nested_key(verts[i]))
        nxt = candidates[0]
        if nxt == start:
            break
        cycle.append(nxt)
        previous, current = current, nxt
    if len(cycle) != len(verts):
        raise RuntimeError("boundary walk did not visit every incident vertex")
    return [verts[i] for i in cycle]


@dataclass(frozen=True)
class DiagramCensus:
    """Counts of 2-face diagram types; the polytope body (only a 2-face when
    n = 2) is tallied separately rather than classified.  ``faces`` pairs each
    2-face, in canonical order, with the type it was counted under (or None)."""

    counts: Mapping[DiagramType, int]
    body_faces: int
    faces: tuple[tuple[NestedSet, DiagramType | None], ...] = field(default=(), repr=False)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def diagram_census(n: int, max_n: int | None = None) -> DiagramCensus:
    """Classify every 2-face once and tally the counts per diagram type
    (n >= 2: PA_1 has no 2-faces, and ``faces`` rejects dim 2 there)."""
    labelled = tuple((f, classify_2_face(f, n) if f else None) for f in faces(n, 2, max_n=max_n))
    counts = Counter(kind for _, kind in labelled)
    body = counts.pop(None, 0)
    return DiagramCensus(dict(counts), body, labelled)
