"""Coherence-diagram types of the polytope's low-dimensional faces.

Edges come in two kinds, the labels that rewrite-graph edges carry: a 1-face
containing a complete descending chain is a reassociation (``alpha``), any
other is a transposition (``sigma``).  The 2-faces fall into six classes,
recognized purely combinatorially:

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

The type of a 2-face depends only on its span class: the bracketing spans
its chains come from, read off as (len(core), len(ext)) per chain.  Faces of
one class are relabellings of each other, and the classification reads
nothing that relabelling changes, so the census classifies one face per
class: 6, 30 and 140 at n = 3, 4 and 5 (see :func:`diagram_census`).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum

from .nestedsets import (
    Chain,
    comparable,
    enumerate_chains,
    enumerate_vertices,
    faces,
    is_full_chain,
    is_nested,
    superficial_count,
)


class DiagramType(str, Enum):
    PENTAGON = "pentagon"
    QUAD_FUNCTORIAL = "quad1"
    QUAD_NATURAL = "quad4"
    QUAD_SIGMA = "quad8"
    OCTAGON = "octagon"
    DODECAGON = "dodecagon"


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


def boundary_cycle(key: Sequence[int], n: int, max_n: int | None = None) -> list[tuple[int, ...]]:
    """The vertices around a 2-face, walked in cycle order.  The face is
    given as its key, the strictly increasing tuple of its chains' ranks
    in :func:`enumerate_chains` that :func:`faces` hands out, and each
    vertex comes back as the key that :func:`enumerate_vertices` gives it.

    Starts at the canonically least vertex and walks towards its canonically
    lesser neighbor; consecutive entries share n-1 chains.  The vertices keep
    the canonical order of :func:`enumerate_vertices`, so the walk sorts none.
    """
    chains = enumerate_chains(n, max_n)  # refuses n above the cap before listing
    key = tuple(key)
    top = len(chains) - 1
    if not all(0 <= r <= top for r in key) or any(a >= b for a, b in zip(key, key[1:])):
        raise ValueError(f"face key {key} is not strictly increasing ranks in 0..{top}")
    classify_2_face(map(chains.__getitem__, key), n)  # validates a proper 2-face
    own = frozenset(key)
    verts = [v for v in enumerate_vertices(n, max_n=max_n) if own.issubset(v)]
    cycle, previous = [verts[0]], None
    while True:
        here = frozenset(cycle[-1])
        nbrs = [w for w in verts if len(here.intersection(w)) == n - 1]
        if len(nbrs) != 2:
            raise RuntimeError("boundary of the face is not a disjoint union of cycles")
        nxt = nbrs[1] if nbrs[0] == previous else nbrs[0]
        if nxt == cycle[0]:
            break
        previous = cycle[-1]
        cycle.append(nxt)
    if len(cycle) != len(verts):
        raise RuntimeError("boundary walk did not visit every incident vertex")
    return cycle


def _span_bit(c: Chain) -> int:
    """One bit per (len(core), len(ext)): the triangular index of the pair
    (top size, len(ext)), with len(ext) below the top size.  The chains of
    a face come from distinct spans of one bracketing, so their bits are
    distinct, and their sum is the face's span class as a bitmask (see
    :func:`diagram_census`)."""
    top = len(c.core) + len(c.ext)
    return 1 << (top * (top - 1) // 2 + len(c.ext))


@dataclass(frozen=True)
class DiagramCensus:
    """Counts of 2-face diagram types; the polytope body (only a 2-face when
    n = 2) is tallied separately rather than classified.  ``faces`` pairs each
    2-face, as the chain-rank key that :func:`faces` returns, in canonical
    order, with the type it was counted under (None for the body, ``()``)."""

    counts: Mapping[DiagramType, int]
    body_faces: int
    faces: tuple[tuple[tuple[int, ...], DiagramType | None], ...] = field(default=(), repr=False)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def diagram_census(n: int, max_n: int | None = None) -> DiagramCensus:
    """Type every 2-face, in the canonical order that :func:`faces` returns,
    and tally the counts per diagram type (n >= 2: PA_1 has no 2-faces, and
    ``faces`` rejects dim 2 there).  Faces stay chain-rank keys throughout.

    :func:`classify_2_face` runs once per span class, not once per face, on
    the chains of the class's first face.  A face's class is the sum of a
    per-rank table of :func:`_span_bit` bits, so no chain set is built for
    the other faces.  A chain's (len(core), len(ext)) fixes its
    :meth:`~simplepa.nestedsets.Chain.span`, the bracket that holds it,
    with no label involved.  A 2-face is a subset of some vertex (perm,
    spans), hence the image, under the relabelling j -> perm[j], of the
    identity-permutation face on the same span set.  ``classify_2_face``
    reads only set sizes, containment and full-chain status, which
    relabelling keeps, so every face of one span class has the type of the
    class's first face.  There are 6, 30 and 140 classes at n = 3, 4 and 5,
    against 62, 2,020 and 64,680 faces.
    """
    keys = faces(n, 2, max_n=max_n)
    chains = enumerate_chains(n, max_n)
    bits = [_span_bit(c) for c in chains]
    types: dict[int, DiagramType] = {}
    labelled = []
    for key in keys:
        if not key:  # the polytope body
            labelled.append((key, None))
            continue
        cls = sum(map(bits.__getitem__, key))
        kind = types.get(cls)
        if kind is None:
            kind = types[cls] = classify_2_face(frozenset(map(chains.__getitem__, key)), n)
        labelled.append((key, kind))
    counts = Counter(kind for _, kind in labelled)
    body = counts.pop(None, 0)
    return DiagramCensus(dict(counts), body, tuple(labelled))
