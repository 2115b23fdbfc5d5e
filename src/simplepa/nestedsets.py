"""Chains of label sets and the nested-set complex of the simple permutoassociahedron.

Everything is built over the label set X = {0, ..., n}.  A *chain* is a
strictly descending sequence of non-empty proper subsets of X in which every
step removes exactly one label; chains index the facets of the n-dimensional
polytope.  A family of chains is *nested* when every two incomparable members
merge into a single descending family of sets that is not itself a chain in
the above sense, i.e. some step of the merged family drops two or more labels
at once.  Nested families form a flag simplicial complex; its members of
cardinality n - d are the d-dimensional faces of the polytope, and the
maximal ones (cardinality n) are the vertices.

Lemma (nestedness by masks).  Two chains a and b, neither of whose families
contains the other's, are compatible exactly when core(a) holds top(b) and
has at least |top(b)| + 2 labels, or the same with a and b swapped.  Each
family is a chain of sets with singleton steps, whose sizes run without a
gap from |core| to |top|.  When the two size ranges overlap or touch, the
merged sizes run without a gap too, so a merged chain would step by single
labels.  When they are apart, say every set of a is at least two labels
larger than every set of b, the merged family is a chain exactly when
each set of b lies in each set of a, that is when top(b) lies in core(a),
and then its step from core(a) to top(b) drops two labels or more.

Containment needs no family either.  The family of a lies in that of b
exactly when top(a) lies in top(b), a's ext is b's ext from position j =
|top(b)| - |top(a)| on, and core(a) misses b's first j ext labels: then
top(a) is top(b) less those j labels, b's j-th set, and a's later sets
are b's next ones.  So :func:`is_nested` decides a pair by mask tests and
one comparison of ext segments, and builds no family.

The enumerations hand a face or a vertex out as its key: the increasing
tuple of its chains' ranks in :func:`enumerate_chains`.  The keys sort in
canonical order, and no set of chains is built for them.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .limits import check_cap, check_n


@dataclass(frozen=True)
class Chain:
    """A descending chain of label sets with singleton steps.

    Encoded as the smallest set (``core``) together with the labels that the
    larger sets add, listed outermost first (``ext``).  The j-th set of the
    chain, counted from the largest, is ``core | set(ext[j:])``; the chain
    has ``len(ext) + 1`` sets in total.  Construction rejects an empty core
    and repeated or negative labels; ``mask`` is the top set as a bitmask
    and ``core_mask`` the core.  The hash is the dataclass one, ``hash((core,
    ext))``.
    """

    core: frozenset[int]
    ext: tuple[int, ...] = ()
    mask: int = field(init=False, repr=False, compare=False)
    core_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        core, ext = frozenset(self.core), tuple(self.ext)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "ext", ext)
        if not core:
            raise ValueError("chain core must be non-empty")
        labels = core.union(ext)
        if len(labels) != len(core) + len(ext):
            raise ValueError(f"labels of {self} are not distinct")
        if min(labels) < 0:
            raise ValueError(f"labels of {self} must be non-negative")
        mask = 0
        for lab in core:
            mask |= 1 << lab
        object.__setattr__(self, "core_mask", mask)
        for lab in ext:
            mask |= 1 << lab
        object.__setattr__(self, "mask", mask)

    @cached_property
    def family(self) -> frozenset[int]:
        """The chain's sets as label bitmasks; ``==`` and ``hash`` ignore it."""
        cur = self.mask
        masks = [cur]
        for lab in self.ext:
            cur ^= 1 << lab
            masks.append(cur)
        return frozenset(masks)

    @property
    def num_sets(self) -> int:
        return len(self.ext) + 1

    def span(self, n: int) -> tuple[int, int]:
        """The bracket (lo, hi) over positions 0..n that holds the chain in
        every bracketing (perm, spans) whose vertex has it: its sets are the
        suffixes perm[lo+1:], ..., perm[hi:], so lo = n - |top| and hi = lo
        + 1 + |ext|.  The one place the package reads a chain's position."""
        lo = n - self.mask.bit_count()
        return lo, lo + 1 + len(self.ext)

    def sort_key(self):
        """Canonical total order: by size of the top set, then core, then ext."""
        return (len(self.core) + len(self.ext), tuple(sorted(self.core)), self.ext)

    def check(self, n: int) -> None:
        """Validate the chain over labels 0..n; raises ValueError if invalid."""
        check_n(n)
        if self.mask >> (n + 1):
            raise ValueError(f"labels of {self} fall outside 0..{n}")
        if self.mask.bit_count() > n:
            raise ValueError(f"top set of {self} must be a proper subset of 0..{n}")

    def __repr__(self):
        core = "{" + ",".join(map(str, sorted(self.core))) + "}"
        return f"Chain({core}, {list(self.ext)})"


# A nested set is just a frozenset of pairwise compatible chains.
NestedSet = frozenset[Chain]


def _within(a: Chain, b: Chain) -> bool:
    """Whether b's family of sets holds a's, by the module docstring's
    lemma: a's ext is b's from position j = |top(b)| - |top(a)| on, and
    top(a) is top(b) less b's first j ext labels."""
    j = b.mask.bit_count() - a.mask.bit_count()
    end = j + len(a.ext)
    return (
        a.mask | b.mask == b.mask
        and end <= len(b.ext)
        and a.ext == b.ext[j:end]
        and a.core.isdisjoint(b.ext[:j])
    )


def comparable(a: Chain, b: Chain) -> bool:
    """Whether one chain's family of sets contains the other's, decided as
    the module docstring's lemma does, with no family built."""
    return _within(a, b) or _within(b, a)


def _compatible(a: Chain, b: Chain) -> bool:
    """Whether the two chains may sit in one nested set: one family holds
    the other, or the merged family is a chain with a step of two labels or
    more.  By the module docstring's lemma the second case is core(a)
    holding top(b) and at least |top(b)| + 2 labels, or the same with a and
    b swapped: two mask tests, with no merged family sorted."""
    return (
        a.core_mask | b.mask == a.core_mask and len(a.core) >= b.mask.bit_count() + 2
        or b.core_mask | a.mask == b.core_mask and len(b.core) >= a.mask.bit_count() + 2
        or comparable(a, b)
    )


def is_nested(chains: Iterable[Chain], n: int) -> bool:
    """Pairwise nestedness test: every two incomparable chains must merge
    into a descending family with a step of size at least two, which
    :func:`_compatible` decides by masks, building no family."""
    members = list(chains)
    for c in members:
        c.check(n)
    return all(_compatible(a, b) for a, b in itertools.combinations(members, 2))


@lru_cache(maxsize=None)
def _enumerate_chains(n: int) -> tuple[Chain, ...]:
    chains = []
    for size in range(1, n + 1):
        for top in itertools.combinations(range(n + 1), size):
            for depth in range(size):
                for ext in itertools.permutations(top, depth):
                    chains.append(Chain(frozenset(top) - set(ext), ext))
    chains.sort(key=Chain.sort_key)
    return tuple(chains)


def enumerate_chains(n: int, max_n: int | None = None) -> list[Chain]:
    """All chains over 0..n in canonical order (one per facet of the polytope).

    n above the cap is refused before any chain is listed: there are
    1,071,276 at n = 8, which take 14 s and 629 MB.  Callers in the package
    that have checked their own cap read the cached ``_enumerate_chains``.
    """
    check_n(n)
    check_cap(n, max_n)
    return list(_enumerate_chains(n))


def is_full_chain(chain: Chain, n: int) -> bool:
    """Whether the chain runs through all of n sets (a complete descending
    chain, i.e. the combinatorial shadow of a permutation of 0..n)."""
    return chain.num_sets == n


@lru_cache(maxsize=None)
def _rank_by_mask(n: int) -> dict[tuple[int, tuple[int, ...]], int]:
    """Each chain's rank in :func:`enumerate_chains`, keyed by its core as a
    label bitmask and its ext, so a chain named by its labels is ranked
    without building a :class:`Chain`."""
    return {(c.core_mask, c.ext): i for i, c in enumerate(_enumerate_chains(n))}


def vertex_keys(
    bracketings: Iterable, n: int, max_n: int | None = None
) -> Iterator[tuple[int, ...]]:
    """The key of each bracketing's vertex over 0..n, in the order given.

    The node over positions lo..hi of bracketing (perm, spans) is the chain
    (perm[hi:], perm[lo+1:hi]); its rank is looked up by core bitmask and
    ext, so no :class:`Chain` is built.  The n(n+1)/2 chains of a
    permutation, one per pair lo < hi, are ranked the first time it
    appears and kept in one flat list for its other tree shapes.  The rank
    map holds every chain of n (118,974 at n = 7), so n above the cap is
    refused as the call is made.
    """
    check_cap(n, max_n)
    return _vertex_keys(bracketings, n)


def _vertex_keys(bracketings: Iterable, n: int) -> Iterator[tuple[int, ...]]:
    rank = _rank_by_mask(n)
    width = n + 1
    by_perm: dict[tuple[int, ...], list[int]] = {}
    suffix = [0] * (n + 2)
    for b in bracketings:
        perm = b.perm
        ranks = by_perm.get(perm)
        if ranks is None:  # every chain of perm, flat by lo·(n+1) + hi
            for j in range(n, -1, -1):
                suffix[j] = suffix[j + 1] | 1 << perm[j]
            ranks = by_perm[perm] = [0] * (width * width)
            for lo in range(n):
                for hi in range(lo + 1, width):
                    ranks[lo * width + hi] = rank[suffix[hi], perm[lo + 1:hi]]
        yield tuple(sorted(ranks[lo * width + hi] for lo, hi in b.spans))


@lru_cache(maxsize=None)
def _vertices(n: int) -> tuple[tuple[int, ...], ...]:
    from .brackets import all_bracketings

    return tuple(sorted(vertex_keys(all_bracketings(n, max_n=n), n, max_n=n)))


def enumerate_vertices(n: int, max_n: int | None = None) -> list[tuple[int, ...]]:
    """All maximal nested sets (the polytope's vertices), canonical order.

    There are (2n)!/n! of them: one per pair of a permutation of 0..n and a
    complete binary bracketing shape.  A vertex is its key, as a face is in
    :func:`faces`: the strictly increasing tuple of the ranks of its n
    chains in :func:`enumerate_chains`, so ``[enumerate_chains(n)[r] for r
    in key]`` are its chains, and the keys sort in canonical order.
    """
    check_n(n)
    check_cap(n, max_n)
    return list(_vertices(n))


def faces(n: int, dim: int, max_n: int | None = None) -> list[tuple[int, ...]]:
    """All faces of the given dimension, each once, in canonical order.

    A face is its key: the strictly increasing tuple of the ranks of its
    n - dim chains in :func:`enumerate_chains`, so ``[enumerate_chains(n)[r]
    for r in key]`` are its chains, and the keys sort in canonical order.
    Computed by taking subsets of the maximal nested sets' keys, so each
    face is deduplicated and ordered as a tuple of ints and no set of
    chains is built; ``dim == n`` gives ``()``, the empty nested set, the
    polytope body.
    """
    check_n(n)
    if not 0 <= dim <= n:
        raise ValueError(f"dim must lie in 0..{n}, got {dim}")
    if dim == n:
        return [()]
    keys: set[tuple[int, ...]] = set()
    for v in enumerate_vertices(n, max_n=max_n):
        keys.update(itertools.combinations(v, n - dim))
    return sorted(keys)


def superficial_count(face: Iterable[Chain], chain: Chain) -> int:
    """The number of sets of ``chain`` contained in no proper sub-chain of it
    inside ``face``.  Every chain of a vertex scores exactly 1."""
    members = frozenset(face)
    if chain not in members:
        raise ValueError(f"{chain} is not a member of the face")
    fam = chain.family
    covered = set().union(*(other.family for other in members if other.family < fam))
    return len(fam - covered)
