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
    and repeated or negative labels; ``mask`` is the top set as a bitmask.
    The hash is the dataclass one, ``hash((core, ext))``.
    """

    core: frozenset[int]
    ext: tuple[int, ...] = ()
    mask: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "mask", sum(1 << lab for lab in labels))

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


def comparable(a: Chain, b: Chain) -> bool:
    """Whether one chain's family of sets contains the other's."""
    fa, fb = a.family, b.family
    return fa <= fb or fb <= fa


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


def _compatible(a: Chain, b: Chain) -> bool:
    return comparable(a, b) or _union_admissible(a.family | b.family)


def is_nested(chains: Iterable[Chain], n: int) -> bool:
    """Pairwise nestedness test: every two incomparable chains must merge
    into a descending family with a step of size at least two."""
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
    return {
        (sum(1 << lab for lab in c.core), c.ext): i for i, c in enumerate(_enumerate_chains(n))
    }


def vertex_keys(
    bracketings: Iterable, n: int, max_n: int | None = None
) -> Iterator[tuple[int, ...]]:
    """The key of each bracketing's vertex over 0..n, in the order given.

    The node over positions lo..hi of bracketing (perm, spans) is the chain
    (perm[hi:], perm[lo+1:hi]); its rank is looked up by core bitmask and
    ext, so no :class:`Chain` is built.  The rank map holds every chain of
    n (118,974 at n = 7), so n above the cap is refused as the call is made.
    """
    check_cap(n, max_n)
    return _vertex_keys(bracketings, n)


def _vertex_keys(bracketings: Iterable, n: int) -> Iterator[tuple[int, ...]]:
    rank = _rank_by_mask(n)
    suffix = [0] * (n + 2)
    for b in bracketings:
        perm = b.perm
        for j in range(n, -1, -1):
            suffix[j] = suffix[j + 1] | 1 << perm[j]
        yield tuple(sorted(rank[suffix[hi], perm[lo + 1:hi]] for lo, hi in b.spans))


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
