"""Shared fixtures: small hand-checked combinatorial data used across tests."""

import random

from hypothesis import strategies as st

from oracles import chain_from_sets
from simplepa import Bracketing, Chain


def chain_of(*sets) -> Chain:
    """Build a chain from explicit set literals."""
    return chain_from_sets(sets)


# The twelve maximal nested sets over {0, 1, 2}, written out set by set.
VERTICES_N2 = [
    frozenset([chain_of({1, 2}, {2}), chain_of({1, 2})]),
    frozenset([chain_of({1, 2}, {2}), chain_of({2})]),
    frozenset([chain_of({0, 2}, {2}), chain_of({2})]),
    frozenset([chain_of({0, 2}, {2}), chain_of({0, 2})]),
    frozenset([chain_of({0, 2}, {0}), chain_of({0, 2})]),
    frozenset([chain_of({0, 2}, {0}), chain_of({0})]),
    frozenset([chain_of({0, 1}, {0}), chain_of({0})]),
    frozenset([chain_of({0, 1}, {0}), chain_of({0, 1})]),
    frozenset([chain_of({0, 1}, {1}), chain_of({0, 1})]),
    frozenset([chain_of({0, 1}, {1}), chain_of({1})]),
    frozenset([chain_of({1, 2}, {1}), chain_of({1})]),
    frozenset([chain_of({1, 2}, {1}), chain_of({1, 2})]),
]

# The twelve chains over {0, 1, 2}: six single sets, six two-set chains.
CHAINS_N2 = [
    chain_of({0}),
    chain_of({1}),
    chain_of({2}),
    chain_of({0, 1}),
    chain_of({0, 2}),
    chain_of({1, 2}),
    chain_of({0, 1}, {0}),
    chain_of({0, 2}, {0}),
    chain_of({0, 1}, {1}),
    chain_of({1, 2}, {1}),
    chain_of({0, 2}, {2}),
    chain_of({1, 2}, {2}),
]


@st.composite
def bracketings(draw, max_n: int = 7, min_n: int = 1) -> Bracketing:
    """A random bracketing over 0..n, min_n <= n <= max_n: a random
    permutation and a random full binary tree, split by split in preorder."""
    n = draw(st.integers(min_n, max_n))
    perm = tuple(draw(st.permutations(range(n + 1))))
    spans = []

    def split(lo, hi):
        if lo < hi:
            spans.append((lo, hi))
            mid = draw(st.integers(lo, hi - 1))
            split(lo, mid)
            split(mid + 1, hi)

    split(0, n)
    return Bracketing(perm, tuple(spans))


def random_bracketing(rng: random.Random, n: int) -> Bracketing:
    """A seeded bracketing over 0..n: a uniform permutation on a random
    split tree, its spans in preorder."""
    perm = tuple(rng.sample(range(n + 1), n + 1))
    spans = []

    def split(lo, hi):
        if lo < hi:
            spans.append((lo, hi))
            mid = rng.randrange(lo, hi)
            split(lo, mid)
            split(mid + 1, hi)

    split(0, n)
    return Bracketing(perm, tuple(spans))
