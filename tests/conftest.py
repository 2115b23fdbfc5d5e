"""Shared fixtures: small hand-checked combinatorial data used across tests."""

from hypothesis import strategies as st

from simplepa import Bracketing, Chain


def chain_of(*sets) -> Chain:
    """Build a chain from explicit set literals."""
    return Chain.from_sets(sets)


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
def bracketings(draw, max_n: int = 7) -> Bracketing:
    """A random bracketing over 0..n, 1 <= n <= max_n: a random permutation
    and a random full binary tree, split by split."""
    n = draw(st.integers(1, max_n))

    def tree(lo, hi):
        if lo == hi:
            return lo
        mid = draw(st.integers(lo, hi - 1))
        return (tree(lo, mid), tree(mid + 1, hi))

    return Bracketing(tuple(draw(st.permutations(range(n + 1)))), tree(0, n))
