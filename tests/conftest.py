"""Shared fixtures: the 7-edge toy graph, random bipartite generators and a
two-community synthetic dataset used by the slower end-to-end tests."""

import numpy as np
import pytest

from spectralcf.data import InteractionSet


def make_interactions(n_users, n_items, pairs):
    """Build an InteractionSet from explicit index pairs.

    Every user and item index must appear in at least one pair. External ids
    are u1..uN / i1..iM so index k maps to id k+1.
    """
    pairs = sorted(set(pairs))
    if {u for (u, _) in pairs} != set(range(n_users)):
        raise ValueError("every user index needs at least one interaction")
    if {i for (_, i) in pairs} != set(range(n_items)):
        raise ValueError("every item index needs at least one interaction")
    return InteractionSet.from_pairs(
        n_users,
        n_items,
        [u for (u, _) in pairs],
        [i for (_, i) in pairs],
        user_ids=[f"u{r + 1}" for r in range(n_users)],
        item_ids=[f"i{c + 1}" for c in range(n_items)],
    )


# The running example: three users, four items, seven interactions.
# u1-i1, u2-i1, u2-i2, u2-i4, u3-i1, u3-i3, u3-i4.
TOY_PAIRS = {(0, 0), (1, 0), (1, 1), (1, 3), (2, 0), (2, 2), (2, 3)}


@pytest.fixture
def toy_set():
    return make_interactions(3, 4, TOY_PAIRS)


def random_interactions(rng, max_users=8, max_items=10, density=0.3,
                        min_users=2, min_items=2):
    """Random bipartite interactions with no empty user or item."""
    n_u = int(rng.integers(min_users, max_users + 1))
    n_i = int(rng.integers(min_items, max_items + 1))
    mask = rng.random((n_u, n_i)) < density
    for r in range(n_u):
        if not mask[r].any():
            mask[r, rng.integers(n_i)] = True
    for c in range(n_i):
        if not mask[:, c].any():
            mask[rng.integers(n_u), c] = True
    pairs = {(r, c) for r in range(n_u) for c in range(n_i) if mask[r, c]}
    return make_interactions(n_u, n_i, pairs)


def two_community_dataset(seed, n_users=200, n_items=100, p_within=0.3, p_cross=0.02):
    """Implicit feedback with two user/item communities and weak cross talk.

    Users [0, n_users/2) favor items [0, n_items/2), the rest favor the other
    half. The occasional empty row or column is patched with one
    within-community interaction so the graph precondition holds.
    """
    rng = np.random.default_rng(seed)
    half_u, half_i = n_users // 2, n_items // 2
    pairs = set()
    for u in range(n_users):
        cu = u // half_u
        for i in range(n_items):
            ci = i // half_i
            if rng.random() < (p_within if cu == ci else p_cross):
                pairs.add((u, i))
    users_seen = {u for (u, _) in pairs}
    for u in range(n_users):
        if u not in users_seen:
            pairs.add((u, int(rng.integers(half_i) + half_i * (u // half_u))))
    items_seen = {i for (_, i) in pairs}
    for i in range(n_items):
        if i not in items_seen:
            pairs.add((int(rng.integers(half_u) + half_u * (i // half_i)), i))
    return make_interactions(n_users, n_items, pairs)
