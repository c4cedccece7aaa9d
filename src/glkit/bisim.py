"""Bisimulation between finite models.

Two related worlds must agree on every atom mentioned by either model
(all other atoms are false everywhere by convention) and must be able to
mimic each other's transitions inside the relation. Bisimilar worlds
satisfy the same modal formulas, which is what lets a countermodel be
transported onto any relabeled world space.

The largest bisimulation is computed by signature refinement over the
disjoint union of the two models: the worlds of m1 are numbered first,
then those of m2, so equal ids in the two models stay apart. The first
partition groups worlds by the set of atoms true at them. Each round
gives every world the key (its block, the set of its successors'
blocks) and splits the blocks by key; keys only split blocks, so a
round that leaves the block count unchanged leaves the partition
unchanged, and it is stable. The coarsest stable partition is the
largest bisimulation of the union, an equivalence. No edge leaves
either model, so its restriction to W1 x W2 is a bisimulation between
m1 and m2; and every bisimulation between m1 and m2 is also one of the
union, so it lies inside that restriction. The answer is therefore the
pairs (w1, w2) whose worlds share a block. Each round costs
O(|W| + |R|).

`is_bisimulation` checks the zig-zag clauses pair by pair and shares no
code with the refinement, so it serves as the independent check of its
results. Relation pairs and valuation entries that name undeclared
worlds are ignored throughout.
"""

from __future__ import annotations

from typing import NamedTuple

from .kripke import Model


class BisimRelation(NamedTuple):
    pairs: frozenset[tuple[int, int]]


def _atom_agree(m1: Model, m2: Model, w1: int, w2: int) -> bool:
    for a in set(m1.val) | set(m2.val):
        if (w1 in m1.val.get(a, frozenset())) != (w2 in m2.val.get(a, frozenset())):
            return False
    return True


def _zigzag_ok(m1: Model, m2: Model, pairs, w1: int, w2: int) -> bool:
    for w1s in m1.frame.worlds:
        if (w1, w1s) in m1.frame.rel and not any(
            (w2, w2s) in m2.frame.rel and (w1s, w2s) in pairs
            for w2s in m2.frame.worlds
        ):
            return False
    for w2s in m2.frame.worlds:
        if (w2, w2s) in m2.frame.rel and not any(
            (w1, w1s) in m1.frame.rel and (w1s, w2s) in pairs
            for w1s in m1.frame.worlds
        ):
            return False
    return True


def is_bisimulation(m1: Model, m2: Model, z: BisimRelation) -> bool:
    """Every pair agrees on atoms and both simulation clauses hold within z."""
    for w1, w2 in z.pairs:
        if w1 not in m1.frame.worlds or w2 not in m2.frame.worlds:
            raise ValueError(f"ill-typed pair: ({w1}, {w2})")
    return all(
        _atom_agree(m1, m2, w1, w2) and _zigzag_ok(m1, m2, z.pairs, w1, w2)
        for w1, w2 in z.pairs
    )


def largest_bisimulation(m1: Model, m2: Model) -> BisimRelation:
    """The coarsest stable partition of the disjoint union, read back as
    the pairs of an m1 world and an m2 world in the same block.

    The result is a bisimulation and contains every bisimulation between
    the two models.
    """
    # Union positions: m1's worlds first, then m2's.
    pos1 = {w: i for i, w in enumerate(m1.frame.worlds)}
    pos2 = {w: len(pos1) + i for i, w in enumerate(m2.frame.worlds)}
    n = len(pos1) + len(pos2)
    succ: list[list[int]] = [[] for _ in range(n)]
    signature: list[set[str]] = [set() for _ in range(n)]
    for m, pos in ((m1, pos1), (m2, pos2)):
        for x, y in m.frame.rel:
            if x in pos and y in pos:
                succ[pos[x]].append(pos[y])
        for a, ws in m.val.items():
            for w in ws:
                if w in pos:
                    signature[pos[w]].add(a)
    ids: dict = {}
    block = [ids.setdefault(frozenset(s), len(ids)) for s in signature]
    count = len(ids)
    while True:
        ids = {}
        refined = [
            ids.setdefault((b, frozenset([block[j] for j in js])), len(ids))
            for b, js in zip(block, succ)
        ]
        if len(ids) == count:
            break
        block, count = refined, len(ids)
    in_block: dict[int, list[int]] = {}
    for w2, i in pos2.items():
        in_block.setdefault(block[i], []).append(w2)
    return BisimRelation(
        frozenset(
            (w1, w2) for w1, i in pos1.items() for w2 in in_block.get(block[i], ())
        )
    )


def bisimilar(m1: Model, w1: int, m2: Model, w2: int) -> bool:
    """Membership of (w1, w2) in the largest bisimulation."""
    if w1 not in m1.frame.worlds:
        raise ValueError(f"unknown world id: {w1}")
    if w2 not in m2.frame.worlds:
        raise ValueError(f"unknown world id: {w2}")
    return (w1, w2) in largest_bisimulation(m1, m2).pairs
