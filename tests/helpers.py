"""Shared generators for the test suite: hypothesis strategies, a
seeded random-formula/model sampler used by the acceptance criteria, and
the recursive reference evaluator the bit-sliced one is checked against."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from glkit.kripke import Frame, Model
from glkit.syntax import (
    FALSE,
    TRUE,
    And,
    Atom,
    Box,
    Falsity,
    Formula,
    Iff,
    Imp,
    Not,
    Or,
    Truth,
    atoms,
    subformulas,
)


def formulas(atom_names=("p", "q", "r"), max_leaves=24) -> st.SearchStrategy[Formula]:
    leaves = st.sampled_from([FALSE, TRUE] + [Atom(a) for a in atom_names])
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            kids.map(Not),
            kids.map(Box),
            st.tuples(kids, kids).map(lambda t: And(*t)),
            st.tuples(kids, kids).map(lambda t: Or(*t)),
            st.tuples(kids, kids).map(lambda t: Imp(*t)),
            st.tuples(kids, kids).map(lambda t: Iff(*t)),
        ),
        max_leaves=max_leaves,
    )


_UNARY = [Not, Box]
_BINARY = [And, Or, Imp, Iff]


def random_formula(rng: random.Random, max_depth: int, atom_names=("p", "q")) -> Formula:
    """Uniform-ish grammar sampler with a hard depth cap."""
    if max_depth == 0 or rng.random() < 0.3:
        return rng.choice([FALSE, TRUE] + [Atom(a) for a in atom_names])
    kind = rng.randrange(6)
    if kind < 2:
        return _UNARY[kind](random_formula(rng, max_depth - 1, atom_names))
    op = _BINARY[kind - 2]
    return op(
        random_formula(rng, max_depth - 1, atom_names),
        random_formula(rng, max_depth - 1, atom_names),
    )


def box_subformula_count(f: Formula) -> int:
    return sum(1 for g in subformulas(f) if isinstance(g, Box))


def random_guarded_formula(
    rng: random.Random,
    max_depth: int = 4,
    atom_names=("p", "q"),
    max_boxes: int = 3,
) -> Formula:
    """Sample until the distinct Box-subformula count fits the bound."""
    while True:
        f = random_formula(rng, max_depth, atom_names)
        if box_subformula_count(f) <= max_boxes:
            return f


def random_model(rng: random.Random, max_worlds: int = 6, atom_names=("p", "q")) -> Model:
    n = rng.randint(1, max_worlds)
    worlds = frozenset(range(n))
    rel = frozenset(
        (i, j) for i in range(n) for j in range(n) if rng.random() < 0.3
    )
    val = {
        a: frozenset(w for w in range(n) if rng.random() < 0.5) for a in atom_names
    }
    return Model(Frame(worlds, rel), val)


def reference_holds(m: Model, f: Formula, w: int) -> bool:
    """Forcing by structural recursion, one world at a time: the test-only
    reference for glkit's bottom-up evaluator."""
    if isinstance(f, Falsity):
        return False
    if isinstance(f, Truth):
        return True
    if isinstance(f, Atom):
        return w in m.val.get(f.name, frozenset())
    if isinstance(f, Not):
        return not reference_holds(m, f.arg, w)
    if isinstance(f, And):
        return reference_holds(m, f.left, w) and reference_holds(m, f.right, w)
    if isinstance(f, Or):
        return reference_holds(m, f.left, w) or reference_holds(m, f.right, w)
    if isinstance(f, Imp):
        return (not reference_holds(m, f.left, w)) or reference_holds(m, f.right, w)
    if isinstance(f, Iff):
        return reference_holds(m, f.left, w) == reference_holds(m, f.right, w)
    if isinstance(f, Box):
        return all(
            reference_holds(m, f.arg, u)
            for u in m.frame.worlds
            if (w, u) in m.frame.rel
        )
    raise TypeError(f"not a formula: {f!r}")


def reference_valid_on_frame(fr: Frame, f: Formula) -> bool:
    """f holds at every world under every valuation, one valuation at a
    time, stopping at the first that refutes it."""
    names = sorted(atoms(f))
    cells = [(a, w) for a in names for w in sorted(fr.worlds)]
    for bits in itertools.product((False, True), repeat=len(cells)):
        val: dict[str, set[int]] = {a: set() for a in names}
        for (a, w), b in zip(cells, bits):
            if b:
                val[a].add(w)
        m = Model(fr, {a: frozenset(s) for a, s in val.items()})
        if not all(reference_holds(m, f, w) for w in fr.worlds):
            return False
    return True
