"""Shared generators for the test suite: hypothesis strategies, a
seeded random-formula/model sampler used by the acceptance criteria, the
recursive reference evaluator the bit-sliced one is checked against,
the brute-force saturation that `decide`'s box-pattern sweep is checked
against, the deletion algorithm that bisimulation by partition
refinement is checked against, the recursive substitution that the
compiled schema programs are checked against, the re-sorted signed
closure that the merged one is checked against, the two-pass proof
writer that the single-pass one is checked against, and random
irreflexive transitive models, the semantic oracle for theorem
verdicts."""

from __future__ import annotations

import itertools
import random
from collections.abc import Mapping

from hypothesis import strategies as st

from glkit.bisim import BisimRelation, _atom_agree, _zigzag_ok
from glkit.calculus import AxiomStep, MpStep, Proof
from glkit.completeness import ClosureContext, World, hintikka_worlds, standard_rel
from glkit.kripke import Frame, Model, extensions
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
    canonical_order,
    children,
    print_formula,
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


def random_itf_model(
    rng: random.Random, max_worlds: int = 10, atom_names=("p", "q")
) -> Model:
    """A random finite irreflexive transitive model: a random strict order
    on up to max_worlds worlds (forward edges of a random density, closed
    under transitivity) with a random valuation."""
    n = rng.randint(1, max_worlds)
    density = rng.random()
    rel = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density}
    for k in range(n):
        for i in range(k):
            if (i, k) in rel:
                rel |= {(i, j) for j in range(k + 1, n) if (k, j) in rel}
    val = {a: frozenset(w for w in range(n) if rng.random() < 0.5) for a in atom_names}
    return Model(Frame(frozenset(range(n)), frozenset(rel)), val)


def holds_on_models(f: Formula, models) -> bool:
    """f holds at every world of every model, by `kripke.extensions`."""
    return all(extensions(m, f)[-1] == m.frame.worlds for m in models)


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


def reference_saturated(ctx: ClosureContext) -> frozenset[World]:
    """The saturated worlds of ctx by the recursive definition: every
    Not (Box q) of a world has a standard successor holding Box q and
    Not q that is itself saturated. Brute force over every world pair."""
    ws = hintikka_worlds(ctx)
    succ = {w: [x for x in ws if standard_rel(ctx, w, x)] for w in ws}
    memo: dict[World, bool] = {}

    def saturated(w: World) -> bool:
        if w not in memo:
            memo[w] = all(
                any(f in x and Not(f.arg) in x and saturated(x) for x in succ[w])
                for f in ctx.closure
                if isinstance(f, Box) and f not in w
            )
        return memo[w]

    return frozenset(w for w in ws if saturated(w))


def reference_largest_bisimulation(m1: Model, m2: Model) -> BisimRelation:
    """Greatest fixpoint by deletion: all atom-agreeing pairs, dropping
    the pairs that violate a zig-zag clause until none does."""
    pairs = {
        (w1, w2)
        for w1 in m1.frame.worlds
        for w2 in m2.frame.worlds
        if _atom_agree(m1, m2, w1, w2)
    }
    while True:
        bad = {p for p in pairs if not _zigzag_ok(m1, m2, pairs, *p)}
        if not bad:
            return BisimRelation(frozenset(pairs))
        pairs -= bad


def reference_instantiate(pattern: Formula, subst: Mapping[str, Formula]) -> Formula:
    """pattern with each atom replaced by its formula in subst, all at once."""
    if isinstance(pattern, Atom):
        return subst[pattern.name]
    parts = children(pattern)
    return type(pattern)(*(reference_instantiate(c, subst) for c in parts)) if parts else pattern


def reference_signed_closure(closure) -> tuple[Formula, ...]:
    """closure and the negation of each member, sorted afresh in
    canonical order."""
    return canonical_order([*closure, *map(Not, closure)])


def reference_proof_to_json(pr: Proof) -> dict:
    """The proof document as the writer built it before its single-pass
    walk: each node's missing children listed, then pushed, and each
    leaf printed."""
    terms: list = []
    ids: dict[Formula, int] = {}

    def term(f: Formula) -> int:
        stack = [f]
        while stack:
            g = stack[-1]
            if g in ids:
                stack.pop()
                continue
            kids = children(g)
            todo = [c for c in kids if c not in ids]
            if todo:
                stack += reversed(todo)
                continue
            stack.pop()
            ids[g] = len(terms)
            terms.append(
                [type(g).__name__, *(ids[c] for c in kids)] if kids else print_formula(g)
            )
        return ids[f]

    steps: list[dict] = []
    for step in pr.steps:
        if isinstance(step, AxiomStep):
            steps.append({"axiom": term(step.formula)})
        elif isinstance(step, MpStep):
            steps.append({"mp": [step.major, step.minor]})
        else:
            steps.append({"nec": step.premise})
    return {"terms": terms, "steps": steps}
