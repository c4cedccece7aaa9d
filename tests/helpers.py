"""Shared generators for the test suite: hypothesis strategies, a seeded
random-formula/model sampler used by the acceptance criteria, the
recursive reference evaluator the bit-sliced one is checked against, the
brute-force saturation and the popcount-ordered pattern sweep that
`decide`'s depth-first box-pattern walk is checked against, the deletion
algorithm that bisimulation by partition refinement is checked against,
the recursive substitution that the compiled schema programs are checked
against, the re-sorted signed closure that `ClosureContext.signed_closure`
is checked against, the two-pass proof writer that the single-pass one
is checked against, random irreflexive transitive models, the semantic
oracle for theorem verdicts, the sweep over every labelled ITF frame that the
rooted-frame oracle is checked against, and the `extensions`-based
certificate check that the mask-based one is checked against, and the
edge-scan frame predicates that the mask-based ones are checked against,
the greedy completion by `consistent` that the engine's extension is
checked against, the selection from worlds and the standard relation
that `decide`'s countermodels are checked against, and a recorder of the
texts that `parse` reads."""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache
from types import SimpleNamespace

from hypothesis import strategies as st

from glkit import syntax
from glkit.bisim import BisimRelation, _atom_agree, _zigzag_ok
from glkit.calculus import AxiomStep, MpStep, Proof
from glkit.completeness import (
    ClosureContext,
    Countermodel,
    StandardModel,
    Theorem,
    World,
    closure_context,
    consistent,
    hintikka_worlds,
    saturate,
    standard_rel,
)
from glkit.kripke import Frame, Model, enumerate_frames, extensions, is_itf, valid_on_frame
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


def reference_pattern_sweep(ctx: ClosureContext) -> int:
    """The saturated set of ctx's engine by the popcount-ordered sweep:
    every box pattern, most boxes first, each settled by ANDing all its
    boxes from scratch and one AND per obligation against the saturated
    worlds found so far."""
    eng = ctx.engine
    full, boxes = eng.full, eng.boxes
    sat = 0
    # A successor asserts strictly more boxes, so its pattern comes
    # earlier in this order and is already settled.
    for pattern in sorted(range(1 << len(boxes)), key=int.bit_count, reverse=True):
        keep, here, needs = full, full, []
        for j, (_, has, carry, need) in enumerate(boxes):
            if pattern >> j & 1:
                keep &= carry
                here &= has
            else:
                here &= full ^ has
                needs.append(need)
        if all(keep & need & sat for need in needs):
            sat |= here
    return sat


def reference_extend_maximal_consistent(ctx: ClosureContext, xs: Iterable[Formula]) -> World:
    """The extension by its definition: walk the closure in canonical
    order, keeping q when the list stays consistent and otherwise taking
    Not q, with one `consistent` decision per step."""
    cur = list(xs)
    signed = set(ctx.signed_closure)
    for f in cur:
        if f not in signed:
            raise ValueError(f"seed member outside the signed closure: {print_formula(f)}")
    if len(set(cur)) != len(cur):
        raise ValueError("seed contains repetitions")
    if not consistent(cur):
        raise ValueError("seed list is inconsistent")
    present = set(cur)
    for q in ctx.closure:
        if q in present or Not(q) in present:
            continue
        pick = q if consistent(cur + [q]) else Not(q)
        cur.append(pick)
        present.add(pick)
    return World(ctx.target, canonical_order(cur))


def reference_selected_countermodel(f: Formula) -> Theorem | Countermodel:
    """The verdict with the selected submodel by its definition, from the
    worlds in canonical order, `saturate`, `standard_rel` and membership:
    Theorem when no saturated world holds Not f. Otherwise the witness is
    the first saturated world holding Not f; from it on, each selected
    world x gets, for each box of the closure that x lacks, in closure
    order, the first saturated standard successor of x holding Box q and
    Not q. The relation is the transitive closure of those edges, found
    by adding composed pairs until none is new."""
    ctx = closure_context(f)
    ws = hintikka_worlds(ctx)
    saturated = [w for w in ws if saturate(ctx, w)]
    refuting = [w for w in saturated if Not(f) in w]
    if not refuting:
        return Theorem(f)
    boxes = [g for g in ctx.closure if isinstance(g, Box)]
    selected: dict[World, list[World]] = {}
    todo = [refuting[0]]
    while todo:
        x = todo.pop()
        if x in selected:
            continue
        selected[x] = [
            next(y for y in saturated if standard_rel(ctx, x, y) and g in y and Not(g.arg) in y)
            for g in boxes
            if g not in x
        ]
        todo += selected[x]
    edges = {(x, y) for x, ys in selected.items() for y in ys}
    while more := {(x, z) for x, y in edges for u, z in edges if u == y} - edges:
        edges |= more
    worlds = tuple(w for w in ws if w in selected)
    index = {w: i for i, w in enumerate(worlds)}
    rel = tuple(sorted((index[x], index[y]) for x, y in edges))
    return Countermodel(StandardModel(f, worlds, rel), refuting[0])


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


@lru_cache(maxsize=4)
def reference_itf_frames(n: int) -> tuple[Frame, ...]:
    """Every labelled ITF frame of at most n worlds, in enumerate_frames'
    order: 1, 4, 23 and 242 frames for n = 1 to 4."""
    return tuple(fr for fr in enumerate_frames(n) if is_itf(fr))


def reference_itf_valid_small(f: Formula, n: int) -> bool:
    """Validity over every labelled ITF frame of at most n worlds, frame by
    frame in enumerate_frames' order: the oracle's definition before it
    swept one rooted frame of each shape. A frame with more than 24
    atom-at-world cells raises the sweep's SizeGuardError."""
    return all(valid_on_frame(fr, f) for fr in reference_itf_frames(n))


def imp_read_as_or(run):
    """A stand-in for `kripke._run`, the evaluator that builds the
    search's truth table, that evaluates every Imp step as Or."""

    def runner(steps, *rest):
        return run(tuple((Or if c is Imp else c, a, b) for c, a, b in steps), *rest)

    return runner


def reference_verify_certificate(v: Countermodel) -> bool:
    """The certificate check read off `kripke.extensions`: each closure
    formula's truth set as a frozenset of worlds, a membership test per
    world and signed-closure formula."""
    sm = v.model
    ctx = sm.context
    m = sm.to_model()
    if not is_itf(m.frame):
        return False
    truth = extensions(m, ctx.target)
    pos = {q: j for j, q in enumerate(ctx.closure)}
    signed = [
        (s, truth[pos[s]], True) if s in pos else (s, truth[pos[s.arg]], False)
        for s in ctx.signed_closure
    ]
    for i, w in enumerate(sm.worlds):
        if w.members != tuple(s for s, ext, positive in signed if (i in ext) == positive):
            return False
    try:
        widx = sm.worlds.index(v.witness)
    except ValueError:
        return False
    return widx not in truth[-1]


def restricted(fr: Frame) -> Frame:
    """fr without the relation pairs that name an undeclared world."""
    return Frame(fr.worlds, frozenset(e for e in fr.rel if set(e) <= fr.worlds))


def reference_irreflexive(fr: Frame) -> bool:
    return all(x != y for x, y in fr.rel)


def reference_transitive(fr: Frame) -> bool:
    succ: dict[int, set[int]] = {}
    for x, y in fr.rel:
        succ.setdefault(x, set()).add(y)
    return all(z in succ.get(x, ()) for x, y in fr.rel for z in succ.get(y, ()))


def reference_acyclic(fr: Frame) -> bool:
    """No directed cycle in the relation (iterative three-colour DFS)."""
    succ: dict[int, list[int]] = {}
    nodes = set(fr.worlds)
    for x, y in fr.rel:
        succ.setdefault(x, []).append(y)
        nodes.add(x)
        nodes.add(y)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(nodes, WHITE)
    for start in nodes:
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, Iterator[int]]] = [(start, iter(succ.get(start, ())))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[node] = BLACK
                stack.pop()
            elif color[nxt] == GRAY:
                return False
            elif color[nxt] == WHITE:
                color[nxt] = GRAY
                stack.append((nxt, iter(succ.get(nxt, ()))))
    return True


def count_parses(monkeypatch) -> list[str]:
    """The texts that `parse` reads from now on, however a module imported
    it: every call tokenises its text through `syntax._TOKEN`."""
    texts: list[str] = []
    pattern = syntax._TOKEN
    monkeypatch.setattr(syntax, "_TOKEN", SimpleNamespace(
        findall=lambda text: texts.append(text) or pattern.findall(text),
        finditer=pattern.finditer,
    ))
    return texts
