"""Decision procedure for GL built from maximal consistent worlds.

A world for a target formula is a duplicate-free, canonically ordered
list over the signed subformula closure: for each closure member q it
contains exactly one of q / Not q, and membership respects the classical
truth tables (a Hintikka set). Worlds therefore correspond one-to-one to
truth assignments b of the decision formulas (the atoms and boxed
subformulas in the closure), and the search handles a world as b alone.

Truth table: one run of the shared `kripke` program over the closure,
with each atom and box step fed its decision's bit pattern, gives every
closure formula one int whose bit b is its truth under assignment b.

Saturation: a world is saturated when every negated box Not (Box q) in
it has a saturated successor containing {Box q, Not q} plus every boxed
member of the world together with its body. That depends only on the
world's box pattern, and along any successor the pattern grows strictly
(Box q was absent, and boxes only propagate forward). So the patterns
are visited from most boxes to fewest, each settled by one AND per
obligation against the saturated worlds found so far. The strict growth
is the finite trace of the converse well-foundedness of the frames
involved.

`decide` reports Theorem when no saturated world refutes the target.
Otherwise the witness is the canonically first saturated refuting world,
and the certificate is the submodel it generates: the witness and its
saturated successors under the standard relation, which is transitive,
with the membership valuation. Generated submodels preserve truth.
`verify_certificate` re-checks a certificate from first principles
(frame shape, membership/truth agreement, falsification) by evaluating
the closure on the certificate's own relation.

Serialization: a certificate is a model document plus the target, the
witness and each world's members as text. `certificate_to_json` prints
the signed closure once, children first (`syntax.print_closure`), and
looks each member's text up among those texts; `certificate_from_json`
looks member strings up in the same table and parses only those it
misses.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import kripke
from .kripke import Frame, Model
from .limits import SizeGuardError
from .syntax import (
    Atom,
    Box,
    Formula,
    Not,
    canonical_order,
    conjlist,
    parse,
    print_closure,
    print_formula,
    signed_subformulas,
    subformulas,
)

MAX_DECISION_BITS = 16

# Records set their fields past their own refusing __setattr__.
_set = object.__setattr__


class ClosureContext(NamedTuple):
    """Subformula closure of a target plus its signed extension.

    `decisions` are the closure members whose truth value is free (atoms
    and boxed formulas); all other members are determined by them.
    """

    target: Formula
    closure: tuple[Formula, ...]
    signed_closure: tuple[Formula, ...]
    decisions: tuple[Formula, ...]


def closure_context(target: Formula) -> ClosureContext:
    closure = subformulas(target)
    signed = signed_subformulas(target)
    decisions = tuple(q for q in closure if isinstance(q, (Atom, Box)))
    return ClosureContext(target, closure, signed, decisions)


class World:
    """Canonically ordered members drawn from a signed closure. Immutable;
    equal members make equal worlds."""

    def __init__(self, members: tuple[Formula, ...]):
        _set(self, "members", members)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"World(members={self.members!r})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"worlds are immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def member_set(self) -> frozenset[Formula]:
        return frozenset(self.members)

    def __contains__(self, f: Formula) -> bool:
        return f in self.member_set


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Engine:
    """Truth table and saturated set of one closure context.

    A world is its decision assignment b: bit b of `truth[i]` is the
    truth of ctx.closure[i] under b, and bit b of `saturated` says
    whether that world is saturated.
    """

    def __init__(self, ctx: ClosureContext):
        k = len(ctx.decisions)
        if k > MAX_DECISION_BITS:
            raise SizeGuardError(
                f"{k} decision formulas exceed the "
                f"{MAX_DECISION_BITS}-bit world enumeration limit"
            )
        self.full = full = (1 << (1 << k)) - 1
        # Bit b of cells[i] is bit i of b. Atoms and boxes are free, so each
        # atom and Box step takes its decision's pattern; the program visits
        # Box steps in closure order, the order of ctx.decisions.
        cells = kripke._cell_patterns(k)
        atom_cell = {d.name: c for d, c in zip(ctx.decisions, cells) if isinstance(d, Atom)}
        box_cells = iter([c for d, c in zip(ctx.decisions, cells) if isinstance(d, Box)])
        steps, names = kripke._compile(ctx.target)
        self.truth = truth = kripke._run(
            steps, [atom_cell[a] for a in names], full, lambda _: next(box_cells)
        )
        pos = {q: i for i, q in enumerate(ctx.closure)}
        # (member, closure index, polarity) for the signed closure in
        # canonical order: s is in world b iff bit b of truth[i] == polarity.
        self.signed = tuple(
            (s, pos[s], True) if s in pos else (s, pos[s.arg], False)
            for s in ctx.signed_closure
        )
        # Per box: its decision dimension, then the worlds holding Box q,
        # those holding Box q and q (where a box of the current world
        # carries on), and those holding Box q and Not q (where an
        # obligation Not (Box q) is met).
        self.boxes = []
        for i, d in enumerate(ctx.decisions):
            if isinstance(d, Box):
                has, arg = truth[pos[d]], truth[pos[d.arg]]
                self.boxes.append((i, has, has & arg, has & ~arg))
        self.saturated = self._saturate()

    def _saturate(self) -> int:
        full, boxes = self.full, self.boxes
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

    def successors(self, b: int) -> int:
        """The saturated worlds the standard relation leads to from b."""
        keep, fresh = self.full, 0
        for i, has, carry, _ in self.boxes:
            if b >> i & 1:
                keep &= carry
            else:
                fresh |= has
        return keep & fresh & self.saturated

    def first(self, candidates: int) -> int:
        """The canonically first world of a nonempty set of worlds.

        Two worlds compare as their sorted member lists do, so the first
        formula in canonical order that one holds and the other lacks
        decides: the world holding it comes first. The walk therefore goes through the signed closure in
        canonical order and keeps the candidates holding each formula
        whenever some do."""
        full, truth = self.full, self.truth
        for _, i, positive in self.signed:
            narrowed = candidates & (truth[i] if positive else full ^ truth[i])
            if narrowed:
                candidates = narrowed
        return candidates.bit_length() - 1

    def positions(self, b: int) -> tuple[int, ...]:
        """The signed-closure positions of world b's members. Worlds
        compare as these tuples do exactly as their member lists do in
        canonical order."""
        truth = self.truth
        return tuple(
            j for j, (_, i, positive) in enumerate(self.signed)
            if (truth[i] >> b & 1) == positive
        )

    def world(self, b: int) -> World:
        signed = self.signed
        return World(tuple(signed[j][0] for j in self.positions(b)))


@lru_cache(maxsize=16)
def _engine(ctx: ClosureContext) -> _Engine:
    return _Engine(ctx)


def hintikka_worlds(ctx: ClosureContext) -> tuple[World, ...]:
    """Every world over the signed closure, in canonical order."""
    eng = _engine(ctx)
    return tuple(map(eng.world, sorted(range(1 << len(ctx.decisions)), key=eng.positions)))


def standard_rel(ctx: ClosureContext, w: World, x: World) -> bool:
    """Syntactic accessibility: boxes propagate forward into x (with their
    bodies) and some box is newly asserted in x against w."""
    xs = x.member_set
    for f in w.members:
        if isinstance(f, Box) and (f not in xs or f.arg not in xs):
            return False
    ws = w.member_set
    return any(isinstance(f, Box) and Not(f) in ws for f in x.members)


def saturate(ctx: ClosureContext, w: World) -> bool:
    """GL-satisfiability of a world: every negated box has a successor
    witness that is itself saturated."""
    eng = _engine(ctx)
    b = sum(1 << i for i, d in enumerate(ctx.decisions) if d in w)
    if eng.world(b) != w:
        raise ValueError("not a world of this context")
    return bool(eng.saturated >> b & 1)


# ---------------------------------------------------------------------------
# Verdicts and certificates


class StandardModel:
    """Countermodel carrier: saturated worlds, the standard relation as
    index pairs into `worlds`, membership valuation left implicit.
    `context` is closure_context(target): `decide` and
    `certificate_from_json` pass in the one they computed, and it is
    computed here when left out. Immutable; equality, hash and repr
    leave `context` out, since the target determines it."""

    def __init__(
        self,
        target: Formula,
        worlds: tuple[World, ...],
        rel: tuple[tuple[int, int], ...],
        context: ClosureContext | None = None,
    ):
        if context is None:
            context = closure_context(target)
        elif context.target != target:
            raise ValueError("the closure context belongs to another target")
        _set(self, "target", target)
        _set(self, "worlds", worlds)
        _set(self, "rel", rel)
        _set(self, "context", context)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.target, self.worlds, self.rel) == (other.target, other.worlds, other.rel)

    def __hash__(self):
        return hash((self.target, self.worlds, self.rel))

    def __repr__(self):
        return f"StandardModel(target={self.target!r}, worlds={self.worlds!r}, rel={self.rel!r})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"standard models are immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def to_model(self) -> Model:
        names = sorted(
            {g.name for g in self.context.closure if isinstance(g, Atom)}
        )
        val = {
            a: frozenset(
                i for i, w in enumerate(self.worlds) if Atom(a) in w
            )
            for a in names
        }
        frame = Frame(frozenset(range(len(self.worlds))), frozenset(self.rel))
        return Model(frame, val)


class Theorem(NamedTuple):
    formula: Formula


class Countermodel(NamedTuple):
    model: StandardModel
    witness: World


Verdict = Theorem | Countermodel


def decide(f: Formula) -> Verdict:
    """Theorem, or a countermodel rooted at a witness.

    The context's engine holds the truth table (one int per closure
    formula, whose bit b is its truth under decision assignment b) and
    the saturated set from one sweep over box patterns, most boxes first.
    f is a theorem iff no saturated world refutes it. Otherwise the
    witness is the canonically first saturated refuting world, and the
    certificate is the submodel it generates: the witness and its
    saturated successors, in canonical order, related by the standard
    relation."""
    ctx = closure_context(f)
    eng = _engine(ctx)
    refuting = eng.saturated & ~eng.truth[-1]
    if not refuting:
        return Theorem(f)
    w = eng.first(refuting)
    emitted = eng.successors(w) | 1 << w
    worlds = {b: eng.world(b) for b in _bits(emitted)}
    order = sorted(worlds, key=eng.positions)
    index = {b: i for i, b in enumerate(order)}
    rel = tuple(
        sorted(
            (index[x], index[y])
            for x in order
            for y in _bits(eng.successors(x) & emitted)
        )
    )
    model = StandardModel(f, tuple(worlds[b] for b in order), rel, ctx)
    return Countermodel(model, worlds[w])


def verify_certificate(v: Countermodel) -> bool:
    """Re-check a countermodel from first principles: the frame is ITF,
    every world's members are exactly the signed-closure formulas true
    at it, in canonical order, and the witness is one of the worlds and
    falsifies the target (so it contains Not target)."""
    if not isinstance(v, Countermodel):
        raise TypeError("only countermodel verdicts carry a certificate")
    sm = v.model
    ctx = sm.context
    m = sm.to_model()
    if not kripke.is_itf(m.frame):
        return False
    # World i of the model is sm.worlds[i]; extensions follow ctx.closure.
    # A signed member outside the closure negates a closure formula, so it
    # holds where that formula's extension does not.
    truth = kripke.extensions(m, ctx.target)
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


def consistent(fs: Sequence[Formula]) -> bool:
    """No refutation of the conjunction: the negated conjlist is not a
    theorem, equivalently the list is satisfiable on an ITF model."""
    return not isinstance(decide(Not(conjlist(list(fs)))), Theorem)


def extend_maximal_consistent(
    ctx: ClosureContext, xs: Iterable[Formula]
) -> World:
    """Extend a consistent seed from the signed closure to a full world.

    Walks the closure in canonical order, keeping q when the list stays
    consistent and otherwise taking Not q, so the result is the unique
    deterministic completion of the seed.
    """
    cur = list(xs)
    signed = set(ctx.signed_closure)
    for f in cur:
        if f not in signed:
            raise ValueError(
                f"seed member outside the signed closure: {print_formula(f)}"
            )
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
    return World(canonical_order(cur))


# ---------------------------------------------------------------------------
# Certificate serialization


def certificate_to_json(v: Countermodel) -> dict:
    """The certificate as a model document plus `target`, `witness` and
    `world_contents`. The signed closure is printed once, children
    first, and each member's text is looked up there; a member from
    outside it is printed on its own."""
    sm = v.model
    text = print_closure(sm.context.signed_closure)
    doc = kripke.model_to_json(sm.to_model())
    doc["target"] = text[sm.target]
    doc["witness"] = f"w{sm.worlds.index(v.witness)}"
    doc["world_contents"] = {
        f"w{i}": [text.get(m) or print_formula(m) for m in w.members]
        for i, w in enumerate(sm.worlds)
    }
    return doc


def certificate_from_json(doc: Mapping) -> Countermodel:
    """Load a certificate: a model document (see `kripke.model_from_json`)
    plus `target`, `witness` and `world_contents`. A document of the
    wrong shape raises ValueError naming the bad field."""
    m, names = kripke.model_from_json(doc)
    target, witness, contents = (
        doc.get(key) for key in ("target", "witness", "world_contents")
    )
    if not isinstance(target, str):
        raise ValueError("certificate field 'target': expected a formula string")
    if not isinstance(witness, str):
        raise ValueError("certificate field 'witness': expected a world name")
    if not isinstance(contents, Mapping) or not all(
        isinstance(ms, (list, tuple)) and all(isinstance(s, str) for s in ms)
        for ms in contents.values()
    ):
        raise ValueError(
            "certificate field 'world_contents': expected an object mapping "
            "world names to lists of formula strings"
        )
    # Members are looked up by their printed form among the target's
    # signed closure, printed once, and parsed only when that misses.
    f = parse(target)
    ctx = closure_context(f)
    printed = {s: g for g, s in print_closure(ctx.signed_closure).items()}
    worlds = []
    for nm in names:
        if nm not in contents:
            raise ValueError(f"missing world contents for {nm!r}")
        worlds.append(World(tuple(printed.get(s) or parse(s) for s in contents[nm])))
    sm = StandardModel(f, tuple(worlds), tuple(sorted(m.frame.rel)), ctx)
    derived = sm.to_model().val
    for a in set(m.val) | set(derived):
        if m.val.get(a, frozenset()) != derived.get(a, frozenset()):
            raise ValueError(
                f"valuation of {a!r} disagrees with the world contents"
            )
    if witness not in names:
        raise ValueError(f"undeclared witness world: {witness!r}")
    return Countermodel(sm, worlds[names.index(witness)])
