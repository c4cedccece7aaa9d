"""Decision procedure for GL built from maximal consistent worlds.

A world for a target formula is a duplicate-free, canonically ordered
list over the signed subformula closure: for each closure member q it
contains exactly one of q / Not q, and membership respects the classical
truth tables (a Hintikka set). Worlds therefore correspond one-to-one to
truth assignments of the atoms and boxed subformulas in the closure.

`saturate` searches, for every negated box Not (Box q) in a world, a
successor world containing {Box q, Not q} plus every boxed member of the
current world together with its body. Along any successor chain the set
of positive boxes grows strictly (Box q was absent, and boxes only
propagate forward), so the search has depth at most the number of boxed
subformulas; that bound is what makes the procedure terminate and is the
finite trace of the converse well-foundedness of the frames involved.

`decide` reports Theorem when no saturated world refutes the target, and
otherwise emits a countermodel certificate: all saturated worlds, the
standard relation restricted to them, the membership valuation, and a
refuting witness world. `verify_certificate` re-checks a certificate
from first principles (frame shape, membership/truth agreement,
falsification) using only the Kripke evaluator, independently of the
search that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, MutableMapping, Sequence

from . import kripke
from .calculus import conjlist
from .kripke import Frame, Model
from .limits import SizeGuardError
from .syntax import (
    Atom,
    Box,
    Falsity,
    Formula,
    Iff,
    Imp,
    Not,
    Or,
    Truth,
    And,
    canonical_key,
    parse,
    print_formula,
    subformulas,
)

MAX_DECISION_BITS = 16


@dataclass(frozen=True)
class ClosureContext:
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
    signed = sorted(set(closure) | {Not(q) for q in closure}, key=canonical_key)
    decisions = tuple(q for q in closure if isinstance(q, (Atom, Box)))
    return ClosureContext(target, closure, tuple(signed), decisions)


@dataclass(frozen=True)
class World:
    """Canonically ordered members drawn from a signed closure."""

    members: tuple[Formula, ...]

    @cached_property
    def member_set(self) -> frozenset[Formula]:
        return frozenset(self.members)

    def __contains__(self, f: Formula) -> bool:
        return f in self.member_set


def world_key(w: World):
    return tuple(canonical_key(m) for m in w.members)


class _Engine:
    """Per-context world table and saturation search.

    Worlds are indexed by the bit vector of their decision formulas;
    member sets are mirrored as bit masks over the signed closure so
    containment tests are single integer operations.
    """

    def __init__(self, ctx: ClosureContext):
        if len(ctx.decisions) > MAX_DECISION_BITS:
            raise SizeGuardError(
                f"{len(ctx.decisions)} decision formulas exceed the "
                f"{MAX_DECISION_BITS}-bit world enumeration limit"
            )
        self.ctx = ctx
        self.sbit = {f: 1 << i for i, f in enumerate(ctx.signed_closure)}
        self.dim = {d: i for i, d in enumerate(ctx.decisions)}
        self.box_dims = [
            (i, d) for i, d in enumerate(ctx.decisions) if isinstance(d, Box)
        ]
        k = len(ctx.decisions)
        self.worlds_by_bits: list[World] = []
        self.member_mask: list[int] = []
        self.box_bits: list[int] = []
        self.prop_req: list[int] = []
        self.obligations: list[list[tuple[int, Box]]] = []
        for bits in range(1 << k):
            self._build_world(bits)
        self.bits_of = {
            self.worlds_by_bits[b]: b for b in range(1 << k)
        }
        order = sorted(range(1 << k), key=lambda b: world_key(self.worlds_by_bits[b]))
        self.sorted_bits = order
        self._sat: dict[int, bool] = {}

    def _build_world(self, bits: int) -> None:
        vals: dict[Formula, bool] = {}
        for f in self.ctx.closure:  # canonical order: children first
            if isinstance(f, (Atom, Box)):
                vals[f] = bool(bits >> self.dim[f] & 1)
            elif isinstance(f, Falsity):
                vals[f] = False
            elif isinstance(f, Truth):
                vals[f] = True
            elif isinstance(f, Not):
                vals[f] = not vals[f.arg]
            elif isinstance(f, And):
                vals[f] = vals[f.left] and vals[f.right]
            elif isinstance(f, Or):
                vals[f] = vals[f.left] or vals[f.right]
            elif isinstance(f, Imp):
                vals[f] = (not vals[f.left]) or vals[f.right]
            elif isinstance(f, Iff):
                vals[f] = vals[f.left] == vals[f.right]
            else:
                raise TypeError(f"not a formula: {f!r}")
        members = {f if vals[f] else Not(f) for f in self.ctx.closure}
        mask = 0
        for m in members:
            mask |= self.sbit[m]
        self.worlds_by_bits.append(
            World(tuple(sorted(members, key=canonical_key)))
        )
        self.member_mask.append(mask)
        bb = 0
        prop = 0
        obls: list[tuple[int, Box]] = []
        for pos, d in self.box_dims:
            if bits >> pos & 1:
                bb |= 1 << pos
                prop |= self.sbit[d] | self.sbit[d.arg]
            else:
                obls.append((pos, d))
        self.box_bits.append(bb)
        self.prop_req.append(prop)
        self.obligations.append(obls)

    # -- saturation ---------------------------------------------------

    def saturate(self, bits: int) -> bool:
        known = self._sat.get(bits)
        if known is not None:
            return known
        result = True
        for pos, boxed in self.obligations[bits]:
            req = (
                self.prop_req[bits]
                | self.sbit[boxed]
                | self.sbit[Not(boxed.arg)]
            )
            forced = self.box_bits[bits] | (1 << pos)
            if not self._successor_exists(forced, req):
                result = False
                break
        self._sat[bits] = result
        return result

    def _successor_exists(self, forced: int, req: int) -> bool:
        free = [
            i for i in range(len(self.ctx.decisions)) if not forced >> i & 1
        ]
        for combo in range(1 << len(free)):
            bits = forced
            for j, pos in enumerate(free):
                if combo >> j & 1:
                    bits |= 1 << pos
            if self.member_mask[bits] & req == req and self.saturate(bits):
                return True
        return False

    # -- fast standard relation ---------------------------------------

    def related(self, b1: int, b2: int) -> bool:
        return (
            self.member_mask[b2] & self.prop_req[b1] == self.prop_req[b1]
            and self.box_bits[b2] & ~self.box_bits[b1] != 0
        )


@lru_cache(maxsize=16)
def _engine(ctx: ClosureContext) -> _Engine:
    return _Engine(ctx)


def hintikka_worlds(ctx: ClosureContext) -> tuple[World, ...]:
    """Every world over the signed closure, in canonical order."""
    eng = _engine(ctx)
    return tuple(eng.worlds_by_bits[b] for b in eng.sorted_bits)


def standard_rel(ctx: ClosureContext, w: World, x: World) -> bool:
    """Syntactic accessibility: boxes propagate forward into x (with their
    bodies) and some box is newly asserted in x against w."""
    xs = x.member_set
    for f in w.members:
        if isinstance(f, Box) and (f not in xs or f.arg not in xs):
            return False
    ws = w.member_set
    return any(isinstance(f, Box) and Not(f) in ws for f in x.members)


def saturate(
    ctx: ClosureContext,
    w: World,
    memo: MutableMapping[World, bool] | None = None,
) -> bool:
    """GL-satisfiability of a world: every negated box has a successor
    witness that is itself saturated."""
    if memo is not None and w in memo:
        return memo[w]
    eng = _engine(ctx)
    bits = eng.bits_of.get(w)
    if bits is None:
        raise ValueError("not a world of this context")
    result = eng.saturate(bits)
    if memo is not None:
        memo[w] = result
    return result


# ---------------------------------------------------------------------------
# Verdicts and certificates


@dataclass(frozen=True)
class StandardModel:
    """Countermodel carrier: saturated worlds, the standard relation as
    index pairs into `worlds`, membership valuation left implicit."""

    target: Formula
    worlds: tuple[World, ...]
    rel: tuple[tuple[int, int], ...]

    @property
    def context(self) -> ClosureContext:
        return closure_context(self.target)

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


@dataclass(frozen=True)
class Theorem:
    formula: Formula


@dataclass(frozen=True)
class Countermodel:
    model: StandardModel
    witness: World


Verdict = Theorem | Countermodel


def decide(f: Formula) -> Verdict:
    """Theorem, or a countermodel over all saturated worlds with the first
    saturated refuting world (canonical order) as witness."""
    ctx = closure_context(f)
    eng = _engine(ctx)
    notf = Not(f)
    witness_bits = [
        b for b in eng.sorted_bits if eng.member_mask[b] & eng.sbit[notf]
    ]
    first_witness: int | None = None
    for b in witness_bits:
        if eng.saturate(b):
            first_witness = b
            break
    if first_witness is None:
        return Theorem(f)
    saturated = [b for b in eng.sorted_bits if eng.saturate(b)]
    index = {b: i for i, b in enumerate(saturated)}
    rel = tuple(
        (index[b1], index[b2])
        for b1 in saturated
        for b2 in saturated
        if eng.related(b1, b2)
    )
    model = StandardModel(
        f, tuple(eng.worlds_by_bits[b] for b in saturated), rel
    )
    return Countermodel(model, eng.worlds_by_bits[first_witness])


def verify_certificate(v: Countermodel) -> bool:
    """Re-check a countermodel from first principles: the frame is ITF,
    membership coincides with truth for every closure formula at every
    world, and the witness contains Not target and falsifies the target."""
    if not isinstance(v, Countermodel):
        raise TypeError("only countermodel verdicts carry a certificate")
    sm = v.model
    ctx = sm.context
    m = sm.to_model()
    if not kripke.is_itf(m.frame):
        return False
    # World i of the model is sm.worlds[i]; extensions follow ctx.closure.
    truth = kripke.extensions(m, ctx.target)
    for q, ext in zip(ctx.closure, truth):
        for i, w in enumerate(sm.worlds):
            if (q in w) != (i in ext):
                return False
    try:
        widx = sm.worlds.index(v.witness)
    except ValueError:
        return False
    if Not(ctx.target) not in v.witness:
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
    return World(tuple(sorted(set(cur), key=canonical_key)))


# ---------------------------------------------------------------------------
# Certificate serialization


def certificate_to_json(v: Countermodel) -> dict:
    sm = v.model
    doc = kripke.model_to_json(sm.to_model())
    doc["target"] = print_formula(sm.target)
    doc["witness"] = f"w{sm.worlds.index(v.witness)}"
    doc["world_contents"] = {
        f"w{i}": [print_formula(m) for m in w.members]
        for i, w in enumerate(sm.worlds)
    }
    return doc


def certificate_from_json(doc: Mapping) -> Countermodel:
    target = parse(doc["target"])
    names = list(doc["worlds"])
    if len(set(names)) != len(names):
        raise ValueError("duplicate world names")
    index = {nm: i for i, nm in enumerate(names)}
    contents = doc["world_contents"]
    worlds = []
    for nm in names:
        if nm not in contents:
            raise ValueError(f"missing world contents for {nm!r}")
        worlds.append(World(tuple(parse(s) for s in contents[nm])))
    rel = []
    for x, y in doc.get("rel", []):
        if x not in index or y not in index:
            raise ValueError(f"undeclared world in rel: {x!r} -> {y!r}")
        rel.append((index[x], index[y]))
    sm = StandardModel(target, tuple(worlds), tuple(sorted(rel)))
    declared = {
        a: frozenset(index[nm] for nm in ws)
        for a, ws in doc.get("val", {}).items()
    }
    derived = {a: s for a, s in sm.to_model().val.items()}
    for a in set(declared) | set(derived):
        if declared.get(a, frozenset()) != derived.get(a, frozenset()):
            raise ValueError(
                f"valuation of {a!r} disagrees with the world contents"
            )
    witness_name = doc["witness"]
    if witness_name not in index:
        raise ValueError(f"undeclared witness world: {witness_name!r}")
    return Countermodel(sm, worlds[index[witness_name]])
