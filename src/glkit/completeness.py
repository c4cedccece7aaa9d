"""Decision procedure for GL built from maximal consistent worlds.

A world for a target formula is a duplicate-free, canonically ordered
list over the signed subformula closure: for each closure member q it
contains exactly one of q / Not q, and membership respects the classical
truth tables (a Hintikka set). Worlds therefore correspond one-to-one to
truth assignments b of the decision formulas (the atoms and boxed
subformulas in the closure), and the search handles a world as b alone.
From the verdict on, a world is its target and its closure mask, whose
bit i is set iff closure member i holds; its members are derived only
when read. `World(target, members)` refuses a member list that is not
one signed member per closure formula in canonical order.

Truth table: one run of the target's closure program
(`syntax.closure_steps`) through the `kripke` evaluator, with each atom
and box step fed its decision's bit pattern, gives every closure formula
one int whose bit b is its truth under assignment b.

Saturation: a world is saturated when every negated box Not (Box q) in
it has a saturated successor containing {Box q, Not q} plus every boxed
member of the world together with its body. That depends only on the
world's box pattern, and along any successor the pattern grows strictly
(Box q was absent, and boxes only propagate forward). So the patterns
are visited from most boxes to fewest: one depth-first walk, from the
last box to the first and "held" before "not held", takes them in
decreasing numeric order, each after all of its strict supersets. Down
the walk one AND per level narrows the worlds with the pattern and the
worlds its boxes carry on to, and each obligation is checked against
the saturated worlds found so far when a box is left out and again
whenever a held box narrows the carried worlds; a subtree in which one
is unmet is skipped. The strict growth is the finite trace of the
converse well-foundedness of the frames involved.

Canonical order: two worlds compare as their member lists do, and a
closure formula comes before its negation, so the lowest closure index
where their masks differ decides, the world holding that formula first.
The search picks and orders worlds by their masks and never reads the
signed closure.

`decide` reports Theorem when no saturated world refutes the target.
Otherwise the witness is the canonically first saturated refuting world,
and the certificate is the submodel it selects, as in the selection step
of the finite-model-property proofs (Blackburn, de Rijke & Venema,
*Modal Logic*, 2001, ch. 2): each emitted world keeps, for each
Not (Box q) it holds, one witness, the canonically first saturated
standard successor holding Box q and Not q, and the relation is the
transitive closure of those selected edges, with the membership
valuation. The truth lemma holds there: every edge is a standard edge,
since the standard relation is transitive, so a box of a world holds its
body at every successor; and every negated box keeps its own witness.
`verify_certificate` re-checks a certificate from first principles
through `certcheck`, which imports nothing from glkit and so shares no
code with the search: given the closure table, the masks, the relation's
index pairs and the witness's index, it checks the table, that the frame
is ITF, each world's mask against its column of the closure evaluated on
the certificate's own relation, and that the witness refutes the target.
`certificate_problem` gives its reason for a rejection, which names the
failing world and closure position.

Closure contexts: each target's analysis is one `ClosureContext`, built
from the target alone. It holds the closure and the decisions, and,
built on first use, the signed closure (the closure and its negations,
put in canonical order by `syntax.canonical_order`), each signed
member's (closure index, polarity) read off it, the engine (truth table
and saturated set), and for certificates the printed target, the
closure atoms' positions and the closure as shared terms.
`closure_context` is the module's one cache, an `lru_cache` of the
contexts of the 16 most recently used targets keyed by the interned
formula. `decide`, `World`, `StandardModel` and both serializers read
the target's cached context, so a target decided, written and reloaded
in one process is analysed, printed and given its closure table once.
`extend_maximal_consistent` reads the engine of the context it is given
and adds no entry to the cache.

Serialization: a certificate is a model document plus the target as
text, its closure as shared terms written from `syntax.closure_steps`,
the witness, and each world's mask in hex. The writer reads the model
part off `rel` and the masks' atom bits, and the printed target and the
closure table off the context, where each is built once. The loader
checks the model part's shape with `kripke.model_from_json`, which
builds a short-lived Kripke `Model` of which the loader keeps only the
relation and the valuation; it parses the target only, builds mask
worlds and compares `val` with the masks' atom bits as ints. The writer
builds no Kripke model, and `StandardModel` builds one only through
`to_model()`, when a caller asks. A verdict and a certificate's round
trip build neither the signed closure nor `pairs`, and in a fresh
process the round trip builds no engine either.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import lru_cache
from itertools import compress
from types import MappingProxyType
from typing import NamedTuple

from . import certcheck, kripke
from .kripke import Frame, Model, _bits, _cached_field
from .limits import SizeGuardError
from .syntax import (
    Atom,
    Box,
    Formula,
    Not,
    _CONSTANT_NAMES,
    canonical_order,
    closure_steps,
    conjlist,
    parse,
    print_formula,
    subformulas,
)

MAX_DECISION_BITS = 16
# A mask as `certificate_to_json` writes it, f"{mask:x}" for a mask >= 0.
_MASK = re.compile("0|[1-9a-f][0-9a-f]*")

# Records set their fields past their own refusing __setattr__.
_set = object.__setattr__


class ClosureContext:
    """The analysis of one target, built from the target alone: its
    subformula closure and its decision formulas (the members whose
    truth value is free: atoms and boxed formulas; all other members are
    determined by them). The signed closure, `pairs` and the engine are
    built on first use; deciding reads neither of the first two.
    Immutable; two contexts are equal iff they have the same target. A
    target that is not a Formula raises TypeError."""

    def __init__(self, target: Formula):
        if not isinstance(target, Formula):
            raise TypeError(f"target must be a Formula, not {type(target).__name__}")
        closure = subformulas(target)
        _set(self, "target", target)
        _set(self, "closure", closure)
        _set(self, "decisions", tuple(q for q in closure if isinstance(q, (Atom, Box))))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.target is other.target

    def __hash__(self):
        return hash(self.target)

    def __repr__(self):
        return f"ClosureContext({self.target!r})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"closure contexts are immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    @_cached_field
    def signed_closure(self) -> tuple[Formula, ...]:
        """The subformulas of the target and their negations, in canonical
        order; a negation that is itself a subformula is listed once."""
        closure = self.closure
        return canonical_order((*closure, *map(Not, closure)))

    @_cached_field
    def pairs(self) -> tuple[tuple[int, bool], ...]:
        """Each signed member's closure index i and polarity: the member is
        closure[i] when the polarity is True and Not closure[i] when it
        is False. A member that is in the closure is read positively."""
        index = {q: i for i, q in enumerate(self.closure)}
        return tuple(
            (index[s], True) if s in index else (index[s.arg], False)
            for s in self.signed_closure
        )

    @_cached_field
    def engine(self) -> _Engine:
        return _Engine(self)

    @_cached_field
    def target_text(self) -> str:
        """The target as `print_formula` prints it, for the writer."""
        return print_formula(self.target)

    @_cached_field
    def atom_positions(self) -> tuple[tuple[str, int], ...]:
        """Each closure atom's name and closure position, by name."""
        return tuple(sorted((g.name, j) for j, g in enumerate(self.closure) if type(g) is Atom))

    @_cached_field
    def closure_terms(self) -> list:
        """The closure as the shared terms of a certificate document: an
        atom's name, True, False, or a tag and its children's closure
        positions. The loader compares a document's closure with it, and
        the writer gives each document a copy, so it is never changed."""
        return [
            a if cls is Atom
            else _CONSTANT_NAMES[cls] if a is None
            else [cls.__name__, a] if b is None
            else [cls.__name__, a, b]
            for cls, a, b in closure_steps(self.target)
        ]

    def world(self, mask: int) -> World:
        """The world holding closure formula i iff bit i of mask is set."""
        w = World.__new__(World)
        _set(w, "context", self)
        _set(w, "_mask", mask)
        return w


@lru_cache(maxsize=16)
def closure_context(target: Formula) -> ClosureContext:
    """The closure context of target, from the module's one cache, so a
    target decided, written and reloaded in one process has its closure
    worked out once while it stays among the 16 most recent targets.
    Formulas are interned, so the key hashes in constant time."""
    return ClosureContext(target)


class World:
    """A world of a target: its closure mask, whose bit i is set iff
    closure formula i holds. It keeps the target's closure context and
    derives `members` on first read. `World(target, members)` takes the
    members in canonical order, one signed member per closure formula,
    and raises ValueError for any other list. Immutable; two worlds are
    equal iff they have the same target and the same mask."""

    def __init__(self, target: Formula, members: Sequence[Formula]):
        ctx, members = closure_context(target), tuple(members)
        held = frozenset(members)
        _set(self, "context", ctx)
        _set(self, "_mask", sum(1 << i for i, q in enumerate(ctx.closure) if q in held))
        if self.members != members:
            raise ValueError("not one signed member per closure formula, in canonical order")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.context.target is other.context.target and self._mask == other._mask

    def __hash__(self):
        return hash((self.context.target, self._mask))

    def __repr__(self):
        return f"World({self.context.target!r}, {self.members!r})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"worlds are immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    @_cached_field
    def members(self) -> tuple[Formula, ...]:
        ctx, mask = self.context, self._mask
        keep = [(mask >> i & 1) == positive for i, positive in ctx.pairs]
        return tuple(compress(ctx.signed_closure, keep))

    @_cached_field
    def member_set(self) -> frozenset[Formula]:
        return frozenset(self.members)

    def __contains__(self, f: Formula) -> bool:
        return f in self.member_set


class _Engine:
    """Truth table and saturated set of one target's closure context.

    A world is its decision assignment b: bit b of `truth[i]` is the
    truth of closure member i under b, and bit b of `saturated` says
    whether that world is saturated. The engine reads the context's
    closure and decisions only, never the signed closure.
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
        steps = closure_steps(ctx.target)
        self.truth = truth = kripke._run(steps, atom_cell, full, lambda _: next(box_cells))
        self.context = ctx
        # Per box: its decision dimension, then the worlds holding Box q,
        # those holding Box q and q (where a box of the current world
        # carries on), and those holding Box q and Not q (where an
        # obligation Not (Box q) is met). The steps follow ctx.closure, and
        # a Box step's first operand is the closure index of its body.
        self.boxes = []
        dim = 0
        for i, q in enumerate(ctx.closure):
            if isinstance(q, Box):
                has, arg = truth[i], truth[steps[i][1]]
                self.boxes.append((dim, has, has & arg, has & ~arg))
            dim += isinstance(q, (Atom, Box))
        self.saturated = self._saturate()

    def _saturate(self) -> int:
        """The saturated worlds, from one depth-first walk over the box
        patterns (bit j set iff box j is held) in decreasing numeric
        order: from the last box to the first, "box j held" before "box
        j not held". A strict superset of a pattern is numerically larger,
        so it is settled first. Down the levels, `keep` is the AND of
        `carry` over the boxes held so far, `here` the worlds with the
        pattern so far, and `met` holds, per box not held, the saturated
        worlds meeting its obligation; a pattern is saturated when `keep`
        meets each of them."""
        full = self.full
        levels = [(has, full ^ has, carry, need) for _, has, carry, need in self.boxes]
        if not levels:
            return full
        sat = 0

        def walk(j: int, keep: int, here: int, met: tuple[int, ...]) -> None:
            nonlocal sat
            has, lacks, carry, need = levels[j]
            # Box j held: keep narrows, and every pattern below has a keep
            # inside the narrowed one, so an obligation it now misses
            # fails the whole subtree.
            held = keep & carry
            for m in met:
                if not held & m:
                    break
            else:
                if j:
                    walk(j - 1, held, here & has, met)
                else:
                    sat |= here & has
            # Box j not held. Only worlds holding box j meet need, and
            # within keep they also hold every box held so far: their
            # patterns are strict supersets of every pattern below, all
            # settled now that the held branch has run. So keep & need &
            # sat is final, keep only shrinks below, and when it is
            # already 0 no pattern of the subtree is saturated.
            m = need & sat
            if keep & m:
                if j:
                    walk(j - 1, keep, here & lacks, (*met, m))
                else:
                    sat |= here & lacks

        walk(len(levels) - 1, full, full, ())
        return sat

    def first(self, candidates: int) -> int:
        """The canonically first world of a nonempty set of worlds: the
        walk goes through the closure in order and keeps the candidates
        holding each formula whenever some do (see `_canonical_key`),
        until one is left."""
        for t in self.truth:
            narrowed = candidates & t
            if narrowed:
                candidates = narrowed
                if not candidates & (candidates - 1):
                    break
        return candidates.bit_length() - 1

    def mask(self, b: int) -> int:
        """The closure mask of world b."""
        return sum((t >> b & 1) << i for i, t in enumerate(self.truth))

    def world(self, b: int) -> World:
        return self.context.world(self.mask(b))


def _canonical_key(w: World) -> str:
    """Sorts the worlds of one target in canonical order. Two worlds
    compare as their member lists do, so the first signed member that
    one holds and the other lacks decides, and the world holding it comes
    first. A closure formula comes before its negation, and the closure
    formulas come in canonical order, so that member is the closure
    formula of lowest index where the masks differ. The key is the
    mask's complement as binary digits from bit 0 up: a held formula
    reads "0" and sorts first."""
    n = len(w.context.closure)
    return f"{((1 << n) - 1) ^ w._mask:0{n}b}"[::-1]


def hintikka_worlds(ctx: ClosureContext) -> tuple[World, ...]:
    """Every world over the signed closure, in canonical order."""
    worlds = map(ctx.engine.world, range(1 << len(ctx.decisions)))
    return tuple(sorted(worlds, key=_canonical_key))


def standard_rel(ctx: ClosureContext, w: World, x: World) -> bool:
    """Syntactic accessibility: boxes propagate forward into x (with their
    bodies) and some box is newly asserted in x against w. w and x must
    be worlds of ctx's target (ValueError otherwise)."""
    if w.context.target is not ctx.target or x.context.target is not ctx.target:
        raise ValueError("not a world of this context")
    xs = x.member_set
    for f in w.members:
        if isinstance(f, Box) and (f not in xs or f.arg not in xs):
            return False
    ws = w.member_set
    return any(isinstance(f, Box) and Not(f) in ws for f in x.members)


def saturate(ctx: ClosureContext, w: World) -> bool:
    """GL-satisfiability of a world: every negated box has a successor
    witness that is itself saturated."""
    eng = ctx.engine
    if w.context.target is not ctx.target:
        raise ValueError("not a world of this context")
    dims = [i for i, q in enumerate(ctx.closure) if isinstance(q, (Atom, Box))]
    b = sum((w._mask >> i & 1) << j for j, i in enumerate(dims))
    if eng.mask(b) != w._mask:
        raise ValueError("not a Hintikka world of this context")
    return bool(eng.saturated >> b & 1)


# ---------------------------------------------------------------------------
# Verdicts and certificates


class StandardModel:
    """Countermodel carrier: saturated worlds, the standard relation as
    index pairs into `worlds`, membership valuation left implicit. It
    keeps `context`, its target's cached closure context, found when it
    is built, and the closure mask of each world, which must be a world
    of target (ValueError otherwise). Immutable; equality, hash and repr
    leave out `context` and the model that `to_model` builds on request
    and keeps."""

    def __init__(self, target: Formula, worlds: tuple[World, ...], rel: tuple[tuple[int, int], ...]):
        if any(w.context.target is not target for w in worlds):
            raise ValueError("a world of another target")
        _set(self, "target", target)
        _set(self, "worlds", worlds)
        _set(self, "rel", rel)
        _set(self, "context", closure_context(target))
        _set(self, "_masks", tuple(w._mask for w in worlds))
        _set(self, "_model", None)

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
        """The Kripke model: world i is worlds[i], the frame is `rel`, and
        each closure atom holds where its mask bit is set. Built on the
        first call and kept, so its valuation is a read-only mapping.
        Nothing in deciding, writing, loading or verifying calls it."""
        if self._model is None:
            masks = self._masks
            val = {
                a: frozenset(i for i, x in enumerate(masks) if x >> j & 1)
                for a, j in self.context.atom_positions
            }
            frame = Frame(frozenset(range(len(masks))), frozenset(self.rel))
            _set(self, "_model", Model(frame, MappingProxyType(val)))
        return self._model


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
    the saturated set from one depth-first walk over the box patterns,
    in decreasing numeric order, that skips each subtree in which an
    obligation is already unmet. f is a theorem iff no saturated world
    refutes it. Otherwise the witness is the canonically first saturated
    refuting world, and the certificate is the submodel it selects: from
    the witness on, each emitted world x gets, for each Not (Box q) it
    holds, its canonically first saturated standard successor holding
    Box q and Not q. The worlds are listed in canonical order, read off
    their masks, and related by the transitive closure of those selected
    edges. Neither verdict builds the context's `pairs`."""
    eng = closure_context(f).engine
    refuting = eng.saturated & ~eng.truth[-1]
    if not refuting:
        return Theorem(f)
    w = eng.first(refuting)
    selected, todo = {}, [w]
    while todo:
        x = todo.pop()
        if x in selected:
            continue
        keep, needs = eng.saturated, []
        for i, _, carry, need in eng.boxes:
            if x >> i & 1:
                keep &= carry
            else:
                needs.append(need)
        selected[x] = ys = {eng.first(keep & need) for need in needs}
        todo += ys
    worlds = {x: eng.world(x) for x in selected}
    order = sorted(selected, key=lambda x: _canonical_key(worlds[x]))
    index = {b: i for i, b in enumerate(order)}
    # A successor holds strictly more boxes, so by decreasing box count
    # every world comes after its successors and their reach is known.
    boxes = sum(1 << i for i, *_ in eng.boxes)
    reach = {}
    for x in sorted(selected, key=lambda b: (b & boxes).bit_count(), reverse=True):
        r = 0
        for y in selected[x]:
            r |= reach[y] | 1 << index[y]
        reach[x] = r
    rel = tuple((index[x], j) for x in order for j in _bits(reach[x]))
    return Countermodel(StandardModel(f, tuple(worlds[x] for x in order), rel), worlds[w])


def certificate_problem(v: Countermodel) -> str | None:
    """Why v's certificate fails the re-check, or None when it passes:
    `certcheck.problem` on the closure table, the masks, the relation and
    the witness's index (None when the witness is no world of the model).
    The reason names the failing world and closure position."""
    if not isinstance(v, Countermodel):
        raise TypeError("only countermodel verdicts carry a certificate")
    sm = v.model
    try:
        witness = sm.worlds.index(v.witness)
    except ValueError:
        witness = None
    return certcheck.problem(sm.context.closure_terms, sm._masks, sm.rel, witness)


def verify_certificate(v: Countermodel) -> bool:
    """Whether v's certificate passes the re-check of `certificate_problem`."""
    return certificate_problem(v) is None


def consistent(fs: Sequence[Formula]) -> bool:
    """No refutation of the conjunction: the negated conjlist is not a
    theorem, equivalently the list is satisfiable on an ITF model."""
    return not isinstance(decide(Not(conjlist(list(fs)))), Theorem)


def extend_maximal_consistent(ctx: ClosureContext, xs: Iterable[Formula]) -> World:
    """Extend a consistent seed from the signed closure to a full world.

    A list of signed closure members is consistent iff some saturated
    world holds all of it, by the truth lemma that `decide` rests on. So
    the result is the canonically first saturated world holding the
    seed: the completion that walks the closure in canonical order,
    keeping q while the list stays consistent and otherwise taking Not q.
    A seed member outside the signed closure, then repetitions, then an
    inconsistent seed raise ValueError; a context past the decision-bit
    limit raises SizeGuardError.
    """
    seed = list(xs)
    column = dict(zip(ctx.signed_closure, ctx.pairs))
    for f in seed:
        if f not in column:
            raise ValueError(f"seed member outside the signed closure: {print_formula(f)}")
    if len(set(seed)) != len(seed):
        raise ValueError("seed contains repetitions")
    eng = ctx.engine
    held = eng.saturated
    for i, positive in map(column.get, seed):
        held &= eng.truth[i] if positive else eng.full ^ eng.truth[i]
    if not held:
        raise ValueError("seed list is inconsistent")
    return eng.world(eng.first(held))


# ---------------------------------------------------------------------------
# Certificate serialization


def certificate_to_json(v: Countermodel) -> dict:
    """A model document plus `target`, `closure` (as shared terms), `witness`
    and `world_truth`: per world, a hex mask whose bit i is set iff closure
    formula i is a member. World i is named wi, and the model part is what
    `kripke.model_to_json` writes for `to_model()`, read off `rel` and the
    masks' atom bits. A witness outside the model raises ValueError."""
    sm = v.model
    ctx, masks = sm.context, sm._masks
    try:
        witness = sm.worlds.index(v.witness)
    except ValueError:
        raise ValueError("certificate witness is not a world of the model") from None
    n = len(masks)
    names = [f"w{i}" for i in range(n)]
    val = {}
    for a, j in ctx.atom_positions:
        if held := [nm for nm, x in zip(names, masks) if x >> j & 1]:
            val[a] = held
    return {
        "worlds": names,
        # Sorted by name, as model_to_json sorts them: w10 before w2.
        "rel": sorted([names[x], names[y]] for x, y in {*sm.rel} if 0 <= x < n and 0 <= y < n),
        "val": val,
        "target": ctx.target_text,
        "closure": [t.copy() if type(t) is list else t for t in ctx.closure_terms],
        "witness": names[witness],
        "world_truth": {nm: f"{x:x}" for nm, x in zip(names, masks)},
    }


def certificate_from_json(doc: Mapping) -> Countermodel:
    """Load a certificate as `certificate_to_json` writes it. `closure`
    is compared with the parsed target's `closure_terms`, not parsed.
    A document of the wrong shape raises ValueError naming the bad field."""
    return _certificate_from_json(doc, parse)


def _certificate_from_json(doc: Mapping, read: Callable[[str], Formula]) -> Countermodel:
    """`certificate_from_json` with `read` in place of `parse` for the
    target, its one parse, so a caller can bound the formula there."""
    m, names = kripke.model_from_json(doc)
    target, witness, closure, truth = (
        doc.get(key) for key in ("target", "witness", "closure", "world_truth")
    )
    if not isinstance(target, str):
        raise ValueError("certificate field 'target': expected a formula string")
    if not isinstance(witness, str):
        raise ValueError("certificate field 'witness': expected a world name")
    if not isinstance(truth, Mapping):
        raise ValueError("certificate field 'world_truth': expected an object of hex masks")
    f = read(target)
    ctx = closure_context(f)
    # An equal table may still hold true or 1.0 for a position.
    if closure != ctx.closure_terms or any(
        type(c) is not int for t in closure if type(t) is list for c in t[1:]
    ):
        raise ValueError("certificate field 'closure': not the target's closure as shared terms")
    n, worlds = len(closure), []
    for nm in names:
        s = truth.get(nm)
        if not (type(s) is str and _MASK.fullmatch(s)) or (x := int(s, 16)) >> n:
            raise ValueError(
                f"certificate field 'world_truth': world {nm!r} needs a lowercase hex "
                f"mask with no prefix, below 2**{n}; got {s!r:.40}"
            )
        worlds.append(ctx.world(x))
    if len(truth) > len(names):
        extra = next(nm for nm in truth if nm not in names)
        raise ValueError(f"certificate field 'world_truth': undeclared world {extra!r}")
    sm = StandardModel(f, tuple(worlds), tuple(sorted(m.frame.rel)))
    # Each atom's worlds as an int, from the document and from the masks.
    column = dict(ctx.atom_positions)
    for a in sorted(m.val.keys() | column):
        j = column.get(a)
        held = 0 if j is None else sum(1 << i for i, w in enumerate(worlds) if w._mask >> j & 1)
        if held != sum(1 << i for i in m.val.get(a, ())):
            raise ValueError(
                f"valuation of {a!r} disagrees with the world contents"
            )
    if witness not in names:
        raise ValueError(f"undeclared witness world: {witness!r}")
    return Countermodel(sm, worlds[names.index(witness)])
