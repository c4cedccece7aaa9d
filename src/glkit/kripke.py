"""Finite explicit Kripke models: forcing, frame predicates, validity oracles.

Frames are plain (worlds, relation) pairs over small integer world ids.
A frame's edges are the pairs of `rel` between declared worlds; other
pairs are reported by `relation_well_typed` and ignored everywhere else.
The evaluator, the frame predicates and the Lob test read one view of
the edges: the declared worlds in sorted order, each with the bit mask
of its successors. The writers and `relabel` list the edges themselves.
Validity on a frame quantifies over every valuation of the formula's
atoms, so it is an exhaustive oracle and deliberately desk-scale only.
Well-foundedness of the converse relation, undecidable in general, is
replaced by acyclicity, which is equivalent on finite carriers.

One bottom-up evaluator serves models and frames alike: it runs the
formula's closure program (`syntax.closure_steps`, kept on the formula's
node) to compute the truth set of every subformula as a bit mask, and
sweeps a frame's valuations 2**12 at a time. Nothing here is kept per
formula.

The ITF oracle `itf_valid_small(f, n)` sweeps the rooted ITF frames of at
most n worlds, one of each shape, rather than every labelled ITF frame. A
formula is valid on a frame iff it is valid on each of the frame's
point-generated subframes (Blackburn, de Rijke & Venema, *Modal Logic*,
2001, Thm 3.14), each such subframe of an ITF frame is a rooted ITF frame
with no more worlds, and validity is invariant under isomorphism. So the
4 rooted shapes of at most 3 worlds (9 of at most 4) decide what the 23
labelled ITF frames of at most 3 worlds (242 of at most 4) decide.

`model_from_json` wraps `certcheck.read_model`, so model documents and
certificates have their shape checked in one place.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

from .limits import SizeGuardError
from .syntax import (
    And,
    Atom,
    Box,
    Formula,
    Iff,
    Imp,
    Not,
    Or,
    Truth,
    _Record,
    _cached_field,
    _set,
    closure_steps,
    parse,
)

# Single-atom instance of the Lob schema; schema validity on a frame is
# equivalent to validity of this instance over all valuations.
LOB_INSTANCE = parse("Box (Box p --> p) --> Box p")


class _Layout(NamedTuple):
    """A frame's worlds in sorted order; a world's position is its bit."""

    bit: dict[int, int]  # world id -> 1 << position, in sorted order
    succ: tuple[tuple[int, ...], ...]  # successor positions, per position
    box_masks: tuple[tuple[int, int], ...]  # (successor mask, own bit), per position


class Frame(_Record):
    """Worlds and the relation over them. Immutable; equal worlds and
    relation make equal frames."""

    _fields = ("worlds", "rel")

    def __init__(self, worlds: frozenset[int], rel: frozenset[tuple[int, int]]):
        _set(self, "worlds", worlds)
        _set(self, "rel", rel)

    @_cached_field
    def _layout(self) -> _Layout:
        bit = {w: 1 << i for i, w in enumerate(sorted(self.worlds))}
        succ = dict.fromkeys(bit, 0)
        for x, y in _edges(self):
            succ[x] |= bit[y]
        masks = tuple(succ.values())
        return _Layout(bit, tuple(tuple(_bits(s)) for s in masks), tuple(zip(masks, bit.values())))


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _edges(fr: Frame) -> Iterator[tuple[int, int]]:
    """The frame's edges: the pairs of fr.rel between declared worlds."""
    ws = fr.worlds
    return ((x, y) for x, y in fr.rel if x in ws and y in ws)


class Model(NamedTuple):
    frame: Frame
    val: Mapping[str, frozenset[int]]


class FrameReport(NamedTuple):
    nonempty: bool
    relation_well_typed: bool
    finite: bool
    irreflexive: bool
    transitive: bool
    acyclic: bool
    validates_lob: bool


# ---------------------------------------------------------------------------
# Evaluation
#
# The program of a formula is `closure_steps(f)`, kept on its node, which
# lists children before parents. Running it yields the truth of every
# subformula as one int over a block of V valuations x n worlds,
# world-major: bit w*V + v is the truth at world position w under
# valuation v of the block. A model is the case V = 1.

# A frame sweep evaluates 2**_BLOCK_BITS valuations per program run.
_BLOCK_BITS = 12


def _run(steps: tuple[tuple, ...], leaves: Mapping[str, int], full: int, box) -> list[int]:
    """Truth of every step; `leaves` maps each atom's name to its truth,
    `box` maps the truth of q to the truth of Box q."""
    vals: list[int] = []
    push = vals.append
    for cls, a, b in steps:
        if cls is Atom:
            push(leaves[a])
        elif cls is Not:
            push(full ^ vals[a])
        elif cls is And:
            push(vals[a] & vals[b])
        elif cls is Or:
            push(vals[a] | vals[b])
        elif cls is Imp:
            push((full ^ vals[a]) | vals[b])
        elif cls is Iff:
            push(full ^ vals[a] ^ vals[b])
        elif cls is Box:
            push(box(vals[a]))
        elif cls is Truth:
            push(full)
        else:
            push(0)
    return vals


def _model_masks(m: Model, f: Formula) -> list[int]:
    """Truth masks over world positions for every formula of subformulas(f)."""
    steps = closure_steps(f)
    lay = m.frame._layout
    leaves = {
        a: sum(map(lay.bit.get, m.val.get(a, ()), repeat(0))) for cls, a, _ in steps if cls is Atom
    }
    box_masks = lay.box_masks

    def box(x: int) -> int:
        r = 0
        for s, b in box_masks:
            if s & x == s:
                r |= b
        return r

    return _run(steps, leaves, (1 << len(lay.bit)) - 1, box)


def _worlds(lay: _Layout, mask: int) -> frozenset[int]:
    return frozenset(w for w, b in lay.bit.items() if mask & b)


def extension(m: Model, f: Formula) -> frozenset[int]:
    """The worlds of m at which f holds."""
    return _worlds(m.frame._layout, _model_masks(m, f)[-1])


def extensions(m: Model, f: Formula) -> tuple[frozenset[int], ...]:
    """extension(m, g) for every g in subformulas(f), in that order, from
    one evaluation pass."""
    lay = m.frame._layout
    return tuple(_worlds(lay, x) for x in _model_masks(m, f))


def holds(m: Model, f: Formula, w: int) -> bool:
    """Forcing: truth of f at world w."""
    b = m.frame._layout.bit.get(w)
    if b is None:
        raise ValueError(f"unknown world id: {w}")
    return bool(_model_masks(m, f)[-1] & b)


def holds_in(m: Model, f: Formula) -> bool:
    """f holds at every world of the model (valuation fixed)."""
    return _model_masks(m, f)[-1] == (1 << len(m.frame.worlds)) - 1


@lru_cache(maxsize=_BLOCK_BITS + 1)
def _cell_patterns(low: int) -> tuple[int, ...]:
    """For c < low, the 2**low-bit int whose bit v is bit c of v."""
    ones = (1 << (1 << low)) - 1
    return tuple(
        ones // ((1 << (2 << c)) - 1) * (((1 << (1 << c)) - 1) << (1 << c))
        for c in range(low)
    )


def valid_on_frame(fr: Frame, f: Formula) -> bool:
    """f holds at every world under every valuation of its atoms."""
    steps = closure_steps(f)
    names = sorted(a for cls, a, _ in steps if cls is Atom)
    lay = fr._layout
    n = len(lay.bit)
    cells = len(names) * n
    if cells > 24:
        raise SizeGuardError(
            f"{len(names)} atoms x {n} worlds exceeds the valuation sweep limit"
        )
    # Cell c = a*n + w is the a-th atom in name order at world position
    # w. A valuation is a bit vector over cells: the low cells vary
    # inside a block, the others are fixed by the block number.
    low = min(cells, _BLOCK_BITS)
    width = 1 << low  # V, the valuations in one block
    vmask = (1 << width) - 1
    full = (1 << (n * width)) - 1
    base = dict.fromkeys(names, 0)
    for c, pattern in enumerate(_cell_patterns(low)):
        a, w = divmod(c, n)
        base[names[a]] |= pattern << (w * width)
    high = []
    for c in range(low, cells):
        a, w = divmod(c, n)
        high.append((c - low, names[a], vmask << (w * width)))
    succ = lay.succ

    def box(x: int) -> int:
        slices = [x >> (j * width) & vmask for j in range(n)]
        r = 0
        for i, js in enumerate(succ):
            acc = vmask
            for j in js:
                acc &= slices[j]
            r |= acc << (i * width)
        return r

    for block in range(1 << (cells - low)):
        leaves = base.copy()
        for bit, a, cell in high:
            if block >> bit & 1:
                leaves[a] |= cell
        if _run(steps, leaves, full, box)[-1] != full:
            return False
    return True


def relation_well_typed(fr: Frame) -> bool:
    return all(x in fr.worlds and y in fr.worlds for x, y in fr.rel)


def irreflexive(fr: Frame) -> bool:
    """No world is its own successor."""
    return not any(s & b for s, b in fr._layout.box_masks)


def transitive(fr: Frame) -> bool:
    """The successors of each world's successors are its successors."""
    succ = [s for s, _ in fr._layout.box_masks]
    return all(not succ[j] & ~s for s in succ for j in _bits(s))


def acyclic(fr: Frame) -> bool:
    """No world reaches itself: Warshall's closure over the successor
    masks, sharing nothing with the Lob test's deletion."""
    reach = [s for s, _ in fr._layout.box_masks]
    for k, rk in enumerate(reach):
        for i, ri in enumerate(reach):
            if ri >> k & 1:
                reach[i] = ri | rk
    return not any(r & b for r, (_, b) in zip(reach, fr._layout.box_masks))


def is_itf(fr: Frame) -> bool:
    """Nonempty, well-typed, finite, irreflexive, transitive."""
    return (
        bool(fr.worlds)
        and relation_well_typed(fr)
        and irreflexive(fr)
        and transitive(fr)
    )


def _validates_lob(fr: Frame) -> bool:
    """valid_on_frame(fr, LOB_INSTANCE) without a sweep: it fails at w iff
    some S (where p is false) meets R(w) and each world of S in R(w) has a
    successor in S. Deleting from all worlds each world of R(w) with no
    successor left, until none is, leaves the greatest such S. A world
    goes only after all its successors, so none that reaches a cycle ever
    goes; the others are peeled once, each when its last successor goes,
    and one pass per w in that order deletes them however the worlds are
    listed."""
    lay = fr._layout
    left = [len(js) for js in lay.succ]  # successors not yet peeled
    preds: list[list[int]] = [[] for _ in left]
    for i, js in enumerate(lay.succ):
        for j in js:
            preds[j].append(i)
    peeled = [i for i, k in enumerate(left) if not k]
    for j in peeled:  # grows while it is walked
        for i in preds[j]:
            left[i] -= 1
            if not left[i]:
                peeled.append(i)
    masks = lay.box_masks  # (successor mask, own bit) per world
    order = [masks[i] for i in peeled]
    for r, _ in masks:
        alive = -1
        for s, b in order:
            if r & b and not s & alive:
                alive ^= b
                if not alive & r:
                    break
        if alive & r:
            return False
    return True


def frame_report(fr: Frame) -> FrameReport:
    """All frame predicates at once, at any size; explicit frames are finite."""
    return FrameReport(
        nonempty=bool(fr.worlds),
        relation_well_typed=relation_well_typed(fr),
        finite=True,
        irreflexive=irreflexive(fr),
        transitive=transitive(fr),
        acyclic=acyclic(fr),
        validates_lob=_validates_lob(fr),
    )


def enumerate_frames(n: int) -> Iterator[Frame]:
    """All frames on worlds {0..k-1} for k = 1..n, every relation included.

    Deterministic order: k ascending, then the relation read as a bit
    mask over pairs (i, j) indexed by i*k + j.
    """
    if not 1 <= n <= 4:
        raise SizeGuardError(f"frame enumeration supports 1 <= n <= 4, got {n}")
    for k in range(1, n + 1):
        worlds = frozenset(range(k))
        pairs = [(i, j) for i in range(k) for j in range(k)]
        for mask in range(1 << len(pairs)):
            yield Frame(worlds, frozenset(p for b, p in enumerate(pairs) if mask >> b & 1))


# Every rooted ITF frame of at most 4 worlds up to isomorphism, root 0,
# listed by size: a 4-world frame is the root below the strict partial
# order on {1, 2, 3} that its edge list names after the root's edges.
_ROOT_EDGES = ((0, 1), (0, 2), (0, 3))
_ROOTED_ITF = tuple(
    Frame(frozenset(range(k)), frozenset(edges))
    for k, edges in (
        (1, ()),  # the point
        (2, ((0, 1),)),  # the 2-chain
        (3, ((0, 1), (0, 2))),  # the fork
        (3, ((0, 1), (0, 2), (1, 2))),  # the 3-chain
        (4, _ROOT_EDGES),  # antichain
        (4, (*_ROOT_EDGES, (1, 2))),  # one edge
        (4, (*_ROOT_EDGES, (1, 2), (1, 3))),  # V
        (4, (*_ROOT_EDGES, (1, 3), (2, 3))),  # Lambda
        (4, (*_ROOT_EDGES, (1, 2), (1, 3), (2, 3))),  # chain
    )
)
# _ROOTED_ITF[:_ROOTED_UP_TO[n]] are the frames of at most n worlds.
_ROOTED_UP_TO = tuple(sum(len(fr.worlds) <= n for fr in _ROOTED_ITF) for n in range(5))


def itf_valid_small(f: Formula, n: int) -> bool:
    """Validity over every ITF frame with at most n worlds (n <= 4).

    A necessary condition for theoremhood by soundness; exhaustive, so
    usable as an independent oracle. It sweeps one rooted frame of each
    shape, smallest first (see the module docstring).
    """
    if not 1 <= n <= 4:
        raise SizeGuardError(f"ITF validity oracle supports 1 <= n <= 4, got {n}")
    return all(valid_on_frame(fr, f) for fr in _ROOTED_ITF[: _ROOTED_UP_TO[n]])


# ---------------------------------------------------------------------------
# Serialization and inspection


def model_to_json(m: Model, names: Mapping[int, str] | None = None) -> dict:
    """The document `model_from_json` reads, naming declared worlds only."""
    ws = sorted(m.frame.worlds)
    name = {w: (names[w] if names else f"w{w}") for w in ws}
    val = {a: [name[w] for w in sorted(s) if w in name] for a, s in sorted(m.val.items())}
    return {
        "worlds": [name[w] for w in ws],
        "rel": sorted([name[x], name[y]] for x, y in _edges(m.frame)),
        "val": {a: v for a, v in val.items() if v},
    }


def model_from_json(doc: Mapping) -> tuple[Model, tuple[str, ...]]:
    """Load a model, mapping world names to ids 0..n-1 in listing order.

    Returns the model and the name table (index = world id). A document
    of the wrong shape raises ValueError naming the bad field.
    """
    from . import certcheck  # loaded with the first document, not for the oracles

    names, rel, val = certcheck.read_model(doc)
    return Model(Frame(frozenset(range(len(names))), rel), val), tuple(names)


def _dot_id(text: str) -> str:
    """text as a quoted DOT ID, with its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def frame_to_dot(fr: Frame, names: Mapping[int, str] | None = None) -> str:
    name = {w: _dot_id(names[w] if names else f"w{w}") for w in fr.worlds}
    lines = ["digraph frame {"]
    for w in sorted(fr.worlds):
        lines.append(f"  {name[w]};")
    for x, y in sorted(_edges(fr)):
        lines.append(f"  {name[x]} -> {name[y]};")
    lines.append("}")
    return "\n".join(lines)


def model_to_dot(m: Model, names: Mapping[int, str] | None = None) -> str:
    name = {w: (names[w] if names else f"w{w}") for w in m.frame.worlds}
    lines = ["digraph model {"]
    for w in sorted(m.frame.worlds):
        true_atoms = sorted(a for a, s in m.val.items() if w in s)
        label = name[w] + (": " + " ".join(true_atoms) if true_atoms else "")
        lines.append(f"  {_dot_id(name[w])} [label={_dot_id(label)}];")
    for x, y in sorted(_edges(m.frame)):
        lines.append(f"  {_dot_id(name[x])} -> {_dot_id(name[y])};")
    lines.append("}")
    return "\n".join(lines)


def relabel(m: Model, mapping: Mapping[int, int]) -> Model:
    """Rename worlds through an injective id map. Relation pairs and
    valuation entries naming undeclared worlds are dropped."""
    if len(set(mapping.values())) != len(m.frame.worlds) or set(mapping) != set(
        m.frame.worlds
    ):
        raise ValueError("relabeling must be injective and total on the worlds")
    fr = Frame(
        frozenset(mapping[w] for w in m.frame.worlds),
        frozenset((mapping[x], mapping[y]) for x, y in _edges(m.frame)),
    )
    return Model(
        fr, {a: frozenset(mapping[w] for w in s if w in mapping) for a, s in m.val.items()}
    )
