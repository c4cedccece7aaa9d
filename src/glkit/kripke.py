"""Finite explicit Kripke models: forcing, frame predicates, validity oracles.

Frames are plain (worlds, relation) pairs over small integer world ids.
Validity on a frame quantifies over every valuation of the formula's
atoms, so it is an exhaustive oracle and deliberately desk-scale only.
Well-foundedness of the converse relation, undecidable in general, is
replaced by acyclicity, which is equivalent on finite carriers.

One bottom-up evaluator serves models and frames alike: it computes the
truth set of every subformula as a bit mask, and sweeps a frame's
valuations 2**12 at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Iterator, Mapping, NamedTuple

from .limits import SizeGuardError
from .syntax import (
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
    children,
    parse,
    subformulas,
)

# Single-atom instance of the Lob schema; schema validity on a frame is
# equivalent to validity of this instance over all valuations.
LOB_INSTANCE = parse("Box (Box p --> p) --> Box p")


class _Layout(NamedTuple):
    """A frame's worlds in sorted order; a world's position is its bit."""

    bit: dict[int, int]  # world id -> 1 << position, in sorted order
    succ: tuple[tuple[int, ...], ...]  # successor positions, per position
    box_masks: tuple[tuple[int, int], ...]  # (successor mask, own bit), per position


@dataclass(frozen=True)
class Frame:
    worlds: frozenset[int]
    rel: frozenset[tuple[int, int]]

    @cached_property
    def _layout(self) -> _Layout:
        # Pairs naming an undeclared world are not edges of the frame.
        index = {w: i for i, w in enumerate(sorted(self.worlds))}
        succ: list[list[int]] = [[] for _ in index]
        for x, y in self.rel:
            if x in index and y in index:
                succ[index[x]].append(index[y])
        succ_t = tuple(tuple(sorted(s)) for s in succ)
        return _Layout(
            {w: 1 << i for w, i in index.items()},
            succ_t,
            tuple((sum(1 << j for j in s), 1 << i) for i, s in enumerate(succ_t)),
        )


@dataclass(frozen=True, eq=True)
class Model:
    frame: Frame
    val: Mapping[str, frozenset[int]]


@dataclass(frozen=True)
class FrameReport:
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
# A formula is compiled once into a program over subformulas(f), which
# lists children before parents. Running the program yields the truth of
# every subformula as one int over a block of V valuations x n worlds,
# world-major: bit w*V + v is the truth at world position w under
# valuation v of the block. A model is the case V = 1.

_FALSE, _TRUE, _ATOM, _NOT, _AND, _OR, _IMP, _IFF, _BOX = range(9)
_OPS = {
    Falsity: _FALSE, Truth: _TRUE, Atom: _ATOM, Not: _NOT, And: _AND,
    Or: _OR, Imp: _IMP, Iff: _IFF, Box: _BOX,
}

# A frame sweep evaluates 2**_BLOCK_BITS valuations per program run.
_BLOCK_BITS = 12

_Steps = tuple[tuple[int, int, int], ...]


@lru_cache(maxsize=32)
def _compile(f: Formula) -> tuple[_Steps, tuple[str, ...]]:
    """Steps (op, a, b) aligned with subformulas(f); a and b index earlier
    steps, or for an atom step, a indexes the sorted atom names."""
    subs = subformulas(f)
    pos = {g: i for i, g in enumerate(subs)}
    names = tuple(sorted({g.name for g in subs if isinstance(g, Atom)}))
    steps = []
    for g in subs:
        op = _OPS[type(g)]
        if op == _ATOM:
            steps.append((op, names.index(g.name), 0))
        else:
            kids = [pos[c] for c in children(g)] + [0, 0]
            steps.append((op, kids[0], kids[1]))
    return tuple(steps), names


def _run(steps: _Steps, leaves: list[int], full: int, box) -> list[int]:
    """Truth of every step; `leaves` holds the atoms' truth, `box` maps the
    truth of q to the truth of Box q."""
    vals: list[int] = []
    push = vals.append
    for op, a, b in steps:
        if op == _ATOM:
            push(leaves[a])
        elif op == _NOT:
            push(full ^ vals[a])
        elif op == _AND:
            push(vals[a] & vals[b])
        elif op == _OR:
            push(vals[a] | vals[b])
        elif op == _IMP:
            push((full ^ vals[a]) | vals[b])
        elif op == _IFF:
            push(full ^ vals[a] ^ vals[b])
        elif op == _BOX:
            push(box(vals[a]))
        elif op == _TRUE:
            push(full)
        else:
            push(0)
    return vals


def _model_masks(m: Model, f: Formula) -> list[int]:
    """Truth masks over world positions for every formula of subformulas(f)."""
    steps, names = _compile(f)
    lay = m.frame._layout
    leaves = [sum(map(lay.bit.get, m.val.get(a, ()), repeat(0))) for a in names]
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


def _valid(fr: Frame, steps: _Steps, names: tuple[str, ...]) -> bool:
    lay = fr._layout
    n = len(lay.bit)
    cells = len(names) * n
    if cells > 24:
        raise SizeGuardError(
            f"{len(names)} atoms x {n} worlds exceeds the valuation sweep limit"
        )
    # Cell c = a*n + w is atom a at world position w. A valuation is a
    # bit vector over cells: the low cells vary inside a block, the
    # others are fixed by the block number.
    low = min(cells, _BLOCK_BITS)
    width = 1 << low  # V, the valuations in one block
    vmask = (1 << width) - 1
    full = (1 << (n * width)) - 1
    base = [0] * len(names)
    for c, pattern in enumerate(_cell_patterns(low)):
        a, w = divmod(c, n)
        base[a] |= pattern << (w * width)
    high = []
    for c in range(low, cells):
        a, w = divmod(c, n)
        high.append((c - low, a, vmask << (w * width)))
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


def valid_on_frame(fr: Frame, f: Formula) -> bool:
    """f holds at every world under every valuation of its atoms."""
    return _valid(fr, *_compile(f))


def relation_well_typed(fr: Frame) -> bool:
    return all(x in fr.worlds and y in fr.worlds for x, y in fr.rel)


def irreflexive(fr: Frame) -> bool:
    return all(x != y for x, y in fr.rel)


def transitive(fr: Frame) -> bool:
    succ: dict[int, set[int]] = {}
    for x, y in fr.rel:
        succ.setdefault(x, set()).add(y)
    return all(
        z in succ.get(x, ())
        for x, y in fr.rel
        for z in succ.get(y, ())
    )


def acyclic(fr: Frame) -> bool:
    """No directed cycle in the relation (iterative three-color DFS)."""
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


def is_itf(fr: Frame) -> bool:
    """Nonempty, well-typed, finite, irreflexive, transitive."""
    return (
        bool(fr.worlds)
        and relation_well_typed(fr)
        and irreflexive(fr)
        and transitive(fr)
    )


def frame_report(fr: Frame) -> FrameReport:
    """All frame predicates at once; explicit frames are always finite."""
    return FrameReport(
        nonempty=bool(fr.worlds),
        relation_well_typed=relation_well_typed(fr),
        finite=True,
        irreflexive=irreflexive(fr),
        transitive=transitive(fr),
        acyclic=acyclic(fr),
        validates_lob=valid_on_frame(fr, LOB_INSTANCE),
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
        for mask in range(1 << (k * k)):
            rel = frozenset(p for b, p in enumerate(pairs) if mask >> b & 1)
            yield Frame(worlds, rel)


@lru_cache(maxsize=4)
def _itf_frames(n: int) -> tuple[Frame, ...]:
    return tuple(fr for fr in enumerate_frames(n) if is_itf(fr))


def itf_valid_small(f: Formula, n: int) -> bool:
    """Validity over every ITF frame with at most n worlds (n <= 3).

    A necessary condition for theoremhood by soundness; exhaustive, so
    usable as an independent oracle.
    """
    if not 1 <= n <= 3:
        raise SizeGuardError(f"ITF validity oracle supports 1 <= n <= 3, got {n}")
    steps, names = _compile(f)
    return all(_valid(fr, steps, names) for fr in _itf_frames(n))


# ---------------------------------------------------------------------------
# Serialization and inspection


def model_to_json(m: Model, names: Mapping[int, str] | None = None) -> dict:
    ws = sorted(m.frame.worlds)
    name = {w: (names[w] if names else f"w{w}") for w in ws}
    return {
        "worlds": [name[w] for w in ws],
        "rel": sorted([name[x], name[y]] for x, y in m.frame.rel),
        "val": {
            a: [name[w] for w in sorted(s)]
            for a, s in sorted(m.val.items())
            if s
        },
    }


def _world_ids(index: Mapping[str, int], field: str, names) -> list[int]:
    try:
        return [index[nm] for nm in names]
    except KeyError as e:
        raise ValueError(f"model field {field!r}: undeclared world name {e}") from None
    except TypeError:
        raise ValueError(f"model field {field!r}: world names must be strings") from None


def model_from_json(doc: Mapping) -> tuple[Model, tuple[str, ...]]:
    """Load a model, mapping world names to ids 0..n-1 in listing order.

    Returns the model and the name table (index = world id). A document
    of the wrong shape raises ValueError naming the bad field.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("model: expected a JSON object")
    names = doc.get("worlds")
    if not isinstance(names, (list, tuple)) or not all(
        isinstance(nm, str) for nm in names
    ):
        raise ValueError("model field 'worlds': expected a list of world names")
    if len(set(names)) != len(names):
        raise ValueError("duplicate world names")
    index = {nm: i for i, nm in enumerate(names)}
    pairs = doc.get("rel", [])
    if not isinstance(pairs, (list, tuple)) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 for e in pairs
    ):
        raise ValueError("model field 'rel': expected a list of [from, to] name pairs")
    ends = _world_ids(index, "rel", [nm for e in pairs for nm in e])
    val_doc = doc.get("val", {})
    if not isinstance(val_doc, Mapping) or not all(
        isinstance(a, str) and isinstance(ws, (list, tuple)) for a, ws in val_doc.items()
    ):
        raise ValueError(
            "model field 'val': expected an object mapping atoms to lists of world names"
        )
    val = {a: frozenset(_world_ids(index, "val", ws)) for a, ws in val_doc.items()}
    rel = frozenset(zip(ends[::2], ends[1::2]))
    return Model(Frame(frozenset(range(len(names))), rel), val), tuple(names)


def frame_to_dot(fr: Frame, names: Mapping[int, str] | None = None) -> str:
    name = {w: (names[w] if names else f"w{w}") for w in fr.worlds}
    lines = ["digraph frame {"]
    for w in sorted(fr.worlds):
        lines.append(f'  "{name[w]}";')
    for x, y in sorted(fr.rel):
        lines.append(f'  "{name[x]}" -> "{name[y]}";')
    lines.append("}")
    return "\n".join(lines)


def model_to_dot(m: Model, names: Mapping[int, str] | None = None) -> str:
    name = {w: (names[w] if names else f"w{w}") for w in m.frame.worlds}
    lines = ["digraph model {"]
    for w in sorted(m.frame.worlds):
        true_atoms = sorted(a for a, s in m.val.items() if w in s)
        label = name[w] + (": " + " ".join(true_atoms) if true_atoms else "")
        lines.append(f'  "{name[w]}" [label="{label}"];')
    for x, y in sorted(m.frame.rel):
        lines.append(f'  "{name[x]}" -> "{name[y]}";')
    lines.append("}")
    return "\n".join(lines)


def relabel(m: Model, mapping: Mapping[int, int]) -> Model:
    """Rename worlds through an injective id map."""
    if len(set(mapping.values())) != len(m.frame.worlds) or set(mapping) != set(
        m.frame.worlds
    ):
        raise ValueError("relabeling must be injective and total on the worlds")
    fr = Frame(
        frozenset(mapping[w] for w in m.frame.worlds),
        frozenset((mapping[x], mapping[y]) for x, y in m.frame.rel),
    )
    return Model(fr, {a: frozenset(mapping[w] for w in s) for a, s in m.val.items()})
