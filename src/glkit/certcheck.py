"""The countermodel certificate checker, sharing no code with the search.

A certificate is taken as the data it is: `nodes`, the target's closure
as a node table (an atom's name, "True", "False", or a connective's name
and its children's positions; children first, the target last), `masks`,
one int per world whose bit j is set iff node j holds there, `rel`, the
relation as pairs of world indices, and `witness`, the index of the world
that refutes the target. `problem` checks, in this order:

1. the node table: every node is well formed (a leaf is an atom's name
   or a constant), its children come earlier, no node is listed twice and
   every node is reachable from the target;
2. the frame is ITF: it has a world, each pair relates two of them, no
   world is its own successor, and a successor's successors are
   successors;
3. each world's mask is its column of the closure evaluated on the model
   whose valuation is the masks' atom bits;
4. the witness is a world and refutes the target.

It returns None when every check passes, and otherwise the reason for the
first failure, naming the world index and the closure position. It
imports nothing from glkit, so a fault in the evaluator that builds the
search's truth table cannot make a wrong certificate pass here.

`read` is the one reader of certificate documents and `read_model` of
model documents. `read` prints the node table's root with its own
iterative printer and requires that text to be `target`, so a document
is checked without parsing a formula, in time linear in its size.
"""

import re
from collections.abc import Mapping

# Each connective's text, binding level (higher binds tighter) and right
# associativity, as `syntax.print_formula` prints it.
_SPELLING = {"Iff": (" <-> ", 0, 1), "Imp": (" --> ", 1, 1), "Or": (" || ", 2, 0),
             "And": (" && ", 3, 0), "Not": ("Not ", 4, 1), "Box": ("Box ", 4, 1)}
_ARITY = {op: 1 if level == 4 else 2 for op, (_, level, _) in _SPELLING.items()}
# An identifier; an atom's name is one that is not reserved.
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RESERVED = frozenset({"Not", "Box", "True", "False"})
# A mask as `certificate_to_json` writes it, f"{mask:x}" for a mask >= 0.
_MASK = re.compile("0|[1-9a-f][0-9a-f]*")


def _node_problem(nodes) -> str | None:
    if not nodes:
        return "the closure is empty"
    first: dict = {}  # node -> its first position
    kids = set()
    for j, t in enumerate(nodes):
        if type(t) is str and _NAME.match(t) and t not in ("Not", "Box"):
            key = t
        elif type(t) is list and t and type(t[0]) is str and len(t) == 1 + _ARITY.get(t[0], -1):
            a, b = t[1], t[-1]
            if not (type(a) is type(b) is int and 0 <= a < j and 0 <= b < j):
                return f"closure position {j}: a child does not come earlier"
            kids.add(a)
            kids.add(b)
            key = (t[0], a, b)
        else:
            return f"closure position {j}: not a closure node"
        if first.setdefault(key, j) != j:
            return f"closure position {j}: the same node as position {first[key]}"
    # Children come earlier, so the last node that is no node's child is
    # the last one the target does not reach.
    if len(kids) < j:
        return f"closure position {max(set(range(j)) - kids)}: not reachable from the target"
    return None


def problem(nodes: list, masks, rel, witness: int | None) -> str | None:
    """Why the certificate (nodes, masks, rel, witness) fails the check,
    or None when it passes; see the module docstring."""
    if (reason := _node_problem(nodes)) is not None:
        return reason
    c, n = len(nodes), len(masks)
    if not n:
        return "the frame is not ITF: it has no world"
    succ = [0] * n
    for x, y in rel:
        if not (type(x) is type(y) is int and 0 <= x < n and 0 <= y < n):
            return f"the frame is not ITF: the pair ({x!r}, {y!r}) names no world"
        succ[x] |= 1 << y
    for i, s in enumerate(succ):
        if s >> i & 1:
            return f"the frame is not ITF: world {i} is its own successor"
        rest = s
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest ^= 1 << j
            if succ[j] & ~s:
                k = (succ[j] & ~s).bit_length() - 1
                return f"the frame is not ITF: world {i} reaches world {k} through world {j} only"
    for i, x in enumerate(masks):
        if type(x) is not int or not 0 <= x < 1 << c:
            return f"world {i}: its mask is not an int of {c} bits"
    # The masks transposed: bit i of cols[j] is bit j of world i's mask.
    cols = [0] * c
    for i, x in enumerate(masks):
        while x:
            low = x & -x
            cols[low.bit_length() - 1] |= 1 << i
            x ^= low
    full = (1 << n) - 1
    # Each node is checked against its children's columns, so the first
    # node that disagrees is the first whose truth on the model differs
    # from its column.
    for j, t in enumerate(nodes):
        if type(t) is str:
            want = full if t == "True" else 0 if t == "False" else cols[j]
        else:
            op, a, b = t[0], cols[t[1]], cols[t[-1]]
            if op == "Not":
                want = full ^ a
            elif op == "And":
                want = a & b
            elif op == "Or":
                want = a | b
            elif op == "Imp":
                want = (full ^ a) | b
            elif op == "Iff":
                want = full ^ a ^ b
            else:
                want = 0
                for i, s in enumerate(succ):
                    if s & a == s:
                        want |= 1 << i
        if want != cols[j]:
            diff = want ^ cols[j]
            i = (diff & -diff).bit_length() - 1
            says = ("false", "true") if want >> i & 1 else ("true", "false")
            return f"world {i}, closure position {j}: the mask says {says[0]}, the model {says[1]}"
    if witness is None or not 0 <= witness < n:
        return "the witness is not a world of the certificate"
    if cols[-1] >> witness & 1:
        return f"world {witness}, closure position {c - 1}: the witness does not refute the target"
    return None


def _prints_as(nodes: list, target: str) -> bool:
    """Whether the root of a well-formed node table prints as target, as
    `syntax.print_formula` prints it. A stack stands in for recursion, and
    the walk stops at the first difference, so a shared node, printed once
    per use, costs no more than target's length."""
    pos, stack = 0, [(len(nodes) - 1, 0)]
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            j, ctx = item
            t = nodes[j]
            if type(t) is list:
                tok, level, right = _SPELLING[t[0]]
                # Pushed in reverse: the last item pushed is emitted first.
                if level < ctx:
                    stack.append(")")
                stack += [(t[-1], level + 1 - right), tok]
                if len(t) == 3:
                    stack.append((t[1], level + right))
                if level < ctx:
                    stack.append("(")
                continue
            item = t
        if not target.startswith(item, pos):
            return False
        pos += len(item)
    return pos == len(target)


def _indices(index: dict, field: str, names) -> list[int]:
    try:
        return [index[nm] for nm in names]
    except KeyError as e:
        raise ValueError(f"model field {field!r}: undeclared world name {e}") from None
    except TypeError:
        raise ValueError(f"model field {field!r}: world names must be strings") from None


def read_model(doc) -> tuple[list[str], frozenset[tuple[int, int]], dict[str, frozenset[int]]]:
    """A model document's world names, its relation as index pairs and
    each atom's worlds as indices, world names[i] being index i. A
    document of the wrong shape raises ValueError naming the bad field."""
    if not isinstance(doc, Mapping):
        raise ValueError("model: expected a JSON object")
    names = doc.get("worlds")
    if not isinstance(names, (list, tuple)) or not all(isinstance(nm, str) for nm in names):
        raise ValueError("model field 'worlds': expected a list of world names")
    index = {nm: i for i, nm in enumerate(names)}
    if len(index) != len(names):
        raise ValueError("duplicate world names")
    pairs = doc.get("rel", [])
    if not isinstance(pairs, (list, tuple)) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 for e in pairs
    ):
        raise ValueError("model field 'rel': expected a list of [from, to] name pairs")
    ends = _indices(index, "rel", [nm for e in pairs for nm in e])
    val = doc.get("val", {})
    if not isinstance(val, Mapping) or not all(
        isinstance(a, str) and isinstance(ws, (list, tuple)) for a, ws in val.items()
    ):
        raise ValueError(
            "model field 'val': expected an object mapping atoms to lists of world names"
        )
    for a in val:
        if not _NAME.match(a) or a in _RESERVED:
            raise ValueError(f"model field 'val': no formula can name the atom {a!r}")
    val = {a: frozenset(_indices(index, "val", ws)) for a, ws in val.items()}
    return names, frozenset(zip(ends[::2], ends[1::2])), val


def read(doc) -> tuple[list, list[int], frozenset[tuple[int, int]], int]:
    """A certificate document as `problem` takes it: (nodes, masks, rel,
    witness). It requires the model part's shape, a node table of atom
    names, constants and nodes whose root prints as `target`, each mask
    as the writer spells it, `val` agreeing with the masks' atom bits and
    a declared witness; a fault raises ValueError naming the field."""
    names, rel, val = read_model(doc)
    target, witness, nodes, truth = (
        doc.get(key) for key in ("target", "witness", "closure", "world_truth")
    )
    if not isinstance(target, str):
        raise ValueError("certificate field 'target': expected a formula string")
    if not isinstance(witness, str):
        raise ValueError("certificate field 'witness': expected a world name")
    if not isinstance(truth, Mapping):
        raise ValueError("certificate field 'world_truth': expected an object of hex masks")
    if type(nodes) is not list or _node_problem(nodes) or not _prints_as(nodes, target):
        raise ValueError("certificate field 'closure': not the target's closure as shared terms")
    n, masks = len(nodes), []
    for nm in names:
        s = truth.get(nm)
        if not (type(s) is str and _MASK.fullmatch(s)) or (x := int(s, 16)) >> n:
            raise ValueError(
                f"certificate field 'world_truth': world {nm!r} needs a lowercase hex "
                f"mask with no prefix, below 2**{n}; got {s!r:.40}"
            )
        masks.append(x)
    if len(truth) > len(names):
        extra = next(nm for nm in truth if nm not in names)
        raise ValueError(f"certificate field 'world_truth': undeclared world {extra!r}")
    # Each atom's worlds as an int, from the document and from the masks.
    column = {t: j for j, t in enumerate(nodes) if type(t) is str and t not in _RESERVED}
    for a in sorted(val.keys() | column):
        j = column.get(a)
        held = 0 if j is None else sum(1 << i for i, x in enumerate(masks) if x >> j & 1)
        if held != sum(1 << i for i in val.get(a, ())):
            raise ValueError(f"valuation of {a!r} disagrees with the world contents")
    if witness not in names:
        raise ValueError(f"undeclared witness world: {witness!r}")
    return nodes, masks, rel, names.index(witness)
