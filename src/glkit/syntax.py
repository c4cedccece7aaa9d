"""Modal formulas: AST, concrete grammar, pretty-printing, subformula closure.

Formulas are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): every constructor call looks its class and
arguments up in one table and returns the single live node with that
structure. Equality of formulas is therefore identity and hashing is
O(1). The table is a plain dict from (class, *arguments) to a weak
reference to the node, so it only ever holds the formulas still in use:
when a node dies, its reference's callback removes the entry, unless a
node made since under the same key holds it. Each node stores its node
count (`size`) and its nesting depth (`depth`, 0 for atoms and
constants), computed from its children when it is made; its canonical
key is computed on demand.

Concrete grammar: one table, `_CONNECTIVES`, gives each connective's
token, constructor, binding level and associativity, and both the
parser and the printer read it.

    token   level  binds      associativity
    <->     0      loosest    right
    -->     1                 right
    ||      2                 left
    &&      3                 left
    Not     4      tightest   prefix
    Box     4      tightest   prefix

An operand is True, False, an identifier, a prefix connective applied
to an operand, or a parenthesised formula. `parse` is iterative (an
operator-precedence parser with an operand and an operator stack), and
so are `print_formula`, which emits the fewest parentheses that parse
back to the same formula, and `subformulas`; nesting depth is bounded
by memory only.

Identifiers match [A-Za-z][A-Za-z0-9_]* and may not be one of the
reserved words Not, Box, True, False.

A fixed total order (`canonical_key`) makes every enumeration in the
package deterministic. `subformulas` lists a closure in that order, and
`canonical_order` puts any set of formulas in it, such as a closure and
its negations. The pass that orders a closure also writes its program,
`closure_steps`, which every evaluator in the package runs and from
which a certificate writes the closure as shared terms; the node keeps
both, freed with it.
"""

from __future__ import annotations

import re
import weakref
from itertools import groupby, islice
from operator import attrgetter
from typing import Iterable

# The intern table: (class, *arguments) -> a weak reference to the one
# live node. Each reference's callback removes its own entry.
_NODES: dict[tuple, _Ref] = {}
# Immutable objects set their fields past their own refusing __setattr__.
_set = object.__setattr__


class _Record:
    """Base of glkit's immutable record classes. A record is equal to a
    record of its own class with an equal `_key()`, by default its
    `_fields` in order, hashes as that key, and prints as its fields.
    Fields are set with `_set`; assigning or deleting one raises
    AttributeError. A copy or an unpickled record is built again from its
    key, so it keeps no lazily computed field."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} records are immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._key()


class _cached_field:
    """A value computed from an immutable record on first read and kept
    on it. It is stored with `_set`, past the record's refusing
    __setattr__; the cached property of `functools` writes
    `instance.__dict__` instead, which materialises the instance's dict
    and makes every later field read of that instance slower."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.compute(obj)
        _set(obj, self.name, value)
        return value


class _Ref(weakref.ref):
    """A weak reference to an interned node that knows the node's key."""

    __slots__ = ("key",)


def _forget(ref: _Ref, nodes: dict = _NODES) -> None:
    """Callback of a dead node's reference: remove its entry, unless a
    node made since under the same key holds it now."""
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _intern(key: tuple, node: Formula) -> Formula:
    """Enter node, just made, in the table under key."""
    ref = _Ref(node, _forget)
    ref.key = key
    _NODES[key] = ref
    return node


class Formula:
    """Base class for modal formulas. Instances are immutable and
    interned: two formulas are equal iff they are the same object."""

    __slots__ = ("size", "depth", "_kids", "_subs", "__weakref__")
    #: The constructor's arguments, in order.
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"formulas are immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"formulas are immutable: cannot delete {name!r}")

    # Copies and unpickled formulas are the interned node itself.
    def __reduce__(self):
        return type(self), tuple(getattr(self, a) for a in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __str__(self) -> str:
        return print_formula(self)

    def __repr__(self) -> str:
        return f"parse({print_formula(self)!r})"


def _leaf(cls: type, key: tuple) -> Formula:
    """The leaf node cls(*key[1:]), made and interned if it has no live
    node."""
    ref = _NODES.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = object.__new__(cls)
        for field, value in zip(cls.__match_args__, key[1:]):
            _set(node, field, value)
        _set(node, "size", 1)
        _set(node, "depth", 0)
        _set(node, "_kids", ())
        _set(node, "_subs", None)
        _intern(key, node)
    return node


class Falsity(Formula):
    __slots__ = ()

    def __new__(cls):
        return _leaf(cls, (cls,))


class Truth(Formula):
    __slots__ = ()

    def __new__(cls):
        return _leaf(cls, (cls,))


_ATOM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RESERVED = frozenset({"Not", "Box", "True", "False"})


def is_atom_name(name) -> bool:
    """Whether name can name an atom: an identifier, not a reserved word."""
    return isinstance(name, str) and bool(_ATOM_NAME.match(name)) and name not in _RESERVED


class Atom(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        ref = _NODES.get((cls, name))
        node = None if ref is None else ref()
        if node is None:
            if not is_atom_name(name):
                raise ValueError(f"invalid atom name: {name!r}")
            node = _leaf(cls, (cls, name))
        return node


def _not_formulas(cls: type, *args) -> TypeError:
    bad = next(a for a in args if not isinstance(a, Formula))
    return TypeError(f"{cls.__name__} takes formulas, got {bad!r}")


class _Unary(Formula):
    __slots__ = ("arg",)
    __match_args__ = ("arg",)

    def __new__(cls, arg: Formula):
        key = (cls, arg)
        ref = _NODES.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if not isinstance(arg, Formula):
            raise _not_formulas(cls, arg)
        node = object.__new__(cls)
        _set(node, "arg", arg)
        _set(node, "size", arg.size + 1)
        _set(node, "depth", arg.depth + 1)
        _set(node, "_kids", (arg,))
        _set(node, "_subs", None)
        return _intern(key, node)


class _Binary(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, left, right)
        ref = _NODES.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if not (isinstance(left, Formula) and isinstance(right, Formula)):
            raise _not_formulas(cls, left, right)
        node = object.__new__(cls)
        _set(node, "left", left)
        _set(node, "right", right)
        _set(node, "size", left.size + right.size + 1)
        d, e = left.depth, right.depth
        _set(node, "depth", (d if d > e else e) + 1)
        _set(node, "_kids", (left, right))
        _set(node, "_subs", None)
        return _intern(key, node)


class Not(_Unary):
    __slots__ = ()


class Box(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Imp(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


_TAG = {Falsity: 0, Truth: 1, Atom: 2, Not: 3, And: 4, Or: 5, Imp: 6, Iff: 7, Box: 8}

FALSE = Falsity()
TRUE = Truth()


def children(f: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas of f."""
    return f._kids


def node_count(f: Formula) -> int:
    return f.size


def canonical_key(f: Formula) -> tuple:
    """Sort key realizing the package-wide total order on formulas.

    Orders by node count, then constructor tag, then on components
    (atom names lexicographically). The key is flat: the preorder of f's
    nodes, each as its node count and tag, an atom's name after its tag.
    A tag fixes the number of children, so no key is a proper prefix of
    another at the same position, and comparing flat keys orders exactly
    as comparing the nested keys (size, tag, *children's keys) would,
    with no recursion. It is computed on each call, in time linear in
    f's size; `subformulas` and `canonical_order` sort without it."""
    key: list = []
    stack = [f]
    while stack:
        g = stack.pop()
        key += (g.size, _TAG[type(g)])
        if type(g) is Atom:
            key.append(g.name)
        stack += reversed(g._kids)
    return tuple(key)


def _reachable(roots: Iterable[Formula]) -> set[Formula]:
    """roots and all their subformulas."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for c in stack.pop()._kids:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


_SIZE = attrgetter("size")


def _ordered(nodes: set[Formula]) -> tuple[list[Formula], list[tuple]]:
    """nodes, a set closed under subformulas, in canonical order, and the
    step of each: its class and its children's positions in that order,
    or an atom's name, padded with None to three entries.

    The nodes of one size are ordered by their tag and then by their
    atom name or their children's positions; children are smaller, so
    their positions are settled first. Within a set closed under
    subformulas this is the order of `canonical_key`, found without
    building canonical keys."""
    order: list[Formula] = []
    steps: list[tuple] = []
    rank: dict[Formula, int] = {}

    def step(g: Formula) -> tuple:
        kids = g._kids
        if not kids:
            return (type(g), g.name if type(g) is Atom else None, None)
        return (type(g), rank[kids[0]], rank[kids[1]] if len(kids) == 2 else None)

    for _, group in groupby(sorted(nodes, key=_SIZE), _SIZE):
        # Distinct nodes of one tag differ before their steps' padding,
        # so neither None nor a node is ever compared.
        for _, s, g in sorted([(_TAG[type(g)], step(g), g) for g in group]):
            rank[g] = len(order)
            order.append(g)
            steps.append(s)
    return order, steps


def _closure(f: Formula) -> tuple[tuple[Formula, ...], tuple[tuple, ...]]:
    """The subformulas of f below f, and the steps of all of them, kept
    on f. Keeping f itself there would make a reference cycle, which only
    the cyclic collector frees; the steps hold no formulas."""
    kept = f._subs
    if kept is None:
        order, steps = _ordered(_reachable((f,)))
        order.pop()
        kept = (tuple(order), tuple(steps))
        _set(f, "_subs", kept)
    return kept


def subformulas(f: Formula) -> tuple[Formula, ...]:
    """Subformula closure of f, including f, in canonical order.

    f comes last, as the largest. The others are computed once and kept
    on f, beside `closure_steps(f)`."""
    return (*_closure(f)[0], f)


def closure_steps(f: Formula) -> tuple[tuple, ...]:
    """The closure program of f: one step (type(g), a, b) per member g of
    subformulas(f), in that order. a and b are the positions of g's
    children in subformulas(f), with None where g has fewer than two;
    for an atom, a is its name. Children come before their parents, so
    one pass evaluates the closure bottom-up. Computed once, kept on f."""
    return _closure(f)[1]


def canonical_order(fs: Iterable[Formula]) -> tuple[Formula, ...]:
    """The distinct members of fs in canonical order."""
    wanted = set(fs)
    return tuple(g for g in _ordered(_reachable(wanted))[0] if g in wanted)


def atoms(f: Formula) -> frozenset[str]:
    """Names of the atoms occurring in f."""
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def conjlist(fs: Iterable[Formula]) -> Formula:
    """Right-nested conjunction: True for [], the element itself for [f]."""
    fs = list(fs)
    if not fs:
        return TRUE
    acc = fs[-1]
    for f in reversed(fs[:-1]):
        acc = And(f, acc)
    return acc


# ---------------------------------------------------------------------------
# The grammar

#: The connectives: token -> (constructor, binding level, right
#: associative). A higher level binds tighter. Not and Box share the
#: tightest level and are prefix; the others are infix. Both `parse` and
#: `print_formula` read precedence and associativity from here only.
_CONNECTIVES: dict[str, tuple[type, int, bool]] = {
    "<->": (Iff, 0, True),
    "-->": (Imp, 1, True),
    "||": (Or, 2, False),
    "&&": (And, 3, False),
    "Not": (Not, 4, True),
    "Box": (Box, 4, True),
}
_PREFIX = max(level for _, level, _ in _CONNECTIVES.values())
_CONSTANTS = {"True": TRUE, "False": FALSE}


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# A word or a multi-character connective; else one non-space character,
# which is a token only if it is a letter. `findall` gives the group, so
# such a character comes out as ''.
_TOKEN = re.compile(r"([A-Za-z][A-Za-z0-9_]*|-->|<->|&&|\|\||[()])|\S")
# The operator stack's mark for an open parenthesis.
_OPEN = (None, -1, False)


def _error(text: str, message: str, index: int | None) -> ParseError:
    """A ParseError at the index-th token of text, or at the end of the
    last line when index is None. The token's offset is found by scanning
    again, which only an error pays for."""
    if index is None:
        lines = text.splitlines() or [""]
        return ParseError(message, len(lines), len(lines[-1]) + 1)
    offset = next(islice(_TOKEN.finditer(text), index, None)).start()
    # The token's first character closes the prefix; it is no line break.
    lines = text[: offset + 1].splitlines()
    return ParseError(message, len(lines), len(lines[-1]))


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raises ParseError with position.

    The whole text is tokenised first, in one scan, so a lexical error is
    reported before any syntax error. Parsing then keeps an operand stack
    and an operator stack, so any nesting depth parses without recursion."""
    tokens = _TOKEN.findall(text)
    if "" in tokens:
        # Characters outside the grammar: a letter is a token (and an
        # unexpected one), anything else a lexical error.
        tokens = []
        for m in _TOKEN.finditer(text):
            tok = m.group()
            if m.lastindex is None and not tok.isalpha():
                raise _error(text, f"unexpected character {tok!r}", len(tokens))
            tokens.append(tok)
    operands: list[Formula] = []
    ops: list[tuple] = []
    depth = 0
    expect_operand = True
    for k, tok in enumerate(tokens):
        entry = _CONNECTIVES.get(tok)
        if expect_operand:
            if entry is not None and entry[1] == _PREFIX:
                ops.append(entry)
                continue
            if tok == "(":
                ops.append(_OPEN)
                depth += 1
                continue
            f = _CONSTANTS.get(tok)
            if f is None:
                try:
                    f = Atom(tok)
                except ValueError:
                    raise _error(text, f"unexpected token {tok!r}", k) from None
        elif entry is not None and entry[1] < _PREFIX:
            # Apply the pending infix connectives that bind tighter; an
            # equal level goes first unless it is right associative.
            bound = entry[1] + entry[2]
            while ops and ops[-1][1] >= bound:
                right = operands.pop()
                operands[-1] = ops.pop()[0](operands[-1], right)
            ops.append(entry)
            expect_operand = True
            continue
        elif tok == ")" and depth:
            # Only infix connectives lie above the innermost open mark.
            while ops[-1] is not _OPEN:
                right = operands.pop()
                operands[-1] = ops.pop()[0](operands[-1], right)
            ops.pop()
            depth -= 1
            f = operands.pop()
        elif depth:
            raise _error(text, "expected ')'", k)
        else:
            raise _error(text, f"unexpected token {tok!r} after formula", k)
        # f is a complete operand; the prefix connectives before it apply.
        while ops and ops[-1][1] == _PREFIX:
            f = ops.pop()[0](f)
        operands.append(f)
        expect_operand = False
    if expect_operand:
        raise _error(text, "unexpected end of input", None)
    if depth:
        raise _error(text, "expected ')'", None)
    while ops:
        right = operands.pop()
        operands[-1] = ops.pop()[0](operands[-1], right)
    return operands[0]


# ---------------------------------------------------------------------------
# Printing

_SPELLING = {cls: (tok, level, right) for tok, (cls, level, right) in _CONNECTIVES.items()}
_CONSTANT_NAMES = {type(c): tok for tok, c in _CONSTANTS.items()}


def print_formula(f: Formula) -> str:
    """Minimal-parenthesization concrete syntax; parse(print_formula(f)) == f.

    A stack holds text still to emit and (formula, context level) pairs
    still to print; a formula is parenthesised when its connective binds
    looser than its context."""
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, ctx = item
        spelling = _SPELLING.get(type(g))
        if spelling is None:
            if isinstance(g, Atom):
                out.append(g.name)
            elif type(g) in _CONSTANT_NAMES:
                out.append(_CONSTANT_NAMES[type(g)])
            else:
                raise TypeError(f"not a formula: {g!r}")
            continue
        tok, level, right_assoc = spelling
        # Pushed in reverse: the last item pushed is emitted first.
        if level < ctx:
            stack.append(")")
        if level == _PREFIX:
            stack += [(g.arg, level), f"{tok} "]
        else:
            # The side an equal level may nest on prints without parentheses.
            stack += [
                (g.right, level + 1 - right_assoc),
                f" {tok} ",
                (g.left, level + right_assoc),
            ]
        if level < ctx:
            stack.append("(")
    return "".join(out)
