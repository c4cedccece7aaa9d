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
by memory only. `print_closure` prints a whole subformula closure at
once, children first: each node's text is built from its children's
texts by the same parenthesisation rule, so a closure of n nodes costs
n concatenations rather than n walks.

Identifiers match [A-Za-z][A-Za-z0-9_]* and may not be one of the
reserved words Not, Box, True, False.

A fixed total order (`canonical_key`) makes every enumeration in the
package deterministic. `subformulas` lists a closure in that order, and
`signed_subformulas` merges it with its negations.
"""

from __future__ import annotations

import re
import weakref
from itertools import groupby
from operator import attrgetter
from typing import Iterable

# The intern table: (class, *arguments) -> a weak reference to the one
# live node. Each reference's callback removes its own entry.
_NODES: dict[tuple, _Ref] = {}
_set = object.__setattr__


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


def _ordered(nodes: set[Formula]) -> list[Formula]:
    """nodes, a set closed under subformulas, in canonical order.

    The nodes of one size are ordered by their tag and then by their
    atom name or their children's positions; children are smaller, so
    their positions are settled first. Within a set closed under
    subformulas this is the order of `canonical_key`, found without
    building canonical keys."""
    order: list[Formula] = []
    rank: dict[Formula, int] = {}

    def key(g: Formula):
        if g._kids:
            return (_TAG[type(g)], *map(rank.__getitem__, g._kids))
        return (_TAG[type(g)], g.name) if type(g) is Atom else (_TAG[type(g)],)

    for _, group in groupby(sorted(nodes, key=_SIZE), _SIZE):
        for g in sorted(group, key=key):
            rank[g] = len(order)
            order.append(g)
    return order


def subformulas(f: Formula) -> tuple[Formula, ...]:
    """Subformula closure of f, including f, in canonical order.

    f comes last, as the largest. The others are computed once and kept
    on f; keeping f itself there would make a reference cycle, which
    only the cyclic garbage collector frees."""
    below = f._subs
    if below is None:
        below = tuple(_ordered(_reachable((f,))))[:-1]
        _set(f, "_subs", below)
    return (*below, f)


def signed_subformulas(f: Formula) -> tuple[Formula, ...]:
    """The subformulas of f and their negations, in canonical order.

    The closure is already in canonical order, and so are the negations
    taken in closure order, since Not q ranks by q's rank. The result is
    a merge of these two sorted runs on (size, tag, rank of the argument
    for Not, own rank otherwise); a member Not q of the closure meets its
    twin from the negations there and is kept once."""
    closure = subformulas(f)
    rank = {q: i for i, q in enumerate(closure)}
    not_tag = _TAG[Not]
    keys = [
        (g.size, not_tag, rank[g.arg]) if type(g) is Not else (g.size, _TAG[type(g)], i)
        for i, g in enumerate(closure)
    ]
    merged: list[Formula] = []
    j, n = 0, len(closure)
    for i, q in enumerate(closure):
        negation = (q.size + 1, not_tag, i)
        while j < n and keys[j] < negation:
            merged.append(closure[j])
            j += 1
        if j < n and keys[j] == negation:
            j += 1
        merged.append(Not(q))
    merged += closure[j:]
    return tuple(merged)


def canonical_order(fs: Iterable[Formula]) -> tuple[Formula, ...]:
    """The distinct members of fs in canonical order."""
    wanted = set(fs)
    return tuple(g for g in _ordered(_reachable(wanted)) if g in wanted)


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
# which is a token only if it is a letter.
_TOKEN = re.compile(r"([A-Za-z][A-Za-z0-9_]*|-->|<->|&&|\|\||[()])|\S")
# The operator stack's mark for an open parenthesis.
_OPEN = (None, -1, False)


def _error(text: str, message: str, offset: int | None) -> ParseError:
    """A ParseError at the token starting at text[offset], or at the end
    of the last line when offset is None."""
    if offset is None:
        lines = text.splitlines() or [""]
        return ParseError(message, len(lines), len(lines[-1]) + 1)
    # The token's first character closes the prefix; it is no line break.
    lines = text[: offset + 1].splitlines()
    return ParseError(message, len(lines), len(lines[-1]))


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raises ParseError with position.

    The whole text is tokenised first, so a lexical error is reported
    before any syntax error. Parsing then keeps an operand stack and an
    operator stack, so any nesting depth parses without recursion."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastindex is None and not m.group().isalpha():
            raise _error(text, f"unexpected character {m.group()!r}", m.start())
        tokens.append(m)
    operands: list[Formula] = []
    ops: list[tuple] = []
    depth = 0
    expect_operand = True

    def reduce(bound: int) -> None:
        # Apply the pending infix connectives that bind at level >= bound.
        while ops and ops[-1][1] >= bound:
            right = operands.pop()
            operands[-1] = ops.pop()[0](operands[-1], right)

    for m in tokens:
        tok = m.group()
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
                    raise _error(text, f"unexpected token {tok!r}", m.start()) from None
        elif entry is not None and entry[1] < _PREFIX:
            # An equal level reduces first unless it is right associative.
            reduce(entry[1] + entry[2])
            ops.append(entry)
            expect_operand = True
            continue
        elif tok == ")" and depth:
            reduce(0)
            ops.pop()
            depth -= 1
            f = operands.pop()
        elif depth:
            raise _error(text, "expected ')'", m.start())
        else:
            raise _error(text, f"unexpected token {tok!r} after formula", m.start())
        # f is a complete operand; the prefix connectives before it apply.
        while ops and ops[-1][1] == _PREFIX:
            f = ops.pop()[0](f)
        operands.append(f)
        expect_operand = False
    if expect_operand:
        raise _error(text, "unexpected end of input", None)
    if depth:
        raise _error(text, "expected ')'", None)
    reduce(0)
    return operands[0]


# ---------------------------------------------------------------------------
# Printing

_SPELLING = {cls: (tok, level, right) for tok, (cls, level, right) in _CONNECTIVES.items()}
_CONSTANT_NAMES = {type(c): tok for tok, c in _CONSTANTS.items()}
# Binding levels for `print_closure`; atoms and constants bind tightest.
_LEVEL = {cls: level for cls, (_, level, _) in _SPELLING.items()}
_ATOMIC = _PREFIX + 1


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


def print_closure(nodes: Iterable[Formula]) -> dict[Formula, str]:
    """Each node's `print_formula` text, built from its children's texts.

    nodes must be closed under subformulas and list children first, as
    `subformulas` and `signed_subformulas` do. A child's text is
    parenthesised when its connective binds looser than its context,
    the rule `print_formula` applies. Every text is kept, which for a
    deep chain is quadratic in its depth, so a single formula is printed
    by `print_formula`."""
    text: dict[Formula, str] = {}

    def operand(c: Formula, ctx: int) -> str:
        return f"({text[c]})" if _LEVEL.get(type(c), _ATOMIC) < ctx else text[c]

    for g in nodes:
        spelling = _SPELLING.get(type(g))
        if spelling is None:
            text[g] = g.name if type(g) is Atom else _CONSTANT_NAMES[type(g)]
            continue
        tok, lvl, right_assoc = spelling
        if lvl == _PREFIX:
            text[g] = f"{tok} {operand(g.arg, lvl)}"
        else:
            text[g] = (
                f"{operand(g.left, lvl + right_assoc)} {tok} "
                f"{operand(g.right, lvl + 1 - right_assoc)}"
            )
    return text
