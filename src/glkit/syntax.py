"""Modal formulas: AST, concrete grammar, pretty-printing, subformula closure.

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
operator-precedence parser with an operand and an operator stack), so
nesting depth is unbounded; `print_formula` emits the fewest
parentheses that parse back to the same formula.

Identifiers match [A-Za-z][A-Za-z0-9_]* and may not be one of the
reserved words Not, Box, True, False.

All formula values are immutable and compared structurally; a fixed
total order (`canonical_key`) makes every enumeration in the package
deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache


class Formula:
    """Base class for modal formulas. Instances are immutable."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Falsity(Formula):
    pass


@dataclass(frozen=True)
class Truth(Formula):
    pass


_ATOM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RESERVED = frozenset({"Not", "Box", "True", "False"})


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self) -> None:
        if not _ATOM_NAME.match(self.name) or self.name in _RESERVED:
            raise ValueError(f"invalid atom name: {self.name!r}")


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    arg: Formula


FALSE = Falsity()
TRUE = Truth()


def children(f: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas of f."""
    if isinstance(f, (Not, Box)):
        return (f.arg,)
    if isinstance(f, (And, Or, Imp, Iff)):
        return (f.left, f.right)
    return ()


@lru_cache(maxsize=None)
def node_count(f: Formula) -> int:
    return 1 + sum(node_count(c) for c in children(f))


_TAG = {Falsity: 0, Truth: 1, Atom: 2, Not: 3, And: 4, Or: 5, Imp: 6, Iff: 7, Box: 8}


@lru_cache(maxsize=None)
def canonical_key(f: Formula):
    """Sort key realizing the package-wide total order on formulas.

    Orders by node count, then constructor tag, then recursively on
    components (atom names lexicographically). Keys of equal-size,
    equal-tag formulas always have the same shape, so tuple comparison
    is well defined.
    """
    tag = _TAG[type(f)]
    if isinstance(f, Atom):
        return (1, tag, f.name)
    return (node_count(f), tag) + tuple(canonical_key(c) for c in children(f))


@lru_cache(maxsize=None)
def subformulas(f: Formula) -> tuple[Formula, ...]:
    """Subformula closure of f, including f, in canonical order."""
    seen: set[Formula] = set()

    def walk(g: Formula) -> None:
        if g in seen:
            return
        seen.add(g)
        for c in children(g):
            walk(c)

    walk(f)
    return tuple(sorted(seen, key=canonical_key))


def atoms(f: Formula) -> frozenset[str]:
    """Names of the atoms occurring in f."""
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


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


def _print(f: Formula, ctx: int) -> str:
    """f printed where the context binds at level ctx: parenthesised if
    f's connective binds looser."""
    spelling = _SPELLING.get(type(f))
    if spelling is None:
        if isinstance(f, Atom):
            return f.name
        if type(f) in _CONSTANT_NAMES:
            return _CONSTANT_NAMES[type(f)]
        raise TypeError(f"not a formula: {f!r}")
    tok, level, right_assoc = spelling
    if level == _PREFIX:
        s = f"{tok} {_print(f.arg, level)}"
    else:
        # The side an equal level may nest on prints without parentheses.
        left = _print(f.left, level + right_assoc)
        right = _print(f.right, level + 1 - right_assoc)
        s = f"{left} {tok} {right}"
    return s if level >= ctx else f"({s})"


def print_formula(f: Formula) -> str:
    """Minimal-parenthesization concrete syntax; parse(print_formula(f)) == f."""
    return _print(f, 0)
