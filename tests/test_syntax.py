import copy
import gc
import pickle
import random
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import glkit
from glkit import completeness, syntax
from glkit.completeness import closure_context, decide
from glkit.syntax import (
    FALSE,
    TRUE,
    And,
    Atom,
    Box,
    Iff,
    Imp,
    Not,
    Or,
    ParseError,
    atoms,
    canonical_key,
    canonical_order,
    children,
    closure_steps,
    node_count,
    parse,
    print_formula,
    subformulas,
)
from helpers import formulas, random_formula, reference_signed_closure

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestParse:
    def test_lob_schema(self):
        expected = Imp(Box(Imp(Box(p), p)), Box(p))
        assert parse("Box (Box p --> p) --> Box p") == expected

    def test_constants(self):
        assert parse("True") == TRUE
        assert parse("False") == FALSE

    def test_precedence_and_or(self):
        assert parse("p && q || r") == Or(And(p, q), r)

    def test_imp_right_assoc(self):
        assert parse("p --> q --> r") == Imp(p, Imp(q, r))

    def test_iff_right_assoc(self):
        assert parse("p <-> q <-> r") == Iff(p, Iff(q, r))

    def test_unary_binds_tightest(self):
        assert parse("Not p && Box q") == And(Not(p), Box(q))
        assert parse("Box Box p") == Box(Box(p))

    def test_parens(self):
        assert parse("Not (p && q)") == Not(And(p, q))

    @pytest.mark.parametrize(
        "text", ["", "p &&", "(p", "p $ q", "p q", "--> p", "p <- q"]
    )
    def test_errors(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_error_position(self):
        cases = [
            ("p && $", 1, 6, "unexpected character '$'"),
            # End of input is the end of the last line, even after a
            # trailing newline.
            ("p &&\n  q ||", 2, 7, "unexpected end of input"),
            ("p &&\n", 1, 5, "unexpected end of input"),
            ("(p && q\n", 1, 8, "expected ')'"),
            ("(p\n  q)", 2, 3, "expected ')'"),
            ("Box (p --> q) r", 1, 15, "unexpected token 'r' after formula"),
            ("p\r\n)", 2, 1, "unexpected token ')' after formula"),
        ]
        for text, line, col, message in cases:
            with pytest.raises(ParseError) as e:
                parse(text)
            assert (e.value.line, e.value.col) == (line, col), text
            assert str(e.value) == f"{line}:{col}: {message}"

    def test_deep_nesting(self):
        # Nesting depth is not bounded by the interpreter's recursion limit.
        depth = 10_000
        assert parse("(" * depth + "p" + ")" * depth) == p
        f = parse("Not " * depth + "p")
        for _ in range(depth):
            assert isinstance(f, Not)
            f = f.arg
        assert f == p


# Texts whose parentheses follow from associativity or binding level.
PINNED = [
    "p --> q --> r",
    "(p --> q) --> r",
    "p && q && r || p && (q || r)",
    "(p || q) && r && (p && q || r)",
    "Not (p && q)",
    "Box Not Box p",
    "(p <-> q) <-> r",
    "p <-> q <-> r",
]


class TestPrint:
    def test_constants(self):
        assert print_formula(TRUE) == "True"

    def test_grammar_forced(self):
        assert print_formula(Imp(Box(p), p)) == "Box p --> p"
        assert print_formula(Or(And(p, q), r)) == "p && q || r"

    def test_lob(self):
        f = Imp(Box(Imp(Box(p), p)), Box(p))
        assert print_formula(f) == "Box (Box p --> p) --> Box p"

    def test_minimal_parens(self):
        assert print_formula(Iff(Iff(p, q), r)) == "(p <-> q) <-> r"
        assert print_formula(And(p, And(q, r))) == "p && (q && r)"
        assert print_formula(And(And(p, q), r)) == "p && q && r"
        assert print_formula(Imp(Imp(p, q), r)) == "(p --> q) --> r"
        assert print_formula(Not(Or(p, q))) == "Not (p || q)"

    @pytest.mark.parametrize("text", PINNED)
    def test_pinned(self, text):
        f = parse(text)
        assert print_formula(f) == text
        negated = f"Not {text}" if isinstance(f, (Not, Box)) else f"Not ({text})"
        assert print_formula(Not(f)) == negated

    @given(formulas())
    def test_round_trip(self, f):
        assert parse(print_formula(f)) == f


class TestSignedSubformulas:
    # The last four hold negations already, which the signed closure keeps
    # once.
    @pytest.mark.parametrize(
        "text",
        [*PINNED, "Not p", "Not Not p", "Not p && Not Not p", "Box Not Not Box Not p --> Not p"],
    )
    def test_pinned(self, text):
        f = parse(text)
        signed = closure_context(f).signed_closure
        assert signed == reference_signed_closure(subformulas(f))
        assert len(signed) == len(set(signed))
        assert set(signed) == set(subformulas(f)) | {Not(g) for g in subformulas(f)}


class TestSubformulas:
    def test_atom_reflexive(self):
        assert subformulas(p) == (p,)

    def test_hand_unfolded_closure(self):
        # Imp(Box p, p): members ordered by canonical key (sizes 1, 2, 4)
        assert subformulas(Imp(Box(p), p)) == (p, Box(p), Imp(Box(p), p))

    def test_truth(self):
        assert subformulas(TRUE) == (TRUE,)

    @given(formulas())
    def test_closed_and_bounded(self, f):
        closure = subformulas(f)
        closure_set = set(closure)
        assert f in closure_set
        for g in closure:
            for c in children(g):
                assert c in closure_set
        assert len(closure) <= node_count(f)

    @given(formulas())
    def test_canonical_order(self, f):
        ks = [canonical_key(g) for g in subformulas(f)]
        assert ks == sorted(ks)


def _chain_formula(rng: random.Random):
    """A Not/Box chain of 50 to 300 links over a random formula, or a
    random formula with such a chain on each side of a connective."""
    def chain(f):
        for _ in range(rng.randrange(50, 300)):
            f = rng.choice((Not, Box))(f)
        return f

    f = chain(random_formula(rng, 3, ("p", "q", "r")))
    if rng.random() < 0.5:
        f = rng.choice((And, Or, Imp, Iff))(f, chain(random_formula(rng, 3, ("p", "q"))))
    return f


class TestClosureSteps:
    def test_pinned(self):
        f = Imp(Box(p), And(p, TRUE))
        # Closure: True, p, Box p, p && True, f.
        assert closure_steps(f) == (
            (type(TRUE), None, None),
            (Atom, "p", None),
            (Box, 1, None),
            (And, 1, 0),
            (Imp, 2, 3),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_one_step_per_closure_member(self, seed):
        rng = random.Random(seed)
        for k in range(40):
            f = _chain_formula(rng) if k % 4 == 0 else random_formula(rng, 6, ("p", "q", "r"))
            closure, steps = subformulas(f), closure_steps(f)
            assert len(steps) == len(closure)
            for g, (cls, a, b) in zip(closure, steps):
                assert cls is type(g)
                if type(g) is Atom:
                    assert (a, b) == (g.name, None)
                else:
                    kids = children(g)
                    padded = [closure[i] for i in (a, b)[: len(kids)]]
                    assert tuple(padded) == kids
                    assert (a, b)[len(kids):] == (None,) * (2 - len(kids))
            assert closure_steps(f) is steps


class TestAtoms:
    def test_examples(self):
        assert atoms(FALSE) == frozenset()
        assert atoms(Box(p)) == frozenset({"p"})
        assert atoms(Iff(p, q)) == frozenset({"p", "q"})


def test_atom_name_validation():
    with pytest.raises(ValueError):
        Atom("")
    with pytest.raises(ValueError):
        Atom("9x")
    with pytest.raises(ValueError):
        Atom("Box")


def test_canonical_key_total_order():
    # size first, then tag order False < True < Atom < ... < Box
    ordering = sorted([Box(p), TRUE, FALSE, p, Not(p), And(p, q)], key=canonical_key)
    assert ordering == [FALSE, TRUE, p, Not(p), Box(p), And(p, q)]


def _reference_key(f):
    """The canonical key by its recursive definition: f's node count and
    tag, an atom's name, then its children's keys in order."""
    head = (node_count(f), syntax._TAG[type(f)])
    if isinstance(f, Atom):
        return (*head, f.name)
    return sum((_reference_key(c) for c in children(f)), head)


def _nested_key(f):
    """The key as nested tuples, (size, tag, *children's keys), an atom's
    name in place of its children."""
    head = (node_count(f), syntax._TAG[type(f)])
    if isinstance(f, Atom):
        return (*head, f.name)
    return (*head, *map(_nested_key, children(f)))


@given(st.lists(formulas(max_leaves=8), min_size=2, max_size=8))
def test_flat_key_orders_as_the_nested_key(fs):
    assert sorted(set(fs), key=canonical_key) == sorted(set(fs), key=_nested_key)


def test_deep_twins_sort_by_canonical_key():
    # Two 1500-deep chains that differ only in their atoms: comparing
    # their keys must not recurse.
    fs = [parse("Not " * 1500 + "q"), parse("Not " * 1500 + "p")]
    assert sorted(fs, key=canonical_key) == list(canonical_order(fs))
    assert sorted(fs, key=canonical_key)[0] is fs[1]


class TestInterning:
    def test_constructors_return_the_live_node(self):
        assert Atom("p") is Atom("p")
        assert Imp(p, q) is parse("p --> q")
        assert Box(Not(TRUE)) is parse("Box Not True")
        assert parse("False") is syntax.Falsity()

    def test_copies_are_the_node(self):
        f = parse("Box (Box p --> p) --> Box p")
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert copy.deepcopy([f, f])[0] is f
        assert pickle.loads(pickle.dumps(f)) is f
        assert pickle.loads(pickle.dumps(TRUE)) is TRUE

    def test_immutable(self):
        with pytest.raises(AttributeError):
            p.name = "q"
        with pytest.raises(AttributeError):
            Not(p).arg = q
        assert p.name == "p"

    def test_children_must_be_formulas(self):
        with pytest.raises(TypeError):
            Not("p")
        with pytest.raises(TypeError):
            And(p, None)

    @given(formulas())
    def test_stored_fields(self, f):
        assert canonical_key(f) == _reference_key(f)
        assert node_count(f) == 1 + sum(node_count(c) for c in children(f))
        assert f.depth == max((c.depth + 1 for c in children(f)), default=0)
        assert parse(print_formula(f)) is f

    @given(st.lists(formulas(), max_size=6))
    def test_canonical_order(self, fs):
        assert canonical_order(fs) == tuple(sorted(set(fs), key=canonical_key))

    def test_unused_nodes_leave_without_the_cycle_collector(self):
        gc.disable()
        try:
            size = len(syntax._NODES)
            f = parse("Box (Box u1 --> u1) --> Not (u2 && Box u1)")
            assert subformulas(f)[-1] is f and print_formula(f)
            assert len(syntax._NODES) > size
            del f
            assert len(syntax._NODES) == size
        finally:
            gc.enable()

    def test_rebuilt_node_is_interned(self):
        gc.disable()
        try:
            size = len(syntax._NODES)
            x = Atom("rebuilt")
            Not(x)  # dies at once
            assert len(syntax._NODES) == size + 1
            assert Not(x) is Not(x)
            y = Imp(Not(x), x)
            assert y.left is Not(x) and Imp(Not(x), x) is y
            del x, y
            assert len(syntax._NODES) == size
        finally:
            gc.enable()

    def test_late_callback_keeps_a_live_twin(self):
        # A dead node's reference whose callback runs after a twin took
        # its key leaves the twin's entry alone.
        x = Atom("late")
        f = Not(x)
        stale = syntax._NODES[(Not, x)]
        del f
        assert stale() is None and (Not, x) not in syntax._NODES
        twin = Not(x)
        syntax._forget(stale)
        assert syntax._NODES[(Not, x)]() is twin
        assert Not(x) is twin

    def test_table_bounded_over_20000_decides(self):
        # Only the bounded caches keep formulas alive; with them cleared,
        # the intern table is back to its size before the loop.
        def live() -> int:
            completeness.closure_context.cache_clear()
            gc.collect()
            return len(syntax._NODES)

        before = live()
        rng = random.Random(5)
        for _ in range(20_000):
            decide(random_formula(rng, 4))
        assert live() <= before + 10


class TestDeepFormulas:
    depth = 10_000

    def chain(self, cls, leaf):
        f = leaf
        for _ in range(self.depth):
            f = cls(f)
        return f

    def test_not_chain(self):
        f = self.chain(Not, p)
        assert f.depth == self.depth and node_count(f) == self.depth + 1
        assert print_formula(f) == "Not " * self.depth + "p"
        assert parse(print_formula(f)) is f
        subs = subformulas(f)
        assert len(subs) == self.depth + 1
        assert [node_count(g) for g in subs] == list(range(1, self.depth + 2))

    def test_twin_chains(self):
        # Two chains of one shape: their canonical keys agree down to the
        # atoms, and subformulas still orders them.
        f = Iff(self.chain(Box, p), self.chain(Box, q))
        assert print_formula(f) == "Box " * self.depth + "p <-> " + "Box " * self.depth + "q"
        subs = subformulas(f)
        assert len(subs) == 2 * self.depth + 3
        assert subs[:4] == (p, q, Box(p), Box(q))
        assert subs[-1] is f

    def test_right_nested(self):
        f = p
        for _ in range(self.depth):
            f = Imp(q, f)
        assert print_formula(f) == "q --> " * self.depth + "p"
        assert parse(print_formula(f)) is f
        assert len(subformulas(f)) == self.depth + 2


_UNBOUNDED_CACHE = re.compile(
    r"lru_cache\(\s*(?:maxsize\s*=\s*)?None\b"
    r"|\bfunctools\.cache\b"
    r"|^\s*@cache\b"
    r"|^\s*from\s+functools\s+import\b[^\n]*\bcache\b",
    re.MULTILINE,
)


def test_no_unbounded_cache_in_the_package():
    for spelling in [
        "@lru_cache(maxsize=None)", "@functools.lru_cache( maxsize = None )",
        "@lru_cache(None)", "@functools.cache", "@cache  # per formula\n",
        "@cache\n", "from functools import cache, partial",
    ]:
        assert _UNBOUNDED_CACHE.search(spelling), spelling
    for spelling in ["@lru_cache(maxsize=16)", "from functools import cached_property, lru_cache"]:
        assert not _UNBOUNDED_CACHE.search(spelling), spelling
    src = Path(glkit.__file__).parent
    for path in src.glob("*.py"):
        assert not _UNBOUNDED_CACHE.search(path.read_text()), path.name
    # The decide path caches in one place: the per-target closure context.
    text = (src / "completeness.py").read_text()
    assert text.count("lru_cache(") == 1
    assert re.findall(r"@lru_cache\((.*)\)\ndef (\w+)\(", text) == [
        ("maxsize=16", "closure_context")
    ]
    # Model and frame checks cache nothing per formula: kripke's one cache
    # is keyed by a block width.
    text = (src / "kripke.py").read_text()
    assert text.count("lru_cache(") == 1
    assert re.findall(r"@lru_cache\((.*)\)\ndef (\w+)\(", text) == [
        ("maxsize=_BLOCK_BITS + 1", "_cell_patterns")
    ]
