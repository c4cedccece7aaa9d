import pytest
from hypothesis import given

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
    children,
    node_count,
    parse,
    print_formula,
    subformulas,
)
from helpers import formulas

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

    @given(formulas())
    def test_round_trip(self, f):
        assert parse(print_formula(f)) == f


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
