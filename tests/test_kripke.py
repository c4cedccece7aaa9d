import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glkit.kripke import (
    LOB_INSTANCE,
    Frame,
    Model,
    acyclic,
    enumerate_frames,
    extension,
    extensions,
    frame_report,
    frame_to_dot,
    holds,
    holds_in,
    is_itf,
    itf_valid_small,
    model_from_json,
    model_to_dot,
    model_to_json,
    relabel,
    transitive,
    valid_on_frame,
)
from glkit.limits import SizeGuardError
from glkit.syntax import TRUE, And, Atom, Box, Iff, Imp, Not, Or, parse, subformulas
from helpers import (
    formulas,
    random_model,
    reference_holds,
    reference_valid_on_frame,
)

p = Atom("p")


def model(worlds, rel, val=None):
    return Model(
        Frame(frozenset(worlds), frozenset(rel)),
        {a: frozenset(s) for a, s in (val or {}).items()},
    )


class TestHolds:
    def test_box_vacuous(self):
        m = model({0}, set())
        assert holds(m, Box(parse("False")), 0) is True

    def test_truth(self):
        m = model({0}, set())
        assert holds(m, TRUE, 0) is True

    def test_box_clause(self):
        m = model({0, 1}, {(0, 1)}, {"p": {1}})
        assert holds(m, Box(p), 0) is True
        assert holds(m, p, 0) is False

    def test_unknown_world(self):
        m = model({0}, set())
        with pytest.raises(ValueError):
            holds(m, p, 7)

    @given(formulas(max_leaves=12), st.data())
    def test_classical_clause_coherence(self, f, data):
        rng_seed = data.draw(st.integers(0, 10_000))
        import random

        m = random_model(random.Random(rng_seed), max_worlds=4, atom_names=("p", "q", "r"))
        w = min(m.frame.worlds)
        g = data.draw(formulas(max_leaves=12))
        assert holds(m, Not(f), w) == (not holds(m, f, w))
        assert holds(m, Imp(f, g), w) == ((not holds(m, f, w)) or holds(m, g, w))
        assert holds(m, And(f, g), w) == (holds(m, f, w) and holds(m, g, w))
        assert holds(m, Or(f, g), w) == (holds(m, f, w) or holds(m, g, w))
        assert holds(m, Iff(f, g), w) == (holds(m, f, w) == holds(m, g, w))


class TestHoldsIn:
    def test_terminal_box_false(self):
        assert holds_in(model({0}, set()), parse("Box False")) is True

    def test_reflexivity_fails_with_p_false(self):
        m = model({0}, set(), {"p": set()})
        assert holds_in(m, parse("Box p --> p")) is False

    def test_true(self):
        assert holds_in(model({0, 1}, {(0, 1)}), TRUE) is True


class TestValidOnFrame:
    def test_tautological_consequent(self):
        fr = Frame(frozenset({0}), frozenset())
        assert valid_on_frame(fr, parse("Box p --> (p --> p)")) is True

    def test_lob_fails_on_reflexive_point(self):
        fr = Frame(frozenset({0}), frozenset({(0, 0)}))
        assert valid_on_frame(fr, LOB_INSTANCE) is False

    def test_lob_holds_on_terminal_point(self):
        fr = Frame(frozenset({0}), frozenset())
        assert valid_on_frame(fr, LOB_INSTANCE) is True

    def test_size_guard(self):
        fr = Frame(frozenset(range(13)), frozenset())
        with pytest.raises(SizeGuardError):
            valid_on_frame(fr, And(p, Atom("q")))


@st.composite
def scattered_frames(draw, min_worlds=0, max_worlds=5):
    """Frames over world ids drawn from 0..99, whose relation may name
    undeclared worlds."""
    worlds = draw(st.frozensets(st.integers(0, 99), min_size=min_worlds, max_size=max_worlds))
    ids = st.integers(0, 99)
    if worlds:
        ids = st.one_of(st.sampled_from(sorted(worlds)), ids)
    rel = draw(st.frozensets(st.tuples(ids, ids), max_size=3 * max_worlds))
    return Frame(worlds, rel), ids


@st.composite
def scattered_models(draw, atom_names=("p", "q")):
    """Models on scattered frames whose valuation may name undeclared worlds."""
    fr, ids = draw(scattered_frames())
    return Model(fr, {a: draw(st.frozensets(ids, max_size=6)) for a in atom_names})


# Formulas without atoms sweep a single valuation.
some_formulas = st.one_of(formulas(("p", "q"), max_leaves=12), formulas((), max_leaves=8))


class TestAgainstReference:
    """The bit-sliced evaluator against the recursive one in helpers."""

    @given(some_formulas, scattered_models())
    def test_model_evaluation(self, f, m):
        for g, ext in zip(subformulas(f), extensions(m, f)):
            assert ext == {w for w in m.frame.worlds if reference_holds(m, g, w)}
        assert extension(m, f) == ext
        for w in m.frame.worlds:
            assert holds(m, f, w) == (w in ext)
        assert holds_in(m, f) == (ext == m.frame.worlds)

    @given(some_formulas, scattered_frames(max_worlds=4))
    def test_valid_on_frame(self, f, frame_ids):
        fr, _ = frame_ids
        assert valid_on_frame(fr, f) == reference_valid_on_frame(fr, f)

    @settings(max_examples=8)
    @given(formulas(("p",), max_leaves=5), scattered_frames(min_worlds=13, max_worlds=14))
    def test_valid_on_frame_over_several_blocks(self, f, frame_ids):
        # 13 or 14 valuation cells: two or four blocks of 2**12 valuations.
        fr, _ = frame_ids
        assert valid_on_frame(fr, f) == reference_valid_on_frame(fr, f)

    def test_refuted_only_in_a_later_block(self):
        # World 0 sees worlds 1..12; the formula fails at 0 only when p
        # holds at all of them, which needs the 13th cell, outside block 0.
        fr = Frame(frozenset(range(13)), frozenset((0, w) for w in range(1, 13)))
        assert valid_on_frame(fr, parse("Box False || Not Box p")) is False
        assert valid_on_frame(fr, parse("Box p --> Box Box p")) is True


class TestFramePredicates:
    def test_report_terminal_point(self):
        rep = frame_report(Frame(frozenset({0}), frozenset()))
        assert rep.irreflexive and rep.transitive and rep.acyclic
        assert rep.validates_lob

    def test_report_reflexive_point(self):
        rep = frame_report(Frame(frozenset({0}), frozenset({(0, 0)})))
        assert not rep.irreflexive
        assert not rep.validates_lob

    def test_report_missing_transitive_edge(self):
        rep = frame_report(Frame(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)})))
        assert not rep.transitive

    def test_is_itf(self):
        assert is_itf(Frame(frozenset({0}), frozenset())) is True
        assert is_itf(Frame(frozenset(), frozenset())) is False
        assert is_itf(Frame(frozenset({0, 1}), frozenset({(0, 1), (1, 0)}))) is False


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_frames(1)) == 2
        assert sum(1 for _ in enumerate_frames(2)) == 18
        assert sum(1 for _ in enumerate_frames(3)) == 530

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            list(enumerate_frames(5))
        with pytest.raises(SizeGuardError):
            list(enumerate_frames(0))


class TestItfValidSmall:
    def test_reflection_fails(self):
        assert itf_valid_small(parse("Box p --> p"), 1) is False

    def test_true(self):
        assert itf_valid_small(TRUE, 3) is True

    def test_lob(self):
        assert itf_valid_small(LOB_INSTANCE, 3) is True

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            itf_valid_small(TRUE, 4)


def _converse_well_founded(fr: Frame) -> bool:
    # Independent oracle: repeatedly remove nodes with no successors; the
    # converse is well founded iff everything is eventually removed.
    nodes = set(fr.worlds) | {x for e in fr.rel for x in e}
    rel = set(fr.rel)
    while True:
        terminal = {n for n in nodes if not any(x == n for x, _ in rel)}
        if not terminal:
            break
        nodes -= terminal
        rel = {(x, y) for x, y in rel if x in nodes and y in nodes}
    return not nodes


def test_acyclic_matches_well_foundedness_oracle():
    for fr in enumerate_frames(3):
        assert acyclic(fr) == _converse_well_founded(fr)


def test_correspondence_small():
    # Lob validity coincides with transitive + acyclic on every frame
    # with at most 2 worlds (the full <= 3 sweep is an acceptance check).
    for fr in enumerate_frames(2):
        assert valid_on_frame(fr, LOB_INSTANCE) == (transitive(fr) and acyclic(fr))


class TestSerialization:
    def test_json_round_trip(self):
        m = model({0, 1, 2}, {(0, 1), (0, 2)}, {"p": {1}, "q": set()})
        doc = model_to_json(m)
        m2, names = model_from_json(doc)
        assert m2.frame == m.frame
        assert m2.val.get("p") == m.val["p"]
        assert names == ("w0", "w1", "w2")

    def test_named_worlds(self):
        doc = {"worlds": ["a", "b"], "rel": [["a", "b"]], "val": {"p": ["b"]}}
        m, names = model_from_json(doc)
        assert names == ("a", "b")
        assert m.frame.rel == frozenset({(0, 1)})
        assert m.val["p"] == frozenset({1})

    def test_undeclared_world_rejected(self):
        with pytest.raises(ValueError):
            model_from_json({"worlds": ["a"], "rel": [["a", "zzz"]], "val": {}})

    def test_dot_smoke(self):
        m = model({0, 1}, {(0, 1)}, {"p": {0}})
        assert '"w0" -> "w1"' in frame_to_dot(m.frame)
        assert "p" in model_to_dot(m)


def test_relabel():
    m = model({0, 1}, {(0, 1)}, {"p": {1}})
    m2 = relabel(m, {0: 10, 1: 3})
    assert m2.frame.worlds == frozenset({10, 3})
    assert m2.frame.rel == frozenset({(10, 3)})
    assert m2.val["p"] == frozenset({3})
    with pytest.raises(ValueError):
        relabel(m, {0: 5, 1: 5})
