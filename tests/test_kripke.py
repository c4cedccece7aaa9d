import functools
import gc
import random
import weakref
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glkit.kripke import (
    LOB_INSTANCE,
    Frame,
    Model,
    _ROOTED_ITF,
    acyclic,
    enumerate_frames,
    extension,
    extensions,
    frame_report,
    frame_to_dot,
    holds,
    holds_in,
    irreflexive,
    is_itf,
    itf_valid_small,
    model_from_json,
    model_to_dot,
    model_to_json,
    relabel,
    relation_well_typed,
    transitive,
    valid_on_frame,
)
from glkit.limits import SizeGuardError
from glkit.syntax import TRUE, And, Atom, Box, Formula, Iff, Imp, Not, Or, parse, subformulas
from helpers import (
    formulas,
    random_formula,
    random_model,
    reference_acyclic,
    reference_holds,
    reference_irreflexive,
    reference_itf_frames,
    reference_itf_valid_small,
    reference_transitive,
    reference_valid_on_frame,
    restricted,
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

    def test_lob_agrees_with_the_sweep(self):
        # Every frame of at most 3 worlds, and seeded random frames of 4 to
        # 6 worlds of every density.
        frames = [Frame(frozenset(), frozenset()), *enumerate_frames(3)]
        rng = random.Random(16)
        for _ in range(1500):
            n, density = rng.randint(4, 6), rng.random()
            pairs = [(x, y) for x in range(n) for y in range(n) if rng.random() < density]
            frames.append(Frame(frozenset(range(n)), frozenset(pairs)))
        for fr in frames:
            assert frame_report(fr).validates_lob == valid_on_frame(fr, LOB_INSTANCE), fr

    @given(scattered_frames())
    def test_lob_agrees_with_the_sweep_on_scattered_frames(self, frame_ids):
        fr, _ = frame_ids
        assert frame_report(fr).validates_lob == valid_on_frame(fr, LOB_INSTANCE)

    @pytest.mark.parametrize("n", [25, 100, 200])
    def test_lob_on_chains_past_the_sweep_limit(self, n):
        # Strict linear orders, listed upwards and downwards, and each with
        # one back edge that closes a cycle.
        up = {(x, y) for x in range(n) for y in range(x + 1, n)}
        down = {(y, x) for x, y in up}
        worlds = frozenset(range(n))
        with pytest.raises(SizeGuardError):
            valid_on_frame(Frame(worlds, frozenset(up)), LOB_INSTANCE)
        for rel, back in ((up, (n - 1, 0)), (down, (0, n - 1))):
            assert frame_report(Frame(worlds, frozenset(rel))).validates_lob is True
            assert frame_report(Frame(worlds, frozenset(rel | {back}))).validates_lob is False

    def test_lob_on_a_200_chain_does_not_depend_on_the_listing(self):
        # The strict order on 200 worlds, with one transitive edge dropped,
        # with a back edge, and as its covering edges only; each listed
        # upwards, downwards and shuffled.
        n = 200
        up = {(x, y) for x in range(n) for y in range(x + 1, n)}
        frames = [up, up - {(0, n - 1)}, up | {(n - 1, n // 2)}, {(x, x + 1) for x in range(n - 1)}]
        shuffled = list(range(n))
        random.Random(16).shuffle(shuffled)
        listings = [list(range(n)), list(range(n))[::-1], shuffled]
        verdicts = []
        for rel in frames:
            (rep,) = {
                frame_report(Frame(frozenset(range(n)), frozenset((ids[x], ids[y]) for x, y in rel)))
                for ids in listings
            }
            assert rep.validates_lob == (rep.transitive and rep.acyclic)
            verdicts.append(rep.validates_lob)
        assert verdicts == [True, False, False, False]

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

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 4), (3, 23), (4, 242)])
    def test_labelled_itf_frames(self, n, count):
        assert len(reference_itf_frames(n)) == count


def _isomorphic(a: Frame, b: Frame) -> bool:
    if len(a.worlds) != len(b.worlds) or len(a.rel) != len(b.rel):
        return False
    wa = sorted(a.worlds)
    return any(
        frozenset((m[x], m[y]) for x, y in a.rel) == b.rel
        for m in (dict(zip(wa, perm)) for perm in permutations(sorted(b.worlds)))
    )


def _generated(fr: Frame, w: int) -> Frame:
    """The subframe generated by w: w and its successors, which are all
    the worlds w reaches since the relation is transitive."""
    keep = {w} | {y for x, y in fr.rel if x == w}
    return Frame(frozenset(keep), frozenset(e for e in fr.rel if set(e) <= keep))


def _outcome(oracle, f, n):
    """The verdict, or the text of the size guard it raises."""
    try:
        return oracle(f, n)
    except SizeGuardError as e:
        return str(e)


def _jankov_fine(fr: Frame) -> Formula:
    """The Jankov-Fine formula of a rooted irreflexive transitive frame
    with root 0 (Chagrov & Zakharyaschev, *Modal Logic*, 1997, §9.4): an
    ITF frame refutes it iff fr is a p-morphic image of one of its
    point-generated subframes. Atom a_i names world i; the premise says,
    here and at every successor, that exactly one a_i holds and that an
    a_i world sees an a_j world iff i sees j in fr."""
    a = [Atom(f"a{i}") for i in sorted(fr.worlds)]

    def dia(g):
        return Not(Box(Not(g)))

    delta = [functools.reduce(Or, a)]
    for i in sorted(fr.worlds):
        delta += [Imp(a[i], Not(a[j])) for j in sorted(fr.worlds) if j != i]
        delta += [
            Imp(a[i], dia(a[j]) if (i, j) in fr.rel else Not(dia(a[j])))
            for j in sorted(fr.worlds)
        ]
    d = functools.reduce(And, delta)
    return Imp(And(d, Box(d)), Not(a[0]))


# The branching rooted ITF frames, root 0, written out here rather than
# read from the table under test.
_BRANCHING = {
    "fork": Frame(frozenset(range(3)), frozenset({(0, 1), (0, 2)})),
    "antichain": Frame(frozenset(range(4)), frozenset({(0, 1), (0, 2), (0, 3)})),
    "one edge": Frame(frozenset(range(4)), frozenset({(0, 1), (0, 2), (0, 3), (1, 2)})),
    "V": Frame(frozenset(range(4)), frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)})),
    "Lambda": Frame(frozenset(range(4)), frozenset({(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)})),
}


class TestRootedTable:
    """`itf_valid_small` sweeps one rooted ITF frame of each shape. That
    decides validity on every ITF frame of at most n worlds because each
    point-generated subframe of such a frame is one of the listed shapes."""

    def test_each_frame_is_rooted_itf(self):
        for fr in _ROOTED_ITF:
            assert is_itf(fr)
            assert _generated(fr, 0) == fr

    def test_no_two_frames_are_isomorphic(self):
        for i, a in enumerate(_ROOTED_ITF):
            for b in _ROOTED_ITF[i + 1:]:
                assert not _isomorphic(a, b), (a, b)

    def test_listed_by_size(self):
        sizes = [len(fr.worlds) for fr in _ROOTED_ITF]
        assert sizes == [1, 2, 3, 3, 4, 4, 4, 4, 4]

    def test_every_generated_subframe_is_listed(self):
        for fr in reference_itf_frames(4):
            for w in fr.worlds:
                sub = _generated(fr, w)
                assert any(_isomorphic(sub, t) for t in _ROOTED_ITF), sub

    def test_agrees_with_every_labelled_frame(self):
        # Random formulas over 1 to 3 atoms, a third of them behind a
        # conjunction of the first 6, 9 or 10 atoms; half made valid by
        # `g || Not g`, so that the sweep reaches the larger frames and,
        # with 9 or more atoms, the size guard at 3 worlds. (A valid
        # formula of 6 to 8 atoms sweeps up to 2**24 valuations on each of
        # the 219 labelled 4-world frames, so n = 4 takes only 9 or 10.)
        rng = random.Random(12)
        names = [f"a{i}" for i in range(10)]
        calls = {1: 0, 2: 0, 3: 0, 4: 0}
        guarded = 0
        while min(calls[1], calls[2], calls[3]) < 170 or calls[4] < 60:
            n = rng.choice([1, 2, 3, 3, 4])
            if n == 4 and calls[4] >= 60:
                continue
            g = random_formula(rng, rng.randint(1, 5), names[: rng.randint(1, 3)])
            if rng.random() < 0.3:
                k = rng.choice((9, 10) if n == 4 else (6, 9, 10))
                wide = [Atom(a) for a in names[:k]]
                g = Imp(functools.reduce(And, wide), g)
            f = Or(g, Not(g)) if rng.random() < 0.5 else g
            want = _outcome(reference_itf_valid_small, f, n)
            assert _outcome(itf_valid_small, f, n) == want, (n, f)
            calls[n] += 1
            guarded += isinstance(want, str)
        assert guarded >= 20

    @pytest.mark.parametrize("name", _BRANCHING)
    def test_each_branching_frame_is_swept(self, name):
        # Its Jankov-Fine formula holds on every other rooted shape of at
        # most its size, so only this frame refutes it: dropped from the
        # table, the sweep would call the formula valid.
        fr = _BRANCHING[name]
        n = len(fr.worlds)
        f = _jankov_fine(fr)
        assert not valid_on_frame(fr, f)
        others = [g for g in _ROOTED_ITF if len(g.worlds) <= n and not _isomorphic(g, fr)]
        assert all(valid_on_frame(g, f) for g in others)
        assert reference_itf_valid_small(f, n) is False
        assert itf_valid_small(f, n) is False

    def test_the_fork_decides_connectedness(self):
        # Valid on every chain, refuted on the fork 0 -> 1, 0 -> 2.
        f = parse("Box (p && Box p --> q) || Box (q && Box q --> p)")
        fork, chain = _ROOTED_ITF[2], _ROOTED_ITF[3]
        assert valid_on_frame(chain, f) and not valid_on_frame(fork, f)
        assert itf_valid_small(f, 2) is True
        for n in (3, 4):
            assert itf_valid_small(f, n) is False
            assert reference_itf_valid_small(f, n) is False


class TestItfValidSmall:
    def test_reflection_fails(self):
        assert itf_valid_small(parse("Box p --> p"), 1) is False

    def test_true(self):
        assert itf_valid_small(TRUE, 3) is True

    def test_lob(self):
        assert itf_valid_small(LOB_INSTANCE, 3) is True

    def test_four_worlds(self):
        assert itf_valid_small(LOB_INSTANCE, 4) is True
        assert itf_valid_small(parse("Box Box Box False"), 4) is False

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            itf_valid_small(TRUE, 5)
        with pytest.raises(SizeGuardError):
            itf_valid_small(TRUE, 0)

    def test_cell_guard(self):
        # 7 atoms x 4 worlds = 28 cells: past the 24-cell sweep limit.
        f = parse(" && ".join(f"a{i}" for i in range(7)))
        g = Or(f, Not(f))
        assert itf_valid_small(g, 3) is True
        with pytest.raises(SizeGuardError, match="7 atoms x 4 worlds"):
            itf_valid_small(g, 4)


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


def test_evaluation_keeps_no_formula_alive():
    # A formula's program lives on its node, so once the caller drops the
    # formula nothing in kripke holds it.
    m = model({0, 1}, {(0, 1)}, {"p": {1}})
    f = parse("Box (p --> Box kept_alive) --> Not Box p")
    dead = weakref.ref(f)
    holds(m, f, 0)
    valid_on_frame(m.frame, f)
    itf_valid_small(f, 3)
    del f
    gc.collect()
    assert dead() is None


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


class TestOneView:
    """Every frame predicate but relation_well_typed reads the successor
    masks, so a pair naming an undeclared world is no edge anywhere."""

    @given(scattered_frames())
    def test_lob_is_transitive_and_acyclic_on_scattered_frames(self, frame_ids):
        fr, _ = frame_ids
        assert (
            frame_report(fr).validates_lob
            == (transitive(fr) and acyclic(fr))
            == valid_on_frame(fr, LOB_INSTANCE)
        )

    def test_predicates_match_the_edge_scans_on_declared_edges(self):
        # Worlds are drawn from 0..9, and relation pairs name any of them.
        rng = random.Random(18)
        for _ in range(1000):
            worlds = frozenset(rng.sample(range(10), rng.randint(4, 8)))
            density = rng.random()
            rel = frozenset(
                (x, y) for x in range(10) for y in range(10) if rng.random() < density / 2
            )
            fr = Frame(worlds, rel)
            ref = restricted(fr)
            assert irreflexive(fr) == reference_irreflexive(ref), fr
            assert transitive(fr) == reference_transitive(ref), fr
            assert acyclic(fr) == reference_acyclic(ref), fr
            assert is_itf(fr) == (
                relation_well_typed(fr) and reference_irreflexive(fr) and reference_transitive(fr)
            ), fr

    @pytest.mark.parametrize(
        "worlds, rel", [({0}, {(0, 5), (5, 0)}), ({0, 1}, {(0, 1), (1, 7)})]
    )
    def test_undeclared_worlds_make_no_edges(self, worlds, rel):
        fr = Frame(frozenset(worlds), frozenset(rel))
        rep = frame_report(fr)
        assert rep.transitive and rep.acyclic and rep.validates_lob
        assert not rep.relation_well_typed
        assert not is_itf(fr)

    def test_writers_leave_out_undeclared_worlds(self):
        m = model({3, 5, 8}, {(3, 5), (5, 9), (9, 8), (3, 3)}, {"p": {5, 9}, "q": {9}})
        doc = model_to_json(m)
        assert doc == {
            "worlds": ["w3", "w5", "w8"],
            "rel": [["w3", "w3"], ["w3", "w5"]],
            "val": {"p": ["w5"]},
        }
        m2, names = model_from_json(doc)
        assert m2.frame == relabel(m, {3: 0, 5: 1, 8: 2}).frame
        assert m2.val == {"p": frozenset({1})}
        assert model_to_json(m2, dict(enumerate(names))) == doc
        for dot in (frame_to_dot(m.frame), model_to_dot(m)):
            assert "w9" not in dot
            assert dot.count("->") == 2
