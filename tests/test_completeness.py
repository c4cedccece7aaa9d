import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

import glkit
from glkit import completeness, kripke
from glkit.completeness import (
    ClosureContext,
    Countermodel,
    StandardModel,
    Theorem,
    World,
    certificate_from_json,
    certificate_problem,
    certificate_to_json,
    closure_context,
    consistent,
    decide,
    extend_maximal_consistent,
    hintikka_worlds,
    saturate,
    standard_rel,
    verify_certificate,
)
from glkit.kripke import holds, is_itf, itf_valid_small
from glkit.limits import SizeGuardError
from glkit.syntax import (
    FALSE,
    And,
    Atom,
    Box,
    Imp,
    Not,
    canonical_key,
    canonical_order,
    children,
    parse,
    print_formula,
    subformulas,
)
from helpers import (
    box_subformula_count,
    formulas,
    holds_on_models,
    imp_read_as_or,
    random_formula,
    random_guarded_formula,
    random_itf_model,
    reference_extend_maximal_consistent,
    reference_pattern_sweep,
    reference_saturated,
    reference_selected_countermodel,
    reference_signed_closure,
    reference_verify_certificate,
)

p, q = Atom("p"), Atom("q")


def world_of(ctx, *texts):
    """Look up the hintikka world with exactly these members."""
    want = frozenset(parse(t) for t in texts)
    for w in hintikka_worlds(ctx):
        if w.member_set == want:
            return w
    raise AssertionError(f"no world with members {texts}")


class TestHintikkaWorlds:
    def test_atom_two_worlds(self):
        ws = hintikka_worlds(closure_context(p))
        assert {w.member_set for w in ws} == {
            frozenset({p}),
            frozenset({Not(p)}),
        }

    def test_implication_four_worlds(self):
        ws = hintikka_worlds(closure_context(Imp(p, q)))
        assert len(ws) == 4

    def test_boxed_four_worlds(self):
        ws = hintikka_worlds(closure_context(parse("Box p --> p")))
        assert len(ws) == 4

    def test_world_count_law(self):
        for text in ["p", "p && q", "Box p --> p", "Box (p --> Box q)", "Not p"]:
            ctx = closure_context(parse(text))
            n_atoms = sum(1 for g in ctx.closure if isinstance(g, Atom))
            n_boxes = sum(1 for g in ctx.closure if isinstance(g, Box))
            assert len(hintikka_worlds(ctx)) == 2 ** (n_atoms + n_boxes)

    def test_members_canonically_ordered_and_complete(self):
        ctx = closure_context(parse("Box p --> (p && q)"))
        for w in hintikka_worlds(ctx):
            ks = [canonical_key(m) for m in w.members]
            assert ks == sorted(ks)
            for g in ctx.closure:
                assert (g in w) != (Not(g) in w)

    def test_boolean_coherence(self):
        ctx = closure_context(parse("(p && q) --> (Not p || q)"))
        for w in hintikka_worlds(ctx):
            assert (And(p, q) in w) == (p in w and q in w)
            assert (Not(p) in w) == (p not in w)
            assert (parse("Not p || q") in w) == (Not(p) in w or q in w)
            assert (ctx.target in w) == (
                And(p, q) not in w or parse("Not p || q") in w
            )

    def test_size_guard(self):
        wide = parse(" && ".join(f"a{i}" for i in range(17)))
        with pytest.raises(SizeGuardError):
            hintikka_worlds(closure_context(wide))


class TestStandardRel:
    def test_forward_pair_only(self):
        ctx = closure_context(parse("Box p --> p"))
        w = world_of(ctx, "p", "Not Box p", "Box p --> p")
        x = world_of(ctx, "p", "Box p", "Box p --> p")
        assert standard_rel(ctx, w, x) is True
        assert standard_rel(ctx, x, w) is False

    def test_irreflexive(self):
        ctx = closure_context(parse("Box p --> p"))
        for w in hintikka_worlds(ctx):
            assert standard_rel(ctx, w, w) is False

    @pytest.mark.parametrize(
        "text", ["Box p --> p", "Box p --> Box Box p", "Box (p && q)"]
    )
    def test_irreflexive_transitive_exhaustive(self, text):
        ctx = closure_context(parse(text))
        ws = hintikka_worlds(ctx)
        for w in ws:
            assert not standard_rel(ctx, w, w)
        for a in ws:
            for b in ws:
                if not standard_rel(ctx, a, b):
                    continue
                for c in ws:
                    if standard_rel(ctx, b, c):
                        assert standard_rel(ctx, a, c)

    def test_world_of_another_target_rejected(self):
        ws = hintikka_worlds(closure_context(parse("Box p")))
        ctx = closure_context(parse("r"))
        (own,) = [w for w in hintikka_worlds(ctx) if parse("r") in w]
        for w, x in [(ws[0], ws[1]), (ws[0], own), (own, ws[0])]:
            with pytest.raises(ValueError, match="not a world of this context"):
                standard_rel(ctx, w, x)


class TestSaturate:
    def test_no_obligations(self):
        ctx = closure_context(p)
        w = world_of(ctx, "p")
        assert saturate(ctx, w) is True

    def test_unsatisfiable_obligation(self):
        # The successor core {Box (p && p), Not (p && p), Box p, p} is
        # propositionally incoherent, so no witness world exists.
        ctx = closure_context(parse("Box p --> Box (p && p)"))
        refuting = [
            w
            for w in hintikka_worlds(ctx)
            if Box(p) in w and Not(Box(And(p, p))) in w
        ]
        assert len(refuting) == 2
        for w in refuting:
            assert saturate(ctx, w) is False

    def test_satisfiable_obligation(self):
        ctx = closure_context(parse("Box p --> p"))
        w = world_of(ctx, "p", "Not Box p", "Box p --> p")
        assert saturate(ctx, w) is True

    def test_foreign_world_rejected(self):
        ctx = closure_context(p)
        with pytest.raises(ValueError):
            saturate(ctx, World(q, (q,)))

    def test_foreign_context_rejected(self):
        # A context takes its target alone, so no context can disagree
        # with its target; one built afresh reads the cached context's
        # worlds.
        ctx = closure_context(parse("Box p --> p"))
        w = world_of(ctx, "p", "Not Box p", "Box p --> p")
        with pytest.raises(TypeError):
            ClosureContext(ctx.target, ctx.closure)
        assert saturate(ClosureContext(ctx.target), w) is True

    @pytest.mark.parametrize("target", ["p", 3, None])
    def test_target_not_a_formula_rejected(self, target):
        for build in (ClosureContext, closure_context, lambda t: World(t, ())):
            with pytest.raises(TypeError, match="target must be a Formula"):
                build(target)


def _reference_cases():
    """The targets of acceptance criterion 7, one target whose saturation
    needs two levels, then 200 random formulas with at most 6 decision
    bits, each with its reference saturated set."""
    c07 = ["p", "Not p", "Box p", "Box p --> p", "p && q", "Box Not p"]
    # A world with Not Box (Box False --> Box p) and Not Box False has one
    # propositional successor, holding Box False and Not Box p, and that
    # one is unsaturated.
    targets = [parse(t) for t in c07 + ["Box (Box False --> Box p)"]]
    rng = random.Random(313)
    while len(targets) < 207:
        f = random_formula(rng, 4, ("p", "q", "r"))
        if len(closure_context(f).decisions) <= 6:
            targets.append(f)
    return [(ctx, reference_saturated(ctx)) for ctx in map(closure_context, targets)]


class TestAgainstReference:
    @pytest.fixture(scope="class")
    def cases(self):
        return _reference_cases()

    def test_saturate_matches_reference(self, cases):
        for ctx, saturated in cases:
            for w in hintikka_worlds(ctx):
                assert saturate(ctx, w) == (w in saturated), print_formula(ctx.target)

    def test_witness_is_first_saturated_refuting_world(self, cases):
        refuted = 0
        for ctx, saturated in cases:
            v = decide(ctx.target)
            refuting = [
                w for w in hintikka_worlds(ctx) if w in saturated and Not(ctx.target) in w
            ]
            if not refuting:
                assert isinstance(v, Theorem), print_formula(ctx.target)
                continue
            refuted += 1
            assert v.witness == refuting[0], print_formula(ctx.target)
        assert refuted > 0

    def test_emitted_worlds_are_the_witness_and_its_successors(self, cases):
        # The selected submodel: the witness and some of its saturated
        # successors, as the selection's definition picks them.
        for ctx, saturated in cases:
            v = decide(ctx.target)
            if isinstance(v, Theorem):
                continue
            successors = {x for x in saturated if standard_rel(ctx, v.witness, x)}
            assert v.witness in v.model.worlds
            assert set(v.model.worlds) <= successors | {v.witness}
            assert v == reference_selected_countermodel(ctx.target), print_formula(ctx.target)

    def test_worlds_are_ordered_by_their_member_lists(self, cases):
        # Pins the mask order of `hintikka_worlds` and `decide`, and
        # `first` (through the witness test above), to the canonical
        # order of member lists.
        for ctx, _ in cases:
            ws = hintikka_worlds(ctx)
            assert len(set(ws)) == 1 << len(ctx.decisions)
            by_members = sorted(ws, key=lambda w: [canonical_key(m) for m in w.members])
            assert list(ws) == by_members, print_formula(ctx.target)

    def test_extension_matches_the_greedy_reference(self, cases):
        rng = random.Random(2121)
        outcomes = {"world": 0, "inconsistent": 0, "repetitions": 0}
        for _ in range(600):
            ctx, _ = rng.choice(cases)
            seed = [s for s in ctx.signed_closure if rng.random() < 0.3]
            rng.shuffle(seed)
            if seed and rng.random() < 0.05:
                seed.append(rng.choice(seed))
            try:
                want = reference_extend_maximal_consistent(ctx, seed)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    extend_maximal_consistent(ctx, seed)
                assert str(got.value) == str(e), print_formula(ctx.target)
                outcomes["repetitions" if "repetitions" in str(e) else "inconsistent"] += 1
                continue
            got = extend_maximal_consistent(ctx, seed)
            assert got == want and got.members == want.members, print_formula(ctx.target)
            outcomes["world"] += 1
        assert min(outcomes.values()) > 0, outcomes


def _chain(k: int, theorem: bool):
    """Box (a0 --> a1) && ... --> Box (a0 --> an) && Box Box an, with k =
    2n + 4 decision bits; with || in place of the last && it is a theorem."""
    n = (k - 4) // 2
    links = " && ".join(f"Box (a{i} --> a{i + 1})" for i in range(n))
    op = "||" if theorem else "&&"
    return parse(f"{links} --> Box (a0 --> a{n}) {op} Box Box a{n}")


class TestLargeChains:
    def test_k16_theorem(self):
        f = _chain(16, True)
        assert len(closure_context(f).decisions) == 16
        assert isinstance(decide(f), Theorem)

    def test_k14_refutation_verifies(self):
        f = _chain(14, False)
        assert len(closure_context(f).decisions) == 14
        v = decide(f)
        assert isinstance(v, Countermodel)
        assert verify_certificate(certificate_from_json(certificate_to_json(v))) is True

    def test_k14_round_trip_builds_one_record(self):
        # decide, the printer and the load all find the target's one
        # cached closure context, so its closure is worked out once.
        completeness.closure_context.cache_clear()
        v = decide(_chain(14, False))
        reloaded = certificate_from_json(certificate_to_json(v))
        assert completeness.closure_context.cache_info().misses == 1
        assert reloaded.model.context is v.model.context
        assert verify_certificate(reloaded) is True

    def test_k14_load_without_the_record_builds_its_own(self):
        # As in a fresh process: the load works the closure context out
        # from the target text and builds no engine.
        f = _chain(14, False)
        v = decide(f)
        doc = certificate_to_json(v)
        completeness.closure_context.cache_clear()
        reloaded = certificate_from_json(doc)
        assert completeness.closure_context.cache_info().misses == 1
        assert "engine" not in vars(completeness.closure_context(f))
        assert reloaded.model.context is not v.model.context
        assert reloaded.model.context == v.model.context
        assert verify_certificate(reloaded) is True

    def test_k14_theorem_builds_no_context(self):
        # The engine reads the context's closure and decisions only, so a
        # theorem verdict builds neither `pairs` nor the signed closure
        # and makes none of its Not nodes.
        f = _chain(14, True)
        completeness.closure_context.cache_clear()
        assert isinstance(decide(f), Theorem)
        ctx = completeness.closure_context(f)
        assert "pairs" not in vars(ctx) and "signed_closure" not in vars(ctx)

    def test_context_of_another_target_rejected(self):
        v = decide(_chain(6, False))
        with pytest.raises(ValueError, match="another target"):
            StandardModel(parse("p"), v.model.worlds, v.model.rel)

    def test_k14_hash_derives_no_members(self):
        # A world hashes as its target and mask, so hashing a decided
        # model derives no member list and no signed closure.
        f = _chain(14, False)
        completeness.closure_context.cache_clear()
        v = decide(f)
        hash(v.model)
        assert len({*v.model.worlds}) == len(v.model.worlds)
        assert all("members" not in vars(w) for w in v.model.worlds)
        assert "signed_closure" not in vars(completeness.closure_context(f))


class TestPatternSweep:
    """The depth-first walk over box patterns gives the saturated set of
    the popcount-ordered sweep."""

    def test_box_towers(self):
        for n in range(2, 12):
            ctx = closure_context(parse("Box " * n + "p --> Box p"))
            assert ctx.engine.saturated == reference_pattern_sweep(ctx), n

    @pytest.mark.parametrize("k", range(6, 15, 2))
    def test_chain_rungs(self, k):
        for theorem in (True, False):
            ctx = closure_context(_chain(k, theorem))
            assert ctx.engine.saturated == reference_pattern_sweep(ctx), theorem

    def test_random_formulas(self):
        # 500 formulas, about as many with each count of boxes from 0 to 8.
        rng = random.Random(2424)
        drawn = dict.fromkeys(range(9), 0)
        while sum(drawn.values()) < 500:
            f = random_formula(rng, 8, ("p", "q", "r"))
            b = box_subformula_count(f)
            if drawn.get(b, 56) < 56:
                drawn[b] += 1
                ctx = closure_context(f)
                assert ctx.engine.saturated == reference_pattern_sweep(ctx), print_formula(f)


def _members_by_mask(ctx: ClosureContext, w: World) -> tuple:
    """w's members read off its mask and the re-sorted signed closure."""
    index = {g: i for i, g in enumerate(ctx.closure)}
    return tuple(
        s for s in reference_signed_closure(ctx.closure)
        if (w._mask >> index[s] & 1 if s in index else not w._mask >> index[s.arg] & 1)
    )


class TestLazyPairs:
    """`ClosureContext.pairs`, read off the signed closure, is built on
    first use; deciding never reads it (see
    `test_k14_theorem_builds_no_context` and
    `test_round_trip_derives_no_members`)."""

    def test_refutation_members_build_it(self):
        f = parse(RICH)
        completeness.closure_context.cache_clear()
        v = decide(f)
        ctx = closure_context(f)
        assert "pairs" not in vars(ctx)
        assert [w.members for w in v.model.worlds] == [
            _members_by_mask(ctx, w) for w in v.model.worlds
        ]
        assert "pairs" in vars(ctx)
        assert v == reference_selected_countermodel(f)

    def test_hintikka_worlds_members_build_it(self):
        ctx = ClosureContext(parse("Box (p --> Box q) --> Not Box p"))
        ws = hintikka_worlds(ctx)
        assert "pairs" not in vars(ctx)
        assert [w.members for w in ws] == [_members_by_mask(ctx, w) for w in ws]
        assert "pairs" in vars(ctx)

    def test_extension_builds_it(self):
        f = parse("Box (p --> Box q) --> Not Box p")
        seed = [Not(f), Not(q)]
        ctx = ClosureContext(f)
        m = extend_maximal_consistent(ctx, seed)
        assert "pairs" in vars(ctx)
        assert m == reference_extend_maximal_consistent(closure_context(f), seed)


class TestMaskWorlds:
    """Worlds that decide and the loader build are their closure masks."""

    @staticmethod
    def refutable():
        rng = random.Random(19)
        targets = [_chain(k, False) for k in (6, 8, 10)]
        while len(targets) < 60:
            f = random_formula(rng, 5)
            if len(closure_context(f).decisions) <= 10 and isinstance(decide(f), Countermodel):
                targets.append(f)
        return targets

    def test_round_trip_derives_no_members(self):
        for f in self.refutable():
            completeness.closure_context.cache_clear()
            v = decide(f)
            reloaded = certificate_from_json(json.loads(json.dumps(certificate_to_json(v))))
            assert verify_certificate(reloaded) is True
            for w in (*v.model.worlds, *reloaded.model.worlds):
                assert "members" not in vars(w)
            ctx = completeness.closure_context(f)
            assert "pairs" not in vars(ctx) and "signed_closure" not in vars(ctx)

    def test_equal_to_the_world_of_its_members(self):
        for f in self.refutable():
            v = decide(f)
            ws = v.model.worlds
            for i, w in enumerate(ws):
                twin = World(f, w.members)
                assert w == twin and twin == w and not w != twin
                assert hash(w) == hash(twin)
                assert [twin == x for x in ws] == [j == i for j in range(len(ws))]

    def test_worlds_of_one_record_compare_by_mask(self):
        v = decide(parse(RICH))
        reloaded = certificate_from_json(certificate_to_json(v))
        assert reloaded.model.worlds == v.model.worlds
        assert all("members" not in vars(w) for w in (*v.model.worlds, *reloaded.model.worlds))

    @pytest.mark.parametrize(
        "mask, members",
        [
            (0, "Not Not p ; Not (Not p --> p)"),
            (1, "p ; Not Not p ; Not (Not p --> p)"),
            (2, "Not p ; Not (Not p --> p)"),
            (3, "p ; Not p ; Not (Not p --> p)"),
            (4, "Not Not p ; Not p --> p"),
            (5, "p ; Not Not p ; Not p --> p"),
            (6, "Not p ; Not p --> p"),
            (7, "p ; Not p ; Not p --> p"),
        ],
    )
    def test_members_of_every_mask(self, mask, members):
        # The loader takes any mask below 2**n, Hintikka world or not.
        # Not p is a closure member, so it is listed once, at its own
        # position: held when bit 1 is set, and never as p's negation.
        ctx = ClosureContext(parse("Not p --> p"))
        assert [print_formula(g) for g in ctx.closure] == ["p", "Not p", "Not p --> p"]
        assert " ; ".join(map(print_formula, ctx.world(mask).members)) == members


class TestDecide:
    def test_false_has_countermodel(self):
        v = decide(FALSE)
        assert isinstance(v, Countermodel)
        assert verify_certificate(v) is True

    def test_lob_is_theorem(self):
        assert isinstance(decide(parse("Box (Box p --> p) --> Box p")), Theorem)

    def test_reflection_countermodel(self):
        v = decide(parse("Box p --> p"))
        assert isinstance(v, Countermodel)
        assert Not(parse("Box p --> p")) in v.witness
        m = v.model.to_model()
        widx = v.model.worlds.index(v.witness)
        assert holds(m, parse("Box p --> p"), widx) is False
        assert holds(m, Box(p), widx) is True  # vacuously, witness is terminal

    def test_box_iff_is_theorem(self):
        assert isinstance(decide(parse("Box (p <-> q) --> (Box p <-> Box q)")), Theorem)

    def test_four_is_theorem(self):
        # Transitivity schema, derivable in GL.
        assert isinstance(decide(parse("Box p --> Box Box p")), Theorem)

    def test_deterministic(self):
        f = parse("Box p --> p")
        v1, v2 = decide(f), decide(f)
        assert v1 == v2
        assert certificate_to_json(v1) == certificate_to_json(v2)

    def test_size_guard(self):
        wide = parse(" && ".join(f"a{i}" for i in range(17)))
        with pytest.raises(SizeGuardError):
            decide(wide)

    def test_countermodel_frame_is_itf(self):
        v = decide(parse("Box p --> q"))
        assert isinstance(v, Countermodel)
        assert is_itf(v.model.to_model().frame)

    def test_rel_matches_standard_rel(self):
        v = decide(parse("Box p --> p"))
        ctx = v.model.context
        ws = v.model.worlds
        pairs = set(v.model.rel)
        for i, a in enumerate(ws):
            for j, b in enumerate(ws):
                assert ((i, j) in pairs) == standard_rel(ctx, a, b)

    def test_frame_condition(self):
        # Box q in w iff q belongs to every standard successor.
        for text in ["Box p --> p", "Not Box p", "Box p --> Box Box p"]:
            v = decide(parse(text))
            if not isinstance(v, Countermodel):
                continue
            ctx = v.model.context
            ws = v.model.worlds
            pairs = set(v.model.rel)
            for g in ctx.closure:
                if not isinstance(g, Box):
                    continue
                for i, w in enumerate(ws):
                    succ_all = all(
                        g.arg in ws[j] for (a, j) in pairs if a == i
                    )
                    assert (g in w) == succ_all


class TestVerifyCertificate:
    def test_good_certificate(self):
        v = decide(parse("Box p --> p"))
        assert verify_certificate(v) is True

    def test_reflexive_edge_rejected(self):
        v = decide(parse("Box p --> p"))
        sm = v.model
        tampered = Countermodel(
            type(sm)(sm.target, sm.worlds, sm.rel + ((0, 0),)), v.witness
        )
        assert verify_certificate(tampered) is False

    def test_witness_must_contain_negated_target(self):
        # The witness of Box p has successors, and they hold Box p.
        v = decide(parse("Box p"))
        other = next(
            w for w in v.model.worlds if Not(v.model.target) not in w
        )
        assert verify_certificate(Countermodel(v.model, other)) is False

    def test_foreign_witness_rejected(self):
        v = decide(parse("Box p --> p"))
        assert verify_certificate(Countermodel(v.model, World(p, (p,)))) is False

    def test_dropped_edges_break_truth_lemma(self):
        # Every edge source carries a negated box, so stripping all of a
        # source's edges makes that box vacuously true against membership.
        v = decide(parse("Box p"))
        assert isinstance(v, Countermodel)
        sm = v.model
        assert sm.rel, "expected a nonempty relation"
        src = sm.rel[0][0]
        kept = tuple(e for e in sm.rel if e[0] != src)
        tampered = Countermodel(type(sm)(sm.target, sm.worlds, kept), v.witness)
        assert verify_certificate(tampered) is False

    def test_theorem_has_no_certificate(self):
        with pytest.raises(TypeError):
            verify_certificate(Theorem(p))  # type: ignore[arg-type]

    def test_model_built_once_with_a_read_only_valuation(self):
        sm = decide(parse("Box p --> p")).model
        m = sm.to_model()
        assert sm.to_model() is m
        assert dict(m.val) == {"p": frozenset(i for i, w in enumerate(sm.worlds) if p in w)}
        with pytest.raises(TypeError):
            m.val["p"] = frozenset()
        with pytest.raises(TypeError):
            del m.val["p"]


def stream_corpus() -> list:
    """The benchmark's `stream` corpus before its per-seed renaming: 200
    formulas of depth at most 5 over p, q, r with at most 4 distinct
    boxes, drawn from seed 7."""
    rng = random.Random(7)
    return [random_guarded_formula(rng, 5, ("p", "q", "r"), 4) for _ in range(200)]


def refutable_rungs() -> list:
    """The `ladder` benchmark's refutable rungs, k = 6 and 8, and k = 10."""
    return [_chain(k, False) for k in (6, 8, 10)]


def assert_selected_submodel(v: Countermodel) -> None:
    """What the truth lemma needs of the selected submodel: every edge is
    a standard edge, every negated box of every world has a successor
    holding its body's negation, the relation is transitive, and every
    world is the witness or a saturated standard successor of it."""
    sm = v.model
    ctx, ws, rel = sm.context, sm.worlds, set(sm.rel)
    for i, j in rel:
        assert standard_rel(ctx, ws[i], ws[j])
    for i, w in enumerate(ws):
        for g in ctx.closure:
            if isinstance(g, Box) and g not in w:
                assert any(Not(g.arg) in ws[j] for k, j in rel if k == i), (w, g)
    assert all((x, z) in rel for x, y in rel for u, z in rel if u == y)
    for w in ws:
        assert w == v.witness or (standard_rel(ctx, v.witness, w) and saturate(ctx, w))


class TestSelection:
    """`decide`'s countermodels against the selection built from its
    definition (`reference_selected_countermodel`)."""

    @pytest.fixture(scope="class")
    def targets(self):
        # In the last, the witness meets Box q and Box (p && q) with one
        # world, which holds Not q. The world it selects for
        # Box Box (p && q) holds Box q, so it meets Box (p && q) with
        # another world, one holding q, and only the transitive closure
        # relates the witness to that one.
        return [*stream_corpus(), *refutable_rungs(), parse("Box q || Box Box (p && q)")]

    def test_equals_the_reference(self, targets):
        refuted = 0
        for f in targets:
            want = reference_selected_countermodel(f)
            assert decide(f) == want, print_formula(f)
            refuted += isinstance(want, Countermodel)
        assert refuted > 100

    def test_truth_lemma_premises(self, targets):
        for f in targets:
            v = decide(f)
            if isinstance(v, Countermodel):
                assert_selected_submodel(v)

    @given(formulas(max_leaves=10))
    def test_random_formulas(self, f):
        v = decide(f)
        assert v == reference_selected_countermodel(f)
        if isinstance(v, Countermodel):
            assert_selected_submodel(v)


def member_list_mutants(v: Countermodel, rng: random.Random):
    """(kind, i, members) triples: the member list of world i of v with
    one member dropped, one added in canonical place, or one appended."""
    sm, ctx = v.model, v.model.context
    i = rng.randrange(len(sm.worlds))
    members = sm.worlds[i].members
    j = rng.randrange(len(members))
    yield "member dropped", i, members[:j] + members[j + 1:]
    extra = rng.choice([s for s in ctx.signed_closure if s not in sm.worlds[i]])
    yield "member added", i, tuple(canonical_order([*members, extra]))
    yield "member appended", i, members + (extra,)


def certificate_mutants(v: Countermodel, rng: random.Random):
    """(kind, certificate) pairs, each v with one thing changed."""
    sm, ctx = v.model, v.model.context
    wi = sm.worlds.index(v.witness)

    def swap(i, w):
        worlds = sm.worlds[:i] + (w,) + sm.worlds[i + 1:]
        witness = w if i == wi else v.witness
        return Countermodel(StandardModel(sm.target, worlds, sm.rel), witness)

    def with_rel(rel):
        return Countermodel(StandardModel(sm.target, sm.worlds, tuple(sorted(rel))), v.witness)

    i = rng.randrange(len(sm.worlds))
    compound = [q for q in ctx.closure if not isinstance(q, Atom)]
    if compound:
        # World i with the truth of one non-atom closure formula flipped:
        # the valuation stays, so the formula's truth there does too.
        truth = {q: q in sm.worlds[i] for q in ctx.closure}
        q = rng.choice(compound)
        truth[q] = not truth[q]
        flipped = [s for s in ctx.signed_closure if (truth[s] if s in truth else not truth[s.arg])]
        yield "member flipped", swap(i, World(sm.target, flipped))
    for w in sm.worlds:
        if w != v.witness:
            yield "witness moved", Countermodel(sm, w)
    rel = set(sm.rel)
    for x, z in sm.rel:
        if any((x, y) in rel and (y, z) in rel for y in range(len(sm.worlds))):
            yield "transitive edge dropped", with_rel(rel - {(x, z)})
    yield "loop added", with_rel(rel | {(i, i)})


class TestVerifyAgainstReference:
    """The mask-based `verify_certificate` against the frozenset-based
    reference on the `stream` corpus's certificates and their mutants."""

    @pytest.fixture(scope="class")
    def certificates(self):
        # A selected submodel has a transitive edge only where the
        # selection goes two steps deep, so the refutable rungs and deeper
        # seeded formulas join the corpus to give enough such mutants.
        rng = random.Random(24)
        deeper = [random_guarded_formula(rng, 7, ("p", "q", "r"), 6) for _ in range(200)]
        verdicts = [decide(f) for f in (*stream_corpus(), *refutable_rungs(), *deeper)]
        return [v for v in verdicts if isinstance(v, Countermodel)]

    def test_corpus(self, certificates):
        assert len(certificates) > 100
        for v in certificates:
            assert verify_certificate(v) is reference_verify_certificate(v) is True
            reloaded = certificate_from_json(certificate_to_json(v))
            assert verify_certificate(reloaded) is reference_verify_certificate(reloaded) is True

    def test_mutants(self, certificates):
        rng = random.Random(12)
        seen: dict[tuple[str, bool], int] = {}
        for v in certificates:
            for kind, bad in certificate_mutants(v, rng):
                got = verify_certificate(bad)
                assert got is reference_verify_certificate(bad), (kind, bad)
                seen[kind, got] = seen.get((kind, got), 0) + 1
        for kind in ("member flipped", "loop added"):
            assert seen.get((kind, False), 0) >= 100 and (kind, True) not in seen, kind
        assert seen.get(("transitive edge dropped", False), 0) >= 20
        assert ("transitive edge dropped", True) not in seen
        # A moved witness is still accepted where the new world also
        # refutes the target.
        assert seen.get(("witness moved", False), 0) >= 100

    def test_mutant_reasons(self, certificates):
        # Each kind of mutant is rejected for its own reason.
        rng = random.Random(12)
        reasons = {
            "member flipped": r"^world \d+, closure position \d+: the mask says",
            "witness moved": r"^world \d+, closure position \d+: the witness does not refute",
            "transitive edge dropped": r"^the frame is not ITF: world \d+ reaches world \d+",
            "loop added": r"^the frame is not ITF: world \d+ is its own successor$",
        }
        for v in certificates:
            for kind, bad in certificate_mutants(v, rng):
                reason = certificate_problem(bad)
                assert reason is None or re.match(reasons[kind], reason), (kind, reason)

    def test_writer_refuses_or_keeps_every_mutant(self, certificates):
        # Every mutant is written, and its reload verifies exactly when
        # the mutant does.
        rng = random.Random(12)
        for v in certificates:
            for kind, bad in certificate_mutants(v, rng):
                doc = certificate_to_json(bad)
                reloaded = certificate_from_json(json.loads(json.dumps(doc)))
                assert verify_certificate(reloaded) is verify_certificate(bad), kind

    def test_constructor_refuses_member_list_mutants(self, certificates):
        # A member list that is not one signed member per closure formula,
        # in canonical order, makes no world. A few mutants are such a list:
        # they add or drop a closure formula q whose negation is itself a
        # closure formula, so each bit still has a reading. The world they
        # make is no Hintikka set, and both verifiers reject it.
        rng = random.Random(12)
        refused: dict[str, int] = {}
        for v in certificates:
            sm, wi = v.model, v.model.worlds.index(v.witness)
            for kind, i, members in member_list_mutants(v, rng):
                try:
                    w = World(sm.target, members)
                except ValueError as e:
                    assert "one signed member per closure formula" in str(e)
                    refused[kind] = refused.get(kind, 0) + 1
                    continue
                assert w.members == members
                worlds = sm.worlds[:i] + (w,) + sm.worlds[i + 1:]
                bad = Countermodel(StandardModel(sm.target, worlds, sm.rel), worlds[wi])
                assert verify_certificate(bad) is reference_verify_certificate(bad) is False
        for kind in ("member dropped", "member added", "member appended"):
            assert refused.get(kind, 0) >= 100, kind


class TestIndependence:
    """The checker evaluates the closure itself: a search whose evaluator
    is wrong still emits countermodels, and they are rejected."""

    def test_wrong_imp_in_the_search_is_caught(self, monkeypatch):
        texts = ("p --> p", "Box (Box p --> p) --> Box p", "Box p --> Box Box p",
                 "Box (p && q) --> Box p")
        theorems = [parse(t) for t in texts]
        completeness.closure_context.cache_clear()
        try:
            with monkeypatch.context() as patched:
                patched.setattr(kripke, "_run", imp_read_as_or(kripke._run))
                for f in theorems:
                    v = decide(f)
                    assert isinstance(v, Countermodel), print_formula(f)
                    reason = certificate_problem(v)
                    assert reason is not None and "closure position" in reason, reason
                    assert verify_certificate(v) is False
                    # A check that evaluates through the same runner is fooled.
                    assert reference_verify_certificate(v) is True
        finally:
            completeness.closure_context.cache_clear()
        assert all(isinstance(decide(f), Theorem) for f in theorems)


class TestTheoremOracle:
    """Theorem verdicts against random irreflexive transitive models of up
    to 10 worlds: a stronger check than every frame of at most 3 worlds,
    since refuting a formula with b boxes can need a chain of b + 1."""

    @pytest.fixture(scope="class")
    def models(self):
        rng = random.Random(41)
        return [random_itf_model(rng) for _ in range(300)]

    def test_models_are_itf(self, models):
        assert all(is_itf(m.frame) for m in models)
        assert max(len(m.frame.worlds) for m in models) == 10

    def test_theorems_with_three_boxes_hold(self, models):
        rng = random.Random(43)
        theorems = 0
        while theorems < 60:
            f = random_formula(rng, 5)
            if box_subformula_count(f) >= 3 and isinstance(decide(f), Theorem):
                theorems += 1
                assert holds_on_models(f, models), print_formula(f)

    def test_box_box_box_false(self, models):
        # It holds on every frame of at most 3 worlds, but not on a chain
        # of 4: the oracle refutes it and decide does too.
        f = parse("Box Box Box False")
        assert itf_valid_small(f, 3)
        assert not itf_valid_small(f, 4)
        assert not holds_on_models(f, models)
        v = decide(f)
        assert isinstance(v, Countermodel) and verify_certificate(v)
        assert len(v.model.worlds) == 4


class TestConsistent:
    def test_contradictory_pair(self):
        assert consistent([p, Not(p)]) is False

    def test_falsity(self):
        assert consistent([FALSE]) is False

    def test_box_false(self):
        assert consistent([Box(FALSE)]) is True

    def test_empty(self):
        assert consistent([]) is True

    def test_long_list_meets_the_size_guard(self):
        # 1500 decision bits exceed the world enumeration limit of 16.
        with pytest.raises(SizeGuardError):
            consistent([Atom(f"a{i}") for i in range(1500)])


class TestExtendMaximalConsistent:
    def test_already_complete(self):
        ctx = closure_context(p)
        m = extend_maximal_consistent(ctx, [Not(p)])
        assert m.members == (Not(p),)

    def test_positive_tried_first(self):
        ctx = closure_context(p)
        m = extend_maximal_consistent(ctx, [])
        assert m.members == (p,)

    def test_inconsistent_seed_rejected(self):
        ctx = closure_context(p)
        with pytest.raises(ValueError):
            extend_maximal_consistent(ctx, [p, Not(p)])

    def test_out_of_closure_rejected(self):
        ctx = closure_context(p)
        with pytest.raises(ValueError):
            extend_maximal_consistent(ctx, [q])

    def test_duplicate_seed_rejected(self):
        ctx = closure_context(parse("p && p"))
        with pytest.raises(ValueError):
            extend_maximal_consistent(ctx, [p, p])

    def test_extension_adds_no_cache_entry(self):
        # The walk reads the engine of ctx, so it decides no other target.
        f = parse(
            "Box (a0 --> a1) && Box (a1 --> a2) && Box (a2 --> a3)"
            " --> Box (a0 --> a3) && Box Box a3"
        )
        ctx = closure_context(f)
        misses = closure_context.cache_info().misses
        m = extend_maximal_consistent(ctx, [Not(f)])
        assert closure_context.cache_info().misses == misses
        assert Not(f) in m and saturate(ctx, m)

    def test_extension_is_world_containing_seed(self):
        ctx = closure_context(parse("Box p --> (p && q)"))
        seed = [Box(p), Not(q)]
        m = extend_maximal_consistent(ctx, seed)
        assert m in hintikka_worlds(ctx)
        assert all(s in m for s in seed)


def reference_certificate_json(v: Countermodel) -> dict:
    """The certificate document built from its definition: each closure
    node from its children's closure positions, and each world's mask bit
    by bit from its membership."""
    sm = v.model
    closure = subformulas(sm.target)
    pos = {g: i for i, g in enumerate(closure)}

    def node(g):
        if not children(g):
            return print_formula(g)
        return [type(g).__name__, *(pos[c] for c in children(g))]

    doc = kripke.model_to_json(sm.to_model())
    doc["target"] = print_formula(sm.target)
    doc["closure"] = [node(g) for g in closure]
    doc["witness"] = f"w{sm.worlds.index(v.witness)}"
    doc["world_truth"] = {
        f"w{i}": f"{sum(1 << j for j, g in enumerate(closure) if g in w):x}"
        for i, w in enumerate(sm.worlds)
    }
    return doc


class TestSignedClosure:
    @given(formulas())
    def test_equals_the_reference(self, f):
        ctx = closure_context(f)
        assert ctx.signed_closure == reference_signed_closure(ctx.closure)

    @given(formulas(max_leaves=8))
    def test_targets_holding_negations(self, f):
        g = Imp(Not(f), Not(Not(f)))
        ctx = closure_context(g)
        assert ctx.signed_closure == reference_signed_closure(ctx.closure)


def flip(doc: dict, world: str, i: int) -> None:
    """Flip bit i of world's mask in a certificate document."""
    doc["world_truth"][world] = f"{int(doc['world_truth'][world], 16) ^ 1 << i:x}"


# A target whose certificate has three worlds, two edges, two atoms and
# masks with hex letters in them.
RICH = "q --> Box (Box p --> q || p)"


class TestCertificateJson:
    @given(formulas(max_leaves=10))
    def test_equals_the_reference_document(self, f):
        v = decide(f)
        if isinstance(v, Countermodel):
            assert json.dumps(certificate_to_json(v)) == json.dumps(reference_certificate_json(v))

    @pytest.mark.parametrize(
        "text",
        [
            "p --> q --> r",
            "(p --> q) --> r",
            "p && q && r || p && (q || r)",
            "Not (p && q)",
            "Box Not Box p",
            "(p <-> q) <-> r",
            # 12 worlds, so the relation sorts w10 before w2.
            "Box " * 11 + "p",
        ],
    )
    def test_pinned_documents(self, text):
        v = decide(parse(text))
        doc = certificate_to_json(v)
        assert doc["target"] == text
        assert doc == reference_certificate_json(v)
        assert certificate_from_json(doc) == v

    def test_pinned_fields(self):
        doc = certificate_to_json(decide(parse(RICH)))
        assert doc["closure"] == [
            "p", "q", ["Box", 0], ["Or", 1, 0], ["Imp", 2, 3], ["Box", 4], ["Imp", 1, 5],
        ]
        assert doc["world_truth"] == {"w0": "1b", "w1": "7e", "w2": "64"}
        constants = certificate_to_json(decide(parse("True --> False")))
        assert constants["closure"] == ["False", "True", ["Imp", 1, 0]]

    def test_closure_table_built_once_and_copied_out(self):
        # The writer and the loader read the context's one table; a
        # document gets a copy, so changing it leaves the table alone.
        v = decide(parse(RICH))
        table = v.model.context.closure_terms
        doc = certificate_to_json(v)
        assert doc["closure"] == table and doc["closure"] is not table
        doc["closure"][-1].append(0)
        with pytest.raises(ValueError, match="closure"):
            certificate_from_json(doc)
        doc["closure"][-1].pop()
        assert certificate_from_json(doc) == v
        assert v.model.context.closure_terms is table and table[-1] == ["Imp", 1, 5]

    def test_round_trip(self):
        v = decide(parse("Box p --> p"))
        doc = json.loads(json.dumps(certificate_to_json(v)))
        v2 = certificate_from_json(doc)
        assert v2 == v
        assert verify_certificate(v2) is True

    def test_round_trip_builds_no_kripke_model(self):
        # The writer and the loader read rel and the masks; to_model builds
        # the model only on request, and it gives back the document's model.
        v = decide(parse(RICH))
        doc = json.loads(json.dumps(certificate_to_json(v)))
        assert v.model._model is None
        reloaded = certificate_from_json(doc)
        assert reloaded.model._model is None
        assert verify_certificate(reloaded) is True and reloaded.model._model is None
        m = reloaded.model.to_model()
        assert {a: [f"w{i}" for i in sorted(s)] for a, s in m.val.items() if s} == doc["val"]
        assert kripke.model_to_json(m) == {k: doc[k] for k in ("worlds", "rel", "val")}

    def test_tampered_valuation_rejected(self):
        v = decide(parse("Box p --> p"))
        doc = certificate_to_json(v)
        doc["val"] = {"p": doc["worlds"]}
        with pytest.raises(ValueError):
            certificate_from_json(doc)

    def test_disagreeing_atom_named_in_sorted_order(self):
        # Every atom of this certificate disagrees once the valuation is
        # emptied; the message names the first in sorted order, so it is
        # the same under every string hash seed.
        src = str(Path(glkit.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r})\n"
            "from glkit.completeness import certificate_from_json, certificate_to_json, decide\n"
            "from glkit.syntax import parse\n"
            "doc = certificate_to_json(decide(parse('p && q && r --> Box (p || q || r)')))\n"
            "doc['val'] = {}\n"
            "try:\n"
            "    certificate_from_json(doc)\n"
            "except ValueError as e:\n"
            "    print(e)\n"
        )
        messages = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": str(seed)},
            ).stdout.strip()
            for seed in range(6)
        }
        assert messages == {"valuation of 'p' disagrees with the world contents"}

    def test_missing_contents_rejected(self):
        v = decide(parse("Box p --> p"))
        doc = certificate_to_json(v)
        del doc["world_truth"]["w0"]
        with pytest.raises(ValueError, match="world_truth.*'w0'.*got None"):
            certificate_from_json(doc)

    def test_undeclared_world_rejected(self):
        doc = certificate_to_json(decide(parse("Box p --> p")))
        doc["world_truth"]["w9"] = "0"
        with pytest.raises(ValueError, match="world_truth.*undeclared world 'w9'"):
            certificate_from_json(doc)

    def test_shapeless_document_rejected(self):
        with pytest.raises(ValueError, match="worlds"):
            certificate_from_json({"target": "p", "worlds": 5, "world_truth": {}})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("target", 5),
            ("witness", 0),
            ("witness", "w1"),
            ("world_truth", ["0"]),
            ("world_truth", {"w0": 0}),
            ("closure", None),
            ("closure", ["q"]),
        ],
    )
    def test_malformed_field_rejected(self, field, value):
        doc = {
            "target": "p",
            "closure": ["p"],
            "worlds": ["w0"],
            "witness": "w0",
            "world_truth": {"w0": "0"},
        }
        assert verify_certificate(certificate_from_json(doc)) is True
        with pytest.raises(ValueError, match=field):
            certificate_from_json({**doc, field: value})

    @pytest.mark.parametrize("spelling", ["0x{}", "-{}", "0_{}", "0{}", " {}", "{}\n", "{}L", "1B"])
    def test_mask_spelled_otherwise_rejected(self, spelling):
        doc = certificate_to_json(decide(parse(RICH)))
        assert doc["world_truth"]["w0"] == "1b"
        doc["world_truth"]["w0"] = spelling.format("1b")
        with pytest.raises(ValueError, match="world_truth.*'w0'"):
            certificate_from_json(doc)

    def test_mask_past_the_closure_rejected(self):
        doc = certificate_to_json(decide(parse(RICH)))
        flip(doc, "w2", len(doc["closure"]))
        with pytest.raises(ValueError, match="world_truth.*'w2'"):
            certificate_from_json(doc)
        flip(doc, "w2", len(doc["closure"]))
        assert verify_certificate(certificate_from_json(doc)) is True

    @pytest.mark.parametrize(
        "change",
        [
            lambda c: c.append(c[-1]),  # a repeated node
            lambda c: c.insert(0, "p"),  # an unused, repeated leaf
            lambda c: c.__setitem__(2, ["Box", 3]),  # a forward child
            lambda c: c.__setitem__(2, ["Box", False]),  # a bool for position 0
            lambda c: c.__setitem__(2, ["Box", 0.0]),
            lambda c: c.__setitem__(2, ("Box", 0)),
            lambda c: c.pop(),  # the root dropped
            lambda c: c.reverse(),
        ],
    )
    def test_closure_other_than_the_targets_rejected(self, change):
        doc = certificate_to_json(decide(parse(RICH)))
        change(doc["closure"])
        with pytest.raises(ValueError, match="closure"):
            certificate_from_json(doc)

    def test_member_false_at_its_world_fails_verification(self):
        # Flipping bit i of a world's mask swaps closure formula i for its
        # negation, which is false there. For an atom the load already
        # sees the valuation disagree; otherwise verification rejects it.
        doc = certificate_to_json(decide(parse(RICH)))
        for w in doc["worlds"]:
            for i, node in enumerate(doc["closure"]):
                bad = json.loads(json.dumps(doc))
                flip(bad, w, i)
                if isinstance(node, str):
                    with pytest.raises(ValueError, match="valuation"):
                        certificate_from_json(bad)
                else:
                    assert verify_certificate(certificate_from_json(bad)) is False, (w, i)

    def test_valuation_reads_the_closure_atoms_of_any_member_list(self):
        # Every non-atom bit flipped: the valuation, read from the atoms'
        # bits, still agrees with the document, so the load succeeds and
        # verification rejects the worlds.
        doc = certificate_to_json(decide(parse("Box p --> Box q")))
        val = certificate_from_json(doc).model.to_model().val
        for w in doc["worlds"]:
            for i, node in enumerate(doc["closure"]):
                if not isinstance(node, str):
                    flip(doc, w, i)
        v = certificate_from_json(doc)
        assert v.model.to_model().val == val
        assert set(val) == {"p", "q"}
        assert verify_certificate(v) is False

    def test_only_the_target_is_parsed(self, monkeypatch):
        v = decide(parse(RICH))
        doc = certificate_to_json(v)
        texts = []
        monkeypatch.setattr(
            completeness, "parse", lambda t: texts.append(t) or parse(t)
        )
        assert certificate_from_json(doc) == v
        assert texts == [RICH]

    def test_loaded_tampered_edge_fails_verification(self):
        v = decide(parse("Box p --> p"))
        doc = certificate_to_json(v)
        doc["rel"].append([doc["witness"], doc["witness"]])
        v2 = certificate_from_json(doc)
        assert verify_certificate(v2) is False

    def test_deep_target_is_linear_in_size(self):
        # Printed member lists made this about 1 MB: each world listed all
        # 999 closure members in full.
        f = parse("Not " * 998 + "p")
        v = decide(f)
        assert isinstance(v, Countermodel)
        text = json.dumps(certificate_to_json(v))
        assert len(text) <= 32 * 1024
        assert verify_certificate(certificate_from_json(json.loads(text))) is True

    def test_member_outside_the_closure_refused_by_the_constructor(self):
        # No mask names Box Box Box q, so no world of Box p holds it.
        sm = decide(parse("Box p")).model
        with pytest.raises(ValueError, match="one signed member per closure formula"):
            World(sm.target, sm.worlds[0].members + (parse("Box Box Box q"),))

    def test_dropped_member_refused_by_the_constructor(self):
        # The "member dropped" mutant of `member_list_mutants`: a mask
        # cannot say that a world holds neither q nor Not q.
        v = decide(parse(RICH))
        members = v.witness.members
        for j in range(len(members)):
            with pytest.raises(ValueError, match="one signed member per closure formula"):
                World(v.model.target, members[:j] + members[j + 1:])

    def test_foreign_witness_refused_by_the_writer(self):
        v = decide(parse("Box p --> p"))
        with pytest.raises(ValueError, match="witness is not a world of the model"):
            certificate_to_json(Countermodel(v.model, World(p, (p,))))
        other = decide(parse("Box p")).witness
        with pytest.raises(ValueError, match="witness is not a world of the model"):
            certificate_to_json(Countermodel(v.model, other))


def test_decide_agrees_with_lemma_kernel():
    # Sample of catalogued conclusions must come back as theorems.
    from glkit.calculus import LEMMAS, lemma_statement

    sample = {0: [], 1: [p], 2: [p, q], 3: [p, q, Atom("r")], None: [p, q]}
    for name in ["imp_refl", "modusponens_th", "box_iff", "lob", "or_elim_th"]:
        f = lemma_statement(name, sample[LEMMAS[name].arity])
        assert isinstance(decide(f), Theorem), print_formula(f)
