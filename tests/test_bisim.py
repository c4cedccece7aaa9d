import random
from collections import Counter

import pytest

from glkit.bisim import BisimRelation, bisimilar, is_bisimulation, largest_bisimulation
from glkit.completeness import Countermodel, decide
from glkit.kripke import Frame, Model, holds, relabel
from glkit.syntax import parse
from helpers import random_formula, random_model, reference_largest_bisimulation


def model(worlds, rel, val=None):
    return Model(
        Frame(frozenset(worlds), frozenset(rel)),
        {a: frozenset(s) for a, s in (val or {}).items()},
    )


class TestIsBisimulation:
    def test_empty_relation(self):
        m = model({0}, set())
        assert is_bisimulation(m, m, BisimRelation(frozenset())) is True

    def test_identical_terminal_models(self):
        m = model({0}, set(), {"p": {0}})
        assert is_bisimulation(m, m, BisimRelation(frozenset({(0, 0)}))) is True

    def test_atom_disagreement(self):
        m1 = model({0}, set(), {"a": {0}})
        m2 = model({0}, set(), {"a": set()})
        assert is_bisimulation(m1, m2, BisimRelation(frozenset({(0, 0)}))) is False

    def test_ill_typed_pair(self):
        m = model({0}, set())
        with pytest.raises(ValueError):
            is_bisimulation(m, m, BisimRelation(frozenset({(0, 9)})))


class TestLargestBisimulation:
    def test_identity_on_identical_models(self):
        m = model({0, 1}, {(0, 1)}, {"p": {1}})
        z = largest_bisimulation(m, m)
        assert {(0, 0), (1, 1)} <= z.pairs

    def test_terminal_duplication(self):
        m1 = model({0}, set(), {"p": {0}})
        m2 = model({0, 1}, set(), {"p": {0, 1}})
        z = largest_bisimulation(m1, m2)
        assert z.pairs == frozenset({(0, 0), (0, 1)})

    def test_forth_clause_removes_pair(self):
        m1 = model({0, 1}, {(0, 1)})
        m2 = model({0}, set())
        z = largest_bisimulation(m1, m2)
        assert (0, 0) not in z.pairs
        assert (1, 0) in z.pairs  # both terminal, atoms agree

    def test_output_is_bisimulation_and_maximal(self):
        rng = random.Random(7)
        for _ in range(25):
            m1 = random_model(rng, max_worlds=5)
            m2 = random_model(rng, max_worlds=5)
            z = largest_bisimulation(m1, m2)
            assert is_bisimulation(m1, m2, z)
            removed = [
                (w1, w2)
                for w1 in m1.frame.worlds
                for w2 in m2.frame.worlds
                if (w1, w2) not in z.pairs
            ]
            for pair in removed[:5]:
                probe = BisimRelation(z.pairs | {pair})
                assert is_bisimulation(m1, m2, probe) is False


class TestBisimilar:
    def test_same_world_of_same_model(self):
        m = model({0, 1}, {(0, 1)}, {"p": {1}})
        assert bisimilar(m, 0, m, 0) is True

    def test_terminal_vs_nonterminal(self):
        m1 = model({0, 1}, {(0, 1)})
        m2 = model({0}, set())
        assert bisimilar(m1, 0, m2, 0) is False

    def test_atom_mismatch(self):
        m1 = model({0}, set(), {"p": {0}})
        m2 = model({0}, set())
        assert bisimilar(m1, 0, m2, 0) is False

    def test_unknown_world(self):
        m = model({0}, set())
        with pytest.raises(ValueError):
            bisimilar(m, 3, m, 0)


def test_modal_invariance_sampled():
    rng = random.Random(99)
    for _ in range(20):
        m1 = random_model(rng, max_worlds=4)
        m2 = random_model(rng, max_worlds=4)
        z = largest_bisimulation(m1, m2)
        for w1, w2 in sorted(z.pairs)[:4]:
            for _ in range(10):
                f = random_formula(rng, 4)
                assert holds(m1, f, w1) == holds(m2, f, w2)


def test_validity_transfer_sampled():
    # When every world of m1 has a bisimilar counterpart in m2, formulas
    # holding throughout m2 hold throughout m1. Build m2 as a relabeled
    # copy of m1 extended with extra disconnected worlds.
    rng = random.Random(4242)
    for _ in range(15):
        m1 = random_model(rng, max_worlds=4)
        shift = max(m1.frame.worlds) + 1
        extra = model(
            {99 + shift}, set(), {"p": {99 + shift} if rng.random() < 0.5 else set()}
        )
        m2 = Model(
            Frame(
                frozenset(w + shift for w in m1.frame.worlds) | extra.frame.worlds,
                frozenset((x + shift, y + shift) for x, y in m1.frame.rel),
            ),
            {
                a: frozenset(w + shift for w in s) | extra.val.get(a, frozenset())
                for a, s in m1.val.items()
            },
        )
        z = largest_bisimulation(m1, m2)
        matched = {a for a, _ in z.pairs}
        assert matched == m1.frame.worlds
        for _ in range(20):
            f = random_formula(rng, 3)
            if all(holds(m2, f, w) for w in m2.frame.worlds):
                assert all(holds(m1, f, w) for w in m1.frame.worlds)


def test_relabeled_countermodel_stays_bisimilar():
    v = decide(parse("Box p --> p"))
    assert isinstance(v, Countermodel)
    m = v.model.to_model()
    mapping = {w: w * 7 + 3 for w in m.frame.worlds}
    m2 = relabel(m, mapping)
    for w in m.frame.worlds:
        assert bisimilar(m, w, m2, mapping[w])
    widx = v.model.worlds.index(v.witness)
    assert holds(m2, v.model.target, mapping[widx]) is False


def _loose_model(rng: random.Random) -> Model:
    """0-6 worlds drawn from ids 0-7 and 0-3 atoms drawn from p, q, r;
    relation pairs and valuations may also name the undeclared ids 8
    and 9, or ids of 0-7 left out of the worlds."""
    n = 0 if rng.random() < 0.05 else rng.randint(1, 6)
    ids = range(10)
    rel = {(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 2 * n))}
    val = {
        a: frozenset(rng.sample(ids, rng.randint(0, 5)))
        for a in rng.sample(("p", "q", "r"), rng.randint(0, 3))
    }
    return Model(Frame(frozenset(rng.sample(range(8), n)), frozenset(rel)), val)


def _doubled(m: Model) -> Model:
    """World w of m as the two worlds 2w and 2w + 1, every edge copied
    between all of their copies."""
    return model(
        {2 * w + c for w in m.frame.worlds for c in (0, 1)},
        {(2 * x + c, 2 * y + d) for x, y in m.frame.rel for c in (0, 1) for d in (0, 1)},
        {a: {2 * w + c for w in ws for c in (0, 1)} for a, ws in m.val.items()},
    )


class TestAgainstReference:
    def test_random_pairs(self):
        rng = random.Random(5)
        seen: Counter[str] = Counter()
        for _ in range(1200):
            m1 = _loose_model(rng)
            m2 = m1 if rng.random() < 0.1 else _loose_model(rng)
            w1, w2 = m1.frame.worlds, m2.frame.worlds
            seen["same model"] += m1 is m2
            seen["shared ids"] += m1 is not m2 and bool(w1 & w2)
            seen["no worlds"] += not w1 or not w2
            seen["no edges"] += not m1.frame.rel or not m2.frame.rel
            seen["atom of one model only"] += set(m1.val) != set(m2.val)
            seen["undeclared edge end"] += any(
                not {x, y} <= m.frame.worlds for m in (m1, m2) for x, y in m.frame.rel
            )
            seen["undeclared valued world"] += any(
                not s <= m.frame.worlds for m in (m1, m2) for s in m.val.values()
            )
            expected = reference_largest_bisimulation(m1, m2)
            seen["pairs found"] += bool(expected.pairs)
            assert largest_bisimulation(m1, m2) == expected
        assert len(seen) == 8 and min(seen.values()) >= 50, seen

    def test_doubled_clone_of_40_worlds(self):
        rng = random.Random(40)
        n = 40
        m = model(
            range(n),
            rng.sample([(x, y) for x in range(n) for y in range(n)], round(0.2 * n * n)),
            {a: rng.sample(range(n), n // 2) for a in ("p", "q")},
        )
        clone = _doubled(m)
        z = largest_bisimulation(m, clone)
        assert all((w, 2 * w + c) in z.pairs for w in range(n) for c in (0, 1))
        assert z == reference_largest_bisimulation(m, clone)


def test_relabel_drops_undeclared_worlds():
    m = Model(Frame(frozenset({0, 1}), frozenset({(0, 1), (1, 5)})), {"p": frozenset({0, 7})})
    mapping = {0: 10, 1: 11}
    m2 = relabel(m, mapping)
    assert m2 == model({10, 11}, {(10, 11)}, {"p": {10}})
    for w in m.frame.worlds:
        assert bisimilar(m, w, m2, mapping[w])
