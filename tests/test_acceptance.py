"""Acceptance suite: one test per criterion, all tolerances exact.

Random streams are seeded so every run exercises the same corpus; the
conftest hook prints one PASS/FAIL line per criterion at the end.
"""

import json
import random

import pytest

from glkit.bisim import bisimilar, is_bisimulation, largest_bisimulation
from glkit.calculus import (
    LEMMAS,
    AxiomStep,
    MpStep,
    NecStep,
    Proof,
    ProofError,
    axiom_instance,
    check_proof,
    is_axiom,
    lemma,
    lemma_statement,
    proof_from_json,
    proof_to_json,
    step_formulas,
)
from glkit.completeness import (
    Countermodel,
    Theorem,
    closure_context,
    consistent,
    decide,
    extend_maximal_consistent,
    hintikka_worlds,
    standard_rel,
    verify_certificate,
)
from glkit.kripke import (
    acyclic,
    enumerate_frames,
    holds,
    is_itf,
    itf_valid_small,
    relabel,
    transitive,
    valid_on_frame,
)
from glkit.kripke import LOB_INSTANCE
from glkit.syntax import Atom, Box, FALSE, parse, print_formula
from helpers import random_formula, random_guarded_formula, random_model

p, q, r = Atom("p"), Atom("q"), Atom("r")

CORPUS_SEED = 20260810
CORPUS_SIZE = 500

SAMPLE_ARGS = {0: [], 1: [p], 2: [p, q], 3: [p, q, r], None: [p, q]}

SCHEMA_ARITIES = [
    ("addimp", 2),
    ("distribimp", 3),
    ("doubleneg", 1),
    ("iffimp1", 2),
    ("iffimp2", 2),
    ("impiff", 2),
    ("true_def", 0),
    ("not_def", 1),
    ("and_def", 2),
    ("or_def", 2),
    ("K", 2),
    ("GL", 1),
]


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    items = []
    for _ in range(CORPUS_SIZE):
        f = random_guarded_formula(rng, max_depth=4, atom_names=("p", "q"), max_boxes=3)
        items.append((f, decide(f)))
    return items


def test_c01_axiom_acceptance():
    """axiom schemas decide as theorems under random substitution"""
    rng = random.Random(101)
    for name, arity in SCHEMA_ARITIES:
        for _ in range(20):
            args = [random_formula(rng, 3, ("a", "b")) for _ in range(arity)]
            f = axiom_instance(name, args)
            assert is_axiom(f), f"{name}: {print_formula(f)}"
            assert isinstance(decide(f), Theorem), f"{name}: {print_formula(f)}"


def test_c02_lob_decidability():
    """the Lob schema is decided as a theorem"""
    assert isinstance(decide(parse("Box (Box p --> p) --> Box p")), Theorem)


def test_c03_consistency():
    """False gets a verified countermodel"""
    v = decide(FALSE)
    assert isinstance(v, Countermodel)
    assert verify_certificate(v) is True


def test_c04_named_lemmas():
    """every catalogued lemma is kernel-checked and decided as a theorem"""
    assert "box_iff" in LEMMAS and "modusponens_th" in LEMMAS
    for name, info in LEMMAS.items():
        args = SAMPLE_ARGS[info.arity]
        statement = lemma_statement(name, args)
        assert check_proof(lemma(name, args)) == statement, name
        assert isinstance(decide(statement), Theorem), name


def test_c05_soundness_harness(corpus):
    """500 random formulas: countermodels verify, theorems pass the ITF oracle"""
    theorems = countermodels = 0
    for f, verdict in corpus:
        if isinstance(verdict, Countermodel):
            countermodels += 1
            assert verify_certificate(verdict) is True, print_formula(f)
        else:
            theorems += 1
            assert itf_valid_small(f, 3) is True, print_formula(f)
    assert theorems + countermodels == CORPUS_SIZE
    assert theorems > 0 and countermodels > 0


def test_c06_correspondence():
    """Lob validity coincides with transitive+acyclic on all 530 small frames"""
    count = 0
    for fr in enumerate_frames(3):
        count += 1
        lob = valid_on_frame(fr, LOB_INSTANCE)
        assert lob == (transitive(fr) and acyclic(fr))
        if is_itf(fr):
            assert lob
    assert count == 530


def test_c07_standard_relation_laws(corpus):
    """standard relation is irreflexive and transitive; frame condition holds"""
    targets = ["p", "Not p", "Box p", "Box p --> p", "p && q", "Box Not p"]
    for text in targets:
        ctx = closure_context(parse(text))
        assert len(ctx.closure) <= 6
        ws = hintikka_worlds(ctx)
        for a in ws:
            assert not standard_rel(ctx, a, a)
        for a in ws:
            for b in ws:
                if not standard_rel(ctx, a, b):
                    continue
                for c in ws:
                    if standard_rel(ctx, b, c):
                        assert standard_rel(ctx, a, c)
    checked = 0
    for _, verdict in corpus:
        if not isinstance(verdict, Countermodel):
            continue
        sm = verdict.model
        ctx = sm.context
        succ: dict[int, list[int]] = {i: [] for i in range(len(sm.worlds))}
        for i, j in sm.rel:
            succ[i].append(j)
        for g in ctx.closure:
            if not isinstance(g, Box):
                continue
            for i, w in enumerate(sm.worlds):
                boxed_everywhere = all(g.arg in sm.worlds[j] for j in succ[i])
                assert (g in w) == boxed_everywhere
        checked += 1
    assert checked > 0


def test_c08_truth_lemma(corpus):
    """membership coincides with truth on every emitted countermodel"""
    checked = 0
    for _, verdict in corpus:
        if not isinstance(verdict, Countermodel):
            continue
        sm = verdict.model
        m = sm.to_model()
        for i, w in enumerate(sm.worlds):
            for g in sm.context.closure:
                assert (g in w) == holds(m, g, i)
        checked += 1
    assert checked > 0


def test_c09_extension():
    """200 random consistent seeds extend to worlds containing them"""
    rng = random.Random(909)
    pool = [
        "p",
        "Box p",
        "Box p --> p",
        "p && q",
        "Box p --> Box q",
        "Not (p --> Box q)",
    ]
    extended = rejected = 0
    while extended < 200:
        ctx = closure_context(parse(rng.choice(pool)))
        seed = [f for f in ctx.signed_closure if rng.random() < 0.3]
        if consistent(seed):
            world = extend_maximal_consistent(ctx, seed)
            assert world in hintikka_worlds(ctx)
            assert all(s in world for s in seed)
            extended += 1
        else:
            with pytest.raises(ValueError):
                extend_maximal_consistent(ctx, seed)
            rejected += 1
    assert extended == 200
    assert rejected > 0


def test_c10_bisimulation(corpus):
    """largest bisimulations verify; bisimilar worlds agree; relabeling preserves refutation"""
    rng = random.Random(1010)
    for _ in range(100):
        m1 = random_model(rng, max_worlds=6)
        m2 = random_model(rng, max_worlds=6)
        z = largest_bisimulation(m1, m2)
        assert is_bisimulation(m1, m2, z)
        for w1, w2 in sorted(z.pairs)[:3]:
            for _ in range(50):
                f = random_formula(rng, 4)
                assert holds(m1, f, w1) == holds(m2, f, w2)
    countermodels = [v for _, v in corpus if isinstance(v, Countermodel)][:20]
    assert len(countermodels) == 20
    for v in countermodels:
        m = v.model.to_model()
        mapping = {w: 3 * w + 5 for w in m.frame.worlds}
        m2 = relabel(m, mapping)
        widx = v.model.worlds.index(v.witness)
        assert bisimilar(m, widx, m2, mapping[widx])
        assert holds(m2, v.model.target, mapping[widx]) is False


def _first_index(steps, kind):
    for i, s in enumerate(steps):
        if isinstance(s, kind):
            return i
    return None


def _mutants(pr: Proof):
    """Corruptions that are broken by construction, tagged by kind."""
    steps = list(pr.steps)
    i = _first_index(steps, MpStep)
    if i is not None:
        bad = steps.copy()
        bad[i] = MpStep(len(steps) + 7, steps[i].minor)
        yield "bad-index", Proof(tuple(bad))
        # a step can never equal its own strict subformula, so using the
        # major as its own minor premise always mismatches
        bad = steps.copy()
        bad[i] = MpStep(steps[i].major, steps[i].major)
        yield "mp-mismatch", Proof(tuple(bad))
    i = _first_index(steps, AxiomStep)
    if i is not None:
        bad = steps.copy()
        bad[i] = AxiomStep(parse("Box p --> p"))
        yield "wrong-axiom", Proof(tuple(bad))
    forms = step_formulas(pr)
    for i, s in enumerate(steps):
        if not isinstance(s, MpStep):
            continue
        n = s.minor
        if not isinstance(steps[n], NecStep):
            continue
        old = forms[steps[n].premise]
        target = next((j for j in range(n) if forms[j] != old), None)
        if target is None:
            continue
        bad = steps.copy()
        bad[n] = NecStep(target)
        yield "wrong-nec", Proof(tuple(bad))
        break


def test_c11_kernel_integrity(tmp_path):
    """30 corrupted proof files are rejected with located diagnostics"""
    goldens = []
    for name, info in LEMMAS.items():
        args = SAMPLE_ARGS[info.arity]
        goldens.append((name, lemma(name, args), lemma_statement(name, args)))

    # golden proofs replay through files
    for name, pr, statement in goldens:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(proof_to_json(pr)))
        assert check_proof(proof_from_json(json.loads(path.read_text()))) == statement

    by_kind: dict[str, list] = {}
    for name, pr, _ in goldens:
        for kind, mutant in _mutants(pr):
            by_kind.setdefault(kind, []).append((name, kind, mutant))
    # round-robin across mutation kinds so all four are represented
    corrupted = []
    queues = [list(reversed(v)) for _, v in sorted(by_kind.items())]
    while len(corrupted) < 30:
        for queue in queues:
            if queue and len(corrupted) < 30:
                corrupted.append(queue.pop())
    assert len(corrupted) == 30
    kinds = {kind for _, kind, _ in corrupted}
    assert kinds == {"bad-index", "mp-mismatch", "wrong-axiom", "wrong-nec"}
    for i, (name, kind, mutant) in enumerate(corrupted):
        path = tmp_path / f"corrupt_{i}_{kind}.json"
        path.write_text(json.dumps(proof_to_json(mutant)))
        reloaded = proof_from_json(json.loads(path.read_text()))
        with pytest.raises(ProofError) as e:
            check_proof(reloaded)
        assert isinstance(e.value.step, int) and e.value.step >= 0, (name, kind)
