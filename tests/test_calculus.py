import enum
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import glkit
from glkit import calculus
from glkit.calculus import (
    LEMMAS,
    SCHEMAS,
    AxiomStep,
    MpStep,
    NecStep,
    Proof,
    ProofError,
    axiom_instance,
    check_proof,
    conjlist,
    conjlist_map_box_proof,
    is_axiom,
    lemma,
    lemma_statement,
    match_axiom,
    proof_from_json,
    proof_to_json,
    step_formulas,
)
from glkit.kripke import itf_valid_small
from glkit.limits import SizeGuardError
from glkit.syntax import TRUE, And, Atom, Box, Iff, Imp, Not, parse, print_formula, subformulas
from helpers import random_formula, reference_instantiate

p, q, r = Atom("p"), Atom("q"), Atom("r")
a, bb = Atom("a"), Atom("b")

SAMPLE_ARGS = {0: [], 1: [p], 2: [p, q], 3: [p, q, r], None: [p, q]}


class TestIsAxiom:
    def test_addimp_instance(self):
        f = Imp(a, Imp(Box(bb), a))
        m = match_axiom(f)
        assert m is not None and m.schema == "addimp"
        assert m.subst == {"p": a, "q": Box(bb)}

    def test_gl_instance_at_conjunction(self):
        f = parse("Box (Box (a && b) --> (a && b)) --> Box (a && b)")
        m = match_axiom(f)
        assert m is not None and m.schema == "GL"
        assert m.subst == {"p": And(a, bb)}

    def test_reflection_is_not_an_axiom(self):
        assert match_axiom(parse("Box p --> p")) is None
        assert is_axiom(parse("Box p --> p")) is False

    def test_every_schema_matches_itself(self):
        for name, pattern in SCHEMAS:
            m = match_axiom(pattern)
            assert m is not None and m.schema == name


class TestAxiomInstance:
    def test_at_its_parameters_is_the_pattern(self):
        # Every schema lists its parameters in alphabetical order.
        for name, pattern in SCHEMAS:
            params = sorted({g.name for g in subformulas(pattern) if isinstance(g, Atom)})
            assert axiom_instance(name, [Atom(x) for x in params]) is pattern

    def test_instance_matches_its_schema(self):
        f = axiom_instance("K", [Box(a), Imp(a, bb)])
        assert f == parse("Box (Box a --> a --> b) --> Box Box a --> Box (a --> b)")
        assert match_axiom(f) == ("K", {"p": Box(a), "q": Imp(a, bb)})

    def test_unknown_name(self):
        with pytest.raises(LookupError):
            axiom_instance("no_such_schema", [p])

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="takes 1 formula argument"):
            axiom_instance("GL", [p, q])
        with pytest.raises(ValueError, match="takes 0 formula argument"):
            axiom_instance("true_def", [p])


class TestCompiledPrograms:
    """The compiled schema and statement programs against the recursive
    substitution they replace."""

    def test_axiom_instances(self):
        rng = random.Random(8)
        for name, (params, pattern, _) in calculus._AXIOMS.items():
            for _ in range(200):
                args = [random_formula(rng, 3, ("p", "q", "r")) for _ in params]
                want = reference_instantiate(pattern, dict(zip(params, args)))
                assert axiom_instance(name, args) is want

    @pytest.mark.parametrize("name", sorted(LEMMAS))
    def test_lemma_statements(self, name):
        info = LEMMAS[name]
        args = SAMPLE_ARGS[info.arity]
        if info.params is None:
            want = Iff(Box(conjlist(args)), conjlist([Box(f) for f in args]))
        else:
            want = reference_instantiate(info.statement, dict(zip(info.params, args)))
        assert lemma_statement(name, args) is want

    def test_lemma_statements_at_random_arguments(self):
        rng = random.Random(9)
        for name, info in LEMMAS.items():
            if info.params is None:
                continue
            for _ in range(20):
                args = [random_formula(rng, 3, ("p", "q", "r")) for _ in info.params]
                want = reference_instantiate(info.statement, dict(zip(info.params, args)))
                assert lemma_statement(name, args) is want

    def test_statements_compiled_on_first_use(self):
        src = str(Path(glkit.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); "
            "import glkit.cli; from glkit.calculus import LEMMAS, lemma_statement; "
            "from glkit.syntax import Atom; "
            "assert not any('program' in vars(i) for i in LEMMAS.values()); "
            "lemma_statement('imp_refl', [Atom('p')]); "
            "assert [n for n, i in LEMMAS.items() if 'program' in vars(i)] == ['imp_refl']"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestCheckProof:
    def test_single_axiom_step(self):
        f = Imp(p, Imp(q, p))
        assert check_proof(Proof((AxiomStep(f),))) == f

    def test_hand_written_imp_refl(self):
        # The classic 5-step derivation of p --> p from schemas 1 and 2.
        pp = Imp(p, p)
        s0 = AxiomStep(Imp(Imp(p, Imp(pp, p)), Imp(Imp(p, pp), pp)))
        s1 = AxiomStep(Imp(p, Imp(pp, p)))
        s2 = MpStep(0, 1)
        s3 = AxiomStep(Imp(p, pp))
        s4 = MpStep(2, 3)
        assert check_proof(Proof((s0, s1, s2, s3, s4))) == pp

    def test_mp_antecedent_mismatch(self):
        s0 = AxiomStep(Imp(p, Imp(q, p)))
        s1 = AxiomStep(Imp(q, Imp(p, q)))
        with pytest.raises(ProofError) as e:
            check_proof(Proof((s0, s1, MpStep(0, 1))))
        assert e.value.step == 2

    def test_forward_reference_rejected(self):
        s0 = AxiomStep(Imp(p, Imp(q, p)))
        with pytest.raises(ProofError) as e:
            check_proof(Proof((s0, MpStep(1, 0))))
        assert e.value.step == 1

    def test_axiom_mismatch_located(self):
        with pytest.raises(ProofError) as e:
            check_proof(Proof((AxiomStep(parse("Box p --> p")),)))
        assert e.value.step == 0

    def test_nec_bad_index(self):
        s0 = AxiomStep(Imp(p, Imp(q, p)))
        with pytest.raises(ProofError) as e:
            check_proof(Proof((s0, NecStep(5))))
        assert e.value.step == 1

    def test_empty_proof_rejected(self):
        with pytest.raises(ProofError):
            check_proof(Proof(()))

    def test_major_not_implication(self):
        s0 = AxiomStep(Iff(TRUE, Imp(parse("False"), parse("False"))))
        s1 = AxiomStep(Imp(p, Imp(q, p)))
        with pytest.raises(ProofError) as e:
            check_proof(Proof((s0, s1, MpStep(0, 1))))
        assert e.value.step == 2


class TestConjlist:
    def test_empty(self):
        assert conjlist([]) == TRUE

    def test_singleton(self):
        assert conjlist([p]) == p

    def test_right_nested(self):
        assert conjlist([p, q, r]) == And(p, And(q, r))

    def test_long_list(self):
        f = conjlist([Atom(f"a{i}") for i in range(10_000)])
        assert f.depth == 9_999
        assert f.left == Atom("a0") and f.right.left == Atom("a1")


class TestConjlistMapBox:
    def test_empty(self):
        pr = conjlist_map_box_proof([])
        assert check_proof(pr) == Iff(Box(TRUE), TRUE)

    def test_singleton(self):
        pr = conjlist_map_box_proof([p])
        assert check_proof(pr) == Iff(Box(p), Box(p))

    def test_pair(self):
        pr = conjlist_map_box_proof([p, q])
        assert check_proof(pr) == Iff(Box(And(p, q)), And(Box(p), Box(q)))

    def test_length_guard(self):
        with pytest.raises(SizeGuardError):
            conjlist_map_box_proof([p] * 9)


class TestLemmaCatalogue:
    @pytest.mark.parametrize("name", sorted(LEMMAS))
    def test_kernel_checks_and_statement_matches(self, name):
        args = SAMPLE_ARGS[LEMMAS[name].arity]
        pr = lemma(name, args)
        assert check_proof(pr) == lemma_statement(name, args)

    @pytest.mark.parametrize("name", sorted(LEMMAS))
    def test_soundness_spot_check(self, name):
        # Executable soundness: every catalogued conclusion is valid on
        # all ITF frames with <= 3 worlds.
        args = SAMPLE_ARGS[LEMMAS[name].arity]
        assert itf_valid_small(lemma_statement(name, args), 3) is True

    def test_arguments_naming_the_parameters(self):
        # Substitution is simultaneous: an argument's own atoms p, q, r are
        # not replaced again.
        swapped = [q, Box(r), Imp(p, q)]
        for name, info in LEMMAS.items():
            args = swapped[:2] if info.arity is None else swapped[: info.arity]
            assert check_proof(lemma(name, args)) == lemma_statement(name, args)
        assert lemma_statement("imp_and_elim_l_th", swapped) == parse(
            "(q --> Box r && (p --> q)) --> (q --> Box r)"
        )

    def test_statements_parsed_on_first_use(self):
        src = str(Path(glkit.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); "
            "import glkit.cli; from glkit.calculus import LEMMAS; "
            "assert not any('statement' in vars(i) for i in LEMMAS.values())"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_box_iff_statement(self):
        assert lemma_statement("box_iff", [p, q]) == parse(
            "Box (p <-> q) --> (Box p <-> Box q)"
        )

    def test_modusponens_statement(self):
        assert lemma_statement("modusponens_th", [p, q]) == parse(
            "(p --> q) && p --> q"
        )

    def test_imp_refl_statement(self):
        assert check_proof(lemma("imp_refl", [p])) == parse("p --> p")

    def test_unknown_name(self):
        with pytest.raises(LookupError):
            lemma("no_such_lemma", [])

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            lemma("imp_refl", [p, q])

    def test_axiom_steps_agree_with_is_axiom(self):
        for name in LEMMAS:
            pr = lemma(name, SAMPLE_ARGS[LEMMAS[name].arity])
            for step in pr.steps:
                if isinstance(step, AxiomStep):
                    assert is_axiom(step.formula)

    def test_catalogue_proof_sizes(self):
        # The total over the catalogue at SAMPLE_ARGS: all steps, axiom steps.
        proofs = [lemma(name, SAMPLE_ARGS[info.arity]) for name, info in LEMMAS.items()]
        assert sum(len(pr.steps) for pr in proofs) == 1961
        assert sum(isinstance(s, AxiomStep) for pr in proofs for s in pr.steps) == 981

    def test_no_catalogued_conclusion_is_false(self):
        for name in LEMMAS:
            pr = lemma(name, SAMPLE_ARGS[LEMMAS[name].arity])
            assert check_proof(pr) != parse("False")


class TestProofJson:
    def test_round_trip(self):
        pr = lemma("box_iff", [p, q])
        doc = proof_to_json(pr)
        again = proof_from_json(doc)
        assert check_proof(again) == check_proof(pr)

    def test_step_kinds(self):
        pr = lemma("box_true_iff", [])
        doc = proof_to_json(pr)
        kinds = {next(iter(s)) for s in doc["steps"]}
        assert kinds == {"axiom", "mp", "nec"}

    def test_unknown_record(self):
        with pytest.raises(ValueError):
            proof_from_json({"steps": [{"weird": 1}]})

    @pytest.mark.parametrize("name", sorted(LEMMAS))
    def test_catalogue_round_trip(self, name):
        args = SAMPLE_ARGS[LEMMAS[name].arity]
        pr = lemma(name, args)
        again = proof_from_json(json.loads(json.dumps(proof_to_json(pr))))
        assert again == pr
        assert check_proof(again) == lemma_statement(name, args)
        # The older form, one formula text per axiom step, loads to the
        # same proof.
        def legacy_step(s):
            if isinstance(s, AxiomStep):
                return {"axiom": print_formula(s.formula)}
            if isinstance(s, MpStep):
                return {"mp": [s.major, s.minor]}
            return {"nec": s.premise}

        legacy = {"steps": [legacy_step(s) for s in pr.steps]}
        assert proof_from_json(json.loads(json.dumps(legacy))) == pr

    def test_terms_shared_children_first(self):
        pr = lemma("box_conj_iff", [p, q])
        doc = proof_to_json(pr)
        terms = doc["terms"]
        axioms = {s.formula for s in pr.steps if isinstance(s, AxiomStep)}
        distinct = {g for f in axioms for g in subformulas(f)}
        assert len(terms) == len(distinct)
        for n, t in enumerate(terms):
            assert isinstance(t, str) or all(0 <= i < n for i in t[1:])
        assert terms[:2] == ["p", "q"]
        assert all(isinstance(s["axiom"], int) for s in doc["steps"] if "axiom" in s)

    def test_steps_may_mix_ids_and_text(self):
        doc = {
            "terms": ["p", "q", ["Imp", 1, 0], ["Imp", 0, 2]],
            "steps": [{"axiom": 3}, {"axiom": "q --> p --> q"}],
        }
        pr = proof_from_json(doc)
        assert pr.steps[0].formula is parse("p --> q --> p")
        assert check_proof(pr) is parse("q --> p --> q")

    @pytest.mark.parametrize(
        "terms, n, says",
        [
            (["p", ["Not", 2], "q"], 1, "earlier"),
            (["p", ["Not", 1]], 1, "earlier"),
            (["p", ["Imp", 0]], 1, "takes 2"),
            (["p", ["Box", 0, 0]], 1, "takes 1"),
            (["p", ["Diamond", 0]], 1, "tag"),
            (["p", ["Not", True]], 1, "earlier"),
            (["p", 0], 1, "expected"),
            (["p", []], 1, "expected"),
            (["1x"], 0, "atom name"),
            (["Not"], 0, "atom name"),
        ],
    )
    def test_malformed_terms(self, terms, n, says):
        with pytest.raises(ValueError) as e:
            proof_from_json({"terms": terms, "steps": [{"axiom": 0}]})
        assert f"'terms', term {n}:" in str(e.value) and says in str(e.value)

    @pytest.mark.parametrize(
        "terms, message",
        [
            (["p", ["Not", True]], "child ids must name earlier terms, got [True]"),
            (["p", ["Not", 0.0]], "child ids must name earlier terms, got [0.0]"),
            (["p", ["Not", 1]], "child ids must name earlier terms, got [1]"),
            (["p", ["Imp", 0, False]], "child ids must name earlier terms, got [0, False]"),
            (["p", "q", ["Not", True]], "child ids must name earlier terms, got [True]"),
            (["p", "q", ["And", 0, True]], "child ids must name earlier terms, got [0, True]"),
            (["p", ["Imp", -1, 0]], "child ids must name earlier terms, got [-1, 0]"),
            (
                ["p", ["Diamond", 0]],
                "expected an atom name, True, False or [tag, child ids...] with tag "
                "one of Not, Box, And, Or, Imp, Iff, got ['Diamond', 0]",
            ),
            (
                ["p", [["Not"], 0]],
                "expected an atom name, True, False or [tag, child ids...] with tag "
                "one of Not, Box, And, Or, Imp, Iff, got [['Not'], 0]",
            ),
            (["p", ["Not", 0, 0]], "Not takes 1 child id(s), got 2"),
            (["p", ["Box"]], "Box takes 1 child id(s), got 0"),
            (["p", ["And", 0]], "And takes 2 child id(s), got 1"),
            (["p", ["Or", 0, 0, 0]], "Or takes 2 child id(s), got 3"),
            (["p", ["Imp"]], "Imp takes 2 child id(s), got 0"),
            (["p", ["Iff", 0, 0, 0]], "Iff takes 2 child id(s), got 3"),
            (["p", "1x"], "not an atom name: '1x'"),
            (("p", ("Imp", 0)), "Imp takes 2 child id(s), got 1"),
            (("p", ("Not", 0.5)), "child ids must name earlier terms, got [0.5]"),
            (("p", ("Or", 0, True)), "child ids must name earlier terms, got [0, True]"),
            (
                ("p", ("Nope", 0)),
                "expected an atom name, True, False or [tag, child ids...] with tag "
                "one of Not, Box, And, Or, Imp, Iff, got ('Nope', 0)",
            ),
        ],
    )
    def test_malformed_term_messages(self, terms, message):
        with pytest.raises(ValueError) as e:
            proof_from_json({"terms": terms, "steps": [{"axiom": 0}]})
        assert str(e.value) == f"proof field 'terms', term {len(terms) - 1}: {message}"

    def test_terms_from_a_python_caller(self):
        # Tuples for lists, and ids that are ints of a subclass other
        # than bool, load as in a JSON document.
        class Id(enum.IntEnum):
            P = 0
            NOT_P = 1

        terms = ("p", ("Not", Id.P), ["Imp", Id.NOT_P, 0], ("Box", 2))
        pr = proof_from_json({"terms": terms, "steps": [{"axiom": 3}]})
        assert pr.steps[0].formula is parse("Box (Not p --> p)")

    def test_axiom_id_out_of_range(self):
        with pytest.raises(ValueError, match="'steps', step 1"):
            proof_from_json({"terms": ["p"], "steps": [{"axiom": 0}, {"axiom": 1}]})


def test_step_formulas_total_on_valid_proof():
    pr = lemma("modusponens_th", [p, q])
    forms = step_formulas(pr)
    assert len(forms) == len(pr.steps)
    assert forms[-1] == lemma_statement("modusponens_th", [p, q])
