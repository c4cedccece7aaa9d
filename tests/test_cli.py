import json

import pytest

from glkit import completeness, kripke, syntax
from glkit.cli import main
from glkit.completeness import (
    certificate_from_json,
    certificate_to_json,
    decide,
    verify_certificate,
)
from glkit.limits import MAX_DEPTH
from glkit.syntax import parse
from helpers import count_parses, imp_read_as_or

LOB = "Box (Box p --> p) --> Box p"


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseCommand:
    def test_ok(self, capsys):
        assert main(["parse", "p&&q||r"]) == 0
        assert capsys.readouterr().out.strip() == "p && q || r"

    def test_json(self, capsys):
        assert main(["parse", "p --> q", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"formula": "p --> q"}

    def test_syntax_error_exit_2(self, capsys):
        assert main(["parse", "p &&"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_at_file(self, tmp_path, capsys):
        f = tmp_path / "formula.txt"
        f.write_text(LOB)
        assert main(["parse", f"@{f}"]) == 0
        assert capsys.readouterr().out.strip() == LOB


class TestDecideCommand:
    def test_theorem(self, capsys):
        assert main(["decide", LOB]) == 0
        assert capsys.readouterr().out.strip() == "theorem"

    def test_non_theorem_with_certificate(self, tmp_path, capsys):
        cert = tmp_path / "out.json"
        assert main(["decide", "Box p --> p", "--cert", str(cert)]) == 1
        assert capsys.readouterr().out.strip() == "non-theorem"
        reloaded = certificate_from_json(json.loads(cert.read_text()))
        assert verify_certificate(reloaded) is True

    def test_json_verdict(self, capsys):
        assert main(["decide", "True", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"verdict": "theorem"}

    def test_size_guard_exit_3(self, capsys):
        wide = " && ".join(f"a{i}" for i in range(17))
        assert main(["decide", wide]) == 3
        assert "size guard" in capsys.readouterr().err

    def test_deep_nesting_exit_3(self, capsys):
        assert main(["decide", "Not " * 3000 + "p"]) == 3
        assert "nested too deeply" in capsys.readouterr().err

    def test_failed_recheck_writes_nothing_exit_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(completeness, "certificate_problem", lambda v: "a stand-in reason")
        cert = tmp_path / "out.json"
        assert main(["decide", "Box p --> p", "--cert", str(cert)]) == 4
        assert not cert.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not verify (a stand-in reason)" in captured.err

    def test_wrong_truth_table_caught_by_the_recheck_exit_4(self, tmp_path, capsys, monkeypatch):
        # The search's evaluator reads p --> p as p || p, so the theorem
        # gets a countermodel; the checker evaluates the closure itself.
        completeness.closure_context.cache_clear()
        monkeypatch.setattr(kripke, "_run", imp_read_as_or(kripke._run))
        cert = tmp_path / "out.json"
        try:
            assert main(["decide", "p --> p", "--cert", str(cert)]) == 4
        finally:
            completeness.closure_context.cache_clear()
        assert not cert.exists()
        err = capsys.readouterr().err
        assert "does not verify (world 0, closure position 1: the mask says false" in err

    def test_dot_export(self, tmp_path, capsys):
        dot = tmp_path / "frame.dot"
        assert main(["decide", "Box p --> p", "--dot", str(dot)]) == 1
        assert dot.read_text().startswith("digraph")

    @pytest.mark.parametrize("flags, calls", [((), 0), (("--json",), 1), (("--cert", "FILE"), 1)])
    def test_certificate_built_only_when_used(self, tmp_path, capsys, monkeypatch, flags, calls):
        real, built = completeness.certificate_to_json, []

        def counted(v):
            built.append(v)
            return real(v)

        monkeypatch.setattr(completeness, "certificate_to_json", counted)
        cert = tmp_path / "out.json"
        argv = [str(cert) if flag == "FILE" else flag for flag in flags]
        assert main(["decide", "Box p --> p", *argv]) == 1
        assert len(built) == calls
        assert cert.exists() == ("FILE" in flags)
        out = capsys.readouterr().out
        if "--json" in flags:
            expected = real(completeness.decide(syntax.parse("Box p --> p")))
            assert json.loads(out) == {"verdict": "non-theorem", "certificate": expected}
        else:
            assert out == "non-theorem\n"


@pytest.fixture
def cert_doc(tmp_path):
    """The certificate `decide --cert` writes for Box p --> p."""
    path = tmp_path / "cert.json"
    assert main(["decide", "Box p --> p", "--cert", str(path)]) == 1
    return json.loads(path.read_text())


class TestCheckCert:
    def test_decide_output_verifies(self, tmp_path, capsys, cert_doc):
        capsys.readouterr()
        assert main(["check-cert", write_model(tmp_path, cert_doc)]) == 0
        assert capsys.readouterr().out == "certificate verified\n"

    def test_tampered_member_list_rejected(self, tmp_path, capsys, cert_doc):
        # Box p holds at the witness, whose mask no longer has its bit.
        closure, truth, witness = cert_doc["closure"], cert_doc["world_truth"], cert_doc["witness"]
        box_p = closure.index(["Box", closure.index("p")])
        assert int(truth[witness], 16) >> box_p & 1
        truth[witness] = f"{int(truth[witness], 16) ^ 1 << box_p:x}"
        path = write_model(tmp_path, cert_doc)
        capsys.readouterr()
        reason = f"world 0, closure position {box_p}: the mask says false, the model true"
        assert witness == "w0"
        assert main(["check-cert", path]) == 1
        assert capsys.readouterr() == ("certificate rejected\n", reason + "\n")
        assert main(["check-cert", path, "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {"ok": False, "reason": reason}

    def test_missing_world_contents_exit_2(self, tmp_path, capsys, cert_doc):
        del cert_doc["world_truth"]
        capsys.readouterr()
        assert main(["check-cert", write_model(tmp_path, cert_doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'world_truth'" in captured.err

    def test_v1_document_exit_2(self, tmp_path, capsys, cert_doc):
        # Member lists as text, the earlier format, no longer load.
        del cert_doc["world_truth"], cert_doc["closure"]
        cert_doc["world_contents"] = {"w0": ["Not p", "Box p", "Not (Box p --> p)"]}
        capsys.readouterr()
        assert main(["check-cert", write_model(tmp_path, cert_doc)]) == 2
        assert "'world_truth'" in capsys.readouterr().err

    def test_undeclared_witness_exit_2(self, tmp_path, capsys, cert_doc):
        cert_doc["witness"] = "w99"
        capsys.readouterr()
        assert main(["check-cert", write_model(tmp_path, cert_doc)]) == 2
        assert "undeclared witness world: 'w99'" in capsys.readouterr().err

    def test_deep_target_has_no_depth_bound(self, tmp_path, capsys, cert_doc):
        # Nothing check-cert runs recurses, so it takes a certificate past
        # MAX_DEPTH, and a target text that is not the closure's exits 2.
        deep = certificate_to_json(decide(parse("Not " * (MAX_DEPTH + 200) + "p")))
        assert main(["check-cert", write_model(tmp_path, deep)]) == 0
        cert_doc["target"] = "Not " * (MAX_DEPTH + 1) + "p"
        capsys.readouterr()
        assert main(["check-cert", write_model(tmp_path, cert_doc)]) == 2
        assert "'closure'" in capsys.readouterr().err

    def test_unparsable_target_exit_2(self, tmp_path, capsys, cert_doc):
        # The target is compared as text with the closure's root.
        cert_doc["target"] = "Box p -->"
        capsys.readouterr()
        assert main(["check-cert", write_model(tmp_path, cert_doc)]) == 2
        assert "certificate field 'closure'" in capsys.readouterr().err

    def test_target_is_not_parsed(self, tmp_path, monkeypatch, cert_doc):
        texts = count_parses(monkeypatch)
        assert main(["check-cert", write_model(tmp_path, cert_doc)]) == 0
        assert texts == []


class TestCheckModel:
    def test_holds(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            {"worlds": ["u", "v"], "rel": [["u", "v"]], "val": {"p": ["v"]}},
        )
        assert main(["check-model", path, "Box p --> Box p"]) == 0
        assert capsys.readouterr().out.strip() == "holds"

    def test_fails_with_world_names(self, tmp_path, capsys):
        path = write_model(
            tmp_path,
            {"worlds": ["u", "v"], "rel": [["u", "v"]], "val": {"p": ["v"]}},
        )
        assert main(["check-model", path, "p"]) == 1
        assert "fails at: u" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"worlds": 5}, "worlds"),
            ([], "object"),
            ({"worlds": ["u"], "rel": [["u"]]}, "rel"),
            ({"worlds": ["u"], "rel": "u"}, "rel"),
            ({"worlds": ["u"], "val": {"p": "u"}}, "val"),
        ],
    )
    def test_malformed_model_exit_2(self, tmp_path, capsys, doc, field):
        path = write_model(tmp_path, doc)
        assert main(["check-model", path, "p"]) == 2
        assert field in capsys.readouterr().err

    def test_bad_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["check-model", str(bad), "p"]) == 2

    @pytest.mark.parametrize("key", ["Not", "1x"])
    def test_valuation_key_no_formula_can_name_exit_2(self, tmp_path, capsys, key):
        path = write_model(tmp_path, {"worlds": ["w"], "val": {key: ["w"]}})
        assert main(["check-model", path, "p"]) == 2
        err = capsys.readouterr().err
        assert "'val'" in err and repr(key) in err


class TestCheckProof:
    def test_valid_proof(self, tmp_path, capsys):
        proof = tmp_path / "proof.json"
        proof.write_text(json.dumps({"steps": [{"axiom": "p --> (q --> p)"}]}))
        assert main(["check-proof", str(proof)]) == 0
        assert capsys.readouterr().out.strip() == "p --> q --> p"

    def test_invalid_proof_diagnostic(self, tmp_path, capsys):
        proof = tmp_path / "proof.json"
        proof.write_text(json.dumps({"steps": [{"axiom": "Box p --> p"}]}))
        assert main(["check-proof", str(proof)]) == 1
        assert "step 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc", [{"steps": 5}, {"steps": [5]}, {"steps": [{"mp": 1}]}]
    )
    def test_malformed_proof_exit_2(self, tmp_path, capsys, doc):
        proof = tmp_path / "proof.json"
        proof.write_text(json.dumps(doc))
        assert main(["check-proof", str(proof)]) == 2
        assert "'steps'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "terms",
        [
            ["p", ["Not", 2], "q"],  # forward reference
            ["p", ["Not", 1]],  # self reference
            ["p", ["Imp", 0]],  # wrong arity
            ["p", ["Dia", 0]],  # unknown tag
            ["p", {"Not": 0}],  # not a list
            ["p", "9p"],  # not an atom name
        ],
    )
    def test_malformed_term_exit_2(self, tmp_path, capsys, terms):
        proof = tmp_path / "proof.json"
        proof.write_text(json.dumps({"terms": terms, "steps": [{"axiom": 0}]}))
        assert main(["check-proof", str(proof)]) == 2
        assert "'terms', term 1" in capsys.readouterr().err

    def test_shared_terms_replay(self, tmp_path, capsys):
        proof = tmp_path / "proof.json"
        doc = {"terms": ["p", "q", ["Imp", 1, 0], ["Imp", 0, 2]], "steps": [{"axiom": 3}]}
        proof.write_text(json.dumps(doc))
        assert main(["check-proof", str(proof)]) == 0
        assert capsys.readouterr().out.strip() == "p --> q --> p"

    def test_axiom_nested_too_deeply_exit_3(self, tmp_path, capsys):
        deep = "Not " * (MAX_DEPTH + 1) + "p"
        proof = tmp_path / "proof.json"
        proof.write_text(json.dumps({"steps": [{"axiom": f"{deep} --> q --> {deep}"}]}))
        assert main(["check-proof", str(proof)]) == 3
        assert "nested too deeply" in capsys.readouterr().err


class TestLemmaCommand:
    def test_emit_and_replay(self, tmp_path, capsys):
        out = tmp_path / "lemma.json"
        assert main(["lemma", "box_iff", "p", "q", "--emit", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "Box (p <-> q) --> (Box p <-> Box q)"
        assert main(["check-proof", str(out)]) == 0

    def test_unknown_name_exit_2(self, capsys):
        assert main(["lemma", "nope"]) == 2

    def test_arity_mismatch_exit_2(self, capsys):
        assert main(["lemma", "imp_refl", "p", "q"]) == 2

    def test_argument_nested_too_deeply_exit_3(self, capsys):
        assert main(["lemma", "imp_refl", "Not " * (MAX_DEPTH + 1) + "p"]) == 3
        assert "nested too deeply" in capsys.readouterr().err

    def test_list_too_long_exit_3(self, capsys):
        assert main(["lemma", "conjlist_map_box", *"abcdefghi"]) == 3
        assert "size guard" in capsys.readouterr().err


class TestBisimCommand:
    def test_pairs_output(self, tmp_path, capsys):
        m1 = write_model(
            tmp_path, {"worlds": ["a"], "rel": [], "val": {"p": ["a"]}}, "m1.json"
        )
        m2 = write_model(
            tmp_path,
            {"worlds": ["x", "y"], "rel": [], "val": {"p": ["x", "y"]}},
            "m2.json",
        )
        pairs_file = tmp_path / "pairs.json"
        assert main(["bisim", m1, m2, "--pairs", str(pairs_file)]) == 0
        out = capsys.readouterr().out
        assert "a x" in out and "a y" in out
        assert json.loads(pairs_file.read_text()) == {"pairs": [["a", "x"], ["a", "y"]]}

    @pytest.mark.parametrize(
        "m1, m2, text, doc",
        [
            # The forth clause removes (a, x): a has a successor, x none.
            (
                {"worlds": ["a", "b"], "rel": [["a", "b"]], "val": {}},
                {"worlds": ["x"], "rel": [], "val": {}},
                "b x\n",
                '{"pairs": [["b", "x"]]}\n',
            ),
            (
                {"worlds": ["c", "b", "a"], "rel": [["a", "b"]], "val": {"p": ["b"]}},
                {
                    "worlds": ["z", "y", "x", "u"],
                    "rel": [["z", "x"], ["z", "u"]],
                    "val": {"p": ["x", "y", "u"]},
                },
                "a z\nb u\nb x\nb y\n",
                '{"pairs": [["a", "z"], ["b", "u"], ["b", "x"], ["b", "y"]]}\n',
            ),
        ],
    )
    def test_output_pinned(self, tmp_path, capsys, m1, m2, text, doc):
        args = [write_model(tmp_path, m1, "m1.json"), write_model(tmp_path, m2, "m2.json")]
        assert main(["bisim", *args]) == 0
        assert capsys.readouterr().out == text
        assert main(["bisim", *args, "--json"]) == 0
        assert capsys.readouterr().out == doc


def chain(n: int, back_edge: bool = False) -> dict:
    """A strict linear order of n worlds, with a back edge from its last
    world to its first if asked, as a model document."""
    rel = [[f"w{x}", f"w{y}"] for x in range(n) for y in range(x + 1, n)]
    return {"worlds": [f"w{x}" for x in range(n)], "rel": rel + [[f"w{n - 1}", "w0"]] * back_edge}


class TestFrameCheck:
    @pytest.mark.parametrize("n", [25, 100, 200])
    def test_chains_past_the_sweep_limit(self, tmp_path, capsys, n):
        fields = [*kripke.FrameReport._fields, "itf"]
        assert main(["frame-check", write_model(tmp_path, chain(n)), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == dict.fromkeys(fields, True)
        assert main(["frame-check", write_model(tmp_path, chain(n, True)), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == fields
        failing = [f for f in fields if not doc[f]]
        assert failing == ["transitive", "acyclic", "validates_lob", "itf"]

    def test_itf_frame(self, tmp_path, capsys):
        path = write_model(tmp_path, {"worlds": ["u"], "rel": [], "val": {}})
        assert main(["frame-check", path]) == 0
        out = capsys.readouterr().out
        assert "validates_lob: true" in out
        assert "itf: true" in out

    def test_reflexive_frame_fails(self, tmp_path, capsys):
        path = write_model(tmp_path, {"worlds": ["u"], "rel": [["u", "u"]], "val": {}})
        assert main(["frame-check", path, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["irreflexive"] is False
        assert doc["validates_lob"] is False
        assert doc["itf"] is False

    def test_output_pinned(self, tmp_path, capsys):
        # The field order is FrameReport's.
        path = write_model(tmp_path, {"worlds": ["u", "v"], "rel": [["u", "v"], ["v", "v"]]})
        assert main(["frame-check", path]) == 1
        assert capsys.readouterr().out == (
            "nonempty: true\nrelation_well_typed: true\nfinite: true\n"
            "irreflexive: false\ntransitive: true\nacyclic: false\n"
            "validates_lob: false\nitf: false\n"
        )
        assert main(["frame-check", path, "--json"]) == 1
        assert capsys.readouterr().out == (
            '{"nonempty": true, "relation_well_typed": true, "finite": true, '
            '"irreflexive": false, "transitive": true, "acyclic": false, '
            '"validates_lob": false, "itf": false}\n'
        )

    def test_dot_names_the_documents_worlds(self, tmp_path, capsys):
        # The names check-model prints, with DOT's quote and backslash escaped.
        odd = 'v"x\\'
        path = write_model(tmp_path, {"worlds": ["u", odd], "rel": [["u", odd]]})
        dot = tmp_path / "frame.dot"
        assert main(["frame-check", path, "--dot", str(dot)]) == 0
        assert dot.read_text() == 'digraph frame {\n  "u";\n  "v\\"x\\\\";\n  "u" -> "v\\"x\\\\";\n}\n'
        assert main(["check-model", path, "Box False"]) == 1
        assert "fails at: u" in capsys.readouterr().out

    def test_itf_read_off_the_report(self, tmp_path, capsys, monkeypatch):
        # The same exit codes and output with kripke.is_itf unusable: the
        # command reads its verdict from frame_report's fields.
        docs = [
            chain(5),
            chain(5, True),
            {"worlds": []},
            {"worlds": ["u"], "rel": [["u", "u"]]},
            {"worlds": ["u", "v", "x"], "rel": [["u", "v"], ["v", "x"]]},
        ]
        runs = []
        for i, doc in enumerate(docs):
            path = write_model(tmp_path, doc, f"m{i}.json")
            itf = kripke.is_itf(kripke.model_from_json(doc)[0].frame)
            for argv in (["frame-check", path], ["frame-check", path, "--json"]):
                runs.append((argv, 0 if itf else 1, main(argv), capsys.readouterr().out))

        def refuse(fr):
            raise AssertionError("frame-check recomputed is_itf")

        monkeypatch.setattr(kripke, "is_itf", refuse)
        for argv, expected, code, out in runs:
            assert code == expected
            assert (main(argv), capsys.readouterr().out) == (code, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["check-proof", "{}"],
        ["check-model", "{}", "p"],
        ["frame-check", "{}"],
        ["bisim", "{}", "{}"],
        ["check-cert", "{}"],
    ],
)
def test_deeply_nested_json_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([a.format(path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: JSON nested too deeply\n"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


class TestDepthBound:
    def test_parse_of_10000_nested_nots_exit_3(self, capsys):
        assert main(["parse", "Not " * 10_000 + "p"]) == 3
        captured = capsys.readouterr()
        assert "nested too deeply" in captured.err and captured.out == ""

    def test_deepest_accepted(self, tmp_path, capsys):
        # Two chains of one shape at the bound, through every formula reader.
        nots = MAX_DEPTH - 1
        deep = f"{'Not ' * nots}p || {'Not ' * nots}q"
        assert main(["parse", deep]) == 0
        assert capsys.readouterr().out.strip() == deep
        assert main(["decide", deep]) == 1
        # p and q are false at w, so each chain holds there iff it is odd.
        path = write_model(tmp_path, {"worlds": ["w"], "val": {}})
        assert main(["check-model", path, deep]) == (0 if nots % 2 else 1)
        assert main(["lemma", "imp_refl", deep]) == 0
        capsys.readouterr()
        assert main(["parse", "Not " + deep]) == 3


def test_uncaught_exception_is_internal_error_exit_4(tmp_path, capsys, monkeypatch):
    def broken(doc):
        raise TypeError("loader bug\non two lines")

    monkeypatch.setattr(kripke, "model_from_json", broken)
    path = write_model(tmp_path, {"worlds": ["w"]})
    assert main(["check-model", path, "p"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: TypeError: loader bug on two lines\n"
