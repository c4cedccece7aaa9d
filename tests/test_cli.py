import json

import pytest

from glkit import cli
from glkit.cli import main
from glkit.completeness import certificate_from_json, verify_certificate

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
        monkeypatch.setattr(cli, "verify_certificate", lambda v: False)
        cert = tmp_path / "out.json"
        assert main(["decide", "Box p --> p", "--cert", str(cert)]) == 4
        assert not cert.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "does not verify" in captured.err

    def test_dot_export(self, tmp_path, capsys):
        dot = tmp_path / "frame.dot"
        assert main(["decide", "Box p --> p", "--dot", str(dot)]) == 1
        assert dot.read_text().startswith("digraph")


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


class TestFrameCheck:
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


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
