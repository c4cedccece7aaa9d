"""Fuzz test of the command line, run in-process through `cli.main`.

Malformed model, proof and certificate documents must exit 2 (or 3 for a
formula nested past `MAX_DEPTH`), never 0 or 1, which are verdicts.
Random token strings and deeply nested input must end in a documented
exit code. No input may print a traceback. Each document is a valid one
with one thing broken, so it is malformed by construction."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glkit.cli import main
from glkit.completeness import certificate_to_json, decide
from glkit.limits import MAX_DEPTH
from glkit.syntax import is_atom_name, parse

MODEL = {"worlds": ["u", "v"], "rel": [["u", "v"]], "val": {"p": ["v"]}}
PROOF = {"terms": ["p", "q", ["Imp", 1, 0], ["Imp", 0, 2]], "steps": [{"axiom": 3}]}
# Three worlds, two edges and a valuation to break.
CERT = certificate_to_json(decide(parse("Box (p --> Box q) --> Box p || q")))

TOKENS = ["p", "q", "r", "x_1", "True", "False", "Not", "Box", "Dia", "&&", "||",
          "-->", "<->", "->", "(", ")", "!", "9", "@", "#", "-"]
token_strings = st.lists(st.sampled_from(TOKENS), max_size=25).map(" ".join)
scalars = (
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4)
)
junk = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
not_list = junk.filter(lambda x: not isinstance(x, list))
not_object = junk.filter(lambda x: not isinstance(x, dict))
not_str = junk.filter(lambda x: not isinstance(x, str))
not_pair = junk.filter(lambda x: not (isinstance(x, list) and len(x) == 2))
not_atom = st.text(max_size=4).filter(lambda a: not is_atom_name(a))
bad_formulas = st.sampled_from(["", "p &&", "(p", "p)", "Box", "&& p", "p q", "#", "Dia p"])


def nest(x, depth: int):
    for _ in range(depth):
        x = [x]
    return x


# Each breaker mutates a copy of a valid document, drawing what it needs,
# and returns the broken document or its JSON text.

def _set(field, values):
    def breaker(doc, draw):
        doc[field] = draw(values)
        return doc
    return breaker


def _drop(field):
    def breaker(doc, draw):
        del doc[field]
        return doc
    return breaker


def _not_an_object(doc, draw):
    return draw(not_object)


def _nested_document(doc, draw):
    # As text: nesting this deep is past what json.dumps will write.
    depth = draw(st.integers(1, 3000))
    return "[" * depth + json.dumps(doc) + "]" * depth


def _world_not_a_name(doc, draw):
    doc["worlds"].insert(draw(st.integers(0, len(doc["worlds"]))), draw(not_str))
    return doc


def _duplicate_world(doc, draw):
    doc["worlds"].append(draw(st.sampled_from(doc["worlds"])))
    return doc


def _bad_edge(doc, draw):
    doc["rel"].append(draw(not_pair))
    return doc


def _dangling_edge(doc, draw):
    edge = [draw(st.sampled_from(doc["worlds"])), "nowhere"]
    doc["rel"].append(edge[:: draw(st.sampled_from([1, -1]))])
    return doc


def _bad_atom(doc, draw):
    doc["val"][draw(not_atom)] = []
    return doc


def _atom_worlds_not_a_list(doc, draw):
    doc["val"][draw(st.sampled_from(["p", "q"]))] = draw(not_list)
    return doc


def _atom_at_nowhere(doc, draw):
    doc["val"]["p"] = [nest("nowhere", draw(st.integers(0, 100)))]
    return doc


MODEL_BREAKERS = [
    _not_an_object, _nested_document, _drop("worlds"), _set("worlds", not_list),
    _world_not_a_name, _duplicate_world, _set("rel", not_list), _bad_edge,
    _dangling_edge, _set("val", not_object), _bad_atom, _atom_worlds_not_a_list,
    _atom_at_nowhere,
]


def _missing_world(doc, draw):
    del doc["world_truth"][draw(st.sampled_from(doc["worlds"]))]
    return doc


def _undeclared_world(doc, draw):
    doc["world_truth"][draw(st.text(max_size=4).filter(lambda w: w not in doc["worlds"]))] = "0"
    return doc


def _mask_not_a_string(doc, draw):
    doc["world_truth"][draw(st.sampled_from(doc["worlds"]))] = draw(not_str)
    return doc


def _mask_not_canonical(doc, draw):
    w = draw(st.sampled_from(doc["worlds"]))
    mask = doc["world_truth"][w]
    # The last spelling is in upper case, with a hex letter at its end.
    upper = f"{int(mask, 16) | 0xa:X}"
    doc["world_truth"][w] = draw(st.sampled_from(
        ["0x" + mask, "-" + mask, "1_" + mask, "0" + mask, " " + mask, mask + "g", upper]
    ))
    return doc


def _mask_too_wide(doc, draw):
    w = draw(st.sampled_from(doc["worlds"]))
    bit = draw(st.integers(len(doc["closure"]), 4 * len(doc["closure"])))
    doc["world_truth"][w] = f"{int(doc['world_truth'][w], 16) | 1 << bit:x}"
    return doc


def _repeated_node(doc, draw):
    closure = doc["closure"]
    closure.insert(draw(st.integers(0, len(closure))), draw(st.sampled_from(closure)))
    return doc


def _forward_node(doc, draw):
    closure = doc["closure"]
    i = draw(st.sampled_from([i for i, t in enumerate(closure) if isinstance(t, list)]))
    later = st.integers(i, len(closure) + 3)
    closure[i] = [closure[i][0], *(draw(later) for _ in closure[i][1:])]
    return doc


def _undeclared_witness(doc, draw):
    doc["witness"] = draw(st.text(max_size=4).filter(lambda w: w not in doc["worlds"]))
    return doc


def _valuation_disagrees(doc, draw):
    doc["val"]["zz"] = [draw(st.sampled_from(doc["worlds"]))]
    return doc


def _target_too_deep(doc, draw):
    doc["target"] = "Not " * draw(st.integers(MAX_DEPTH + 1, 3000)) + doc["target"]
    return doc


CERT_BREAKERS = MODEL_BREAKERS + [
    _drop("target"), _set("target", not_str), _set("target", bad_formulas),
    _drop("witness"), _set("witness", not_str), _undeclared_witness,
    _drop("world_truth"), _set("world_truth", not_object), _missing_world,
    _undeclared_world, _mask_not_a_string, _mask_not_canonical, _mask_too_wide,
    _drop("closure"), _set("closure", junk), _repeated_node, _forward_node,
    _valuation_disagrees, _target_too_deep,
]


def _bad_step(doc, draw):
    step = draw(not_object | st.dictionaries(
        st.text(max_size=4).filter(lambda k: k not in ("axiom", "mp", "nec")), junk, max_size=2
    ))
    doc["steps"].insert(draw(st.integers(0, len(doc["steps"]))), step)
    return doc


def _axiom_out_of_range(doc, draw):
    doc["steps"].append({"axiom": draw(st.integers(len(doc["terms"]), 99) | st.integers(-99, -1))})
    return doc


def _bad_term(doc, draw):
    term = draw(
        junk.filter(lambda x: not isinstance(x, (str, list)))
        | not_atom.filter(lambda a: a not in ("True", "False"))
        | st.tuples(st.text(max_size=4).filter(lambda t: t not in ("Not", "Box")), st.integers(0, 1)).map(list)
        | st.integers(len(doc["terms"]), 99).map(lambda i: ["Not", i])
    )
    doc["terms"].append(term)
    return doc


PROOF_BREAKERS = [
    _not_an_object, _nested_document, _drop("steps"), _set("steps", not_list),
    _set("terms", not_list), _bad_step, _axiom_out_of_range, _bad_term,
]


@st.composite
def broken(draw, base, breakers):
    """The JSON text of base broken by one of breakers."""
    doc = draw(st.sampled_from(breakers))(copy.deepcopy(base), draw)
    return doc if isinstance(doc, str) else json.dumps(doc)


documents = st.one_of(
    st.tuples(st.sampled_from(["check-model", "frame-check", "bisim", "bisim2"]),
              broken(MODEL, MODEL_BREAKERS)),
    st.tuples(st.just("check-proof"), broken(PROOF, PROOF_BREAKERS)),
    st.tuples(st.just("check-cert"), broken(CERT, CERT_BREAKERS)),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "model.json").write_text(json.dumps(MODEL))
    return d


def run(argv: list[str]) -> tuple[int, str]:
    """main's exit code and everything it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    return code, out.getvalue()


def argv_for(command: str, path: str, model: str) -> list[str]:
    return {
        "check-model": ["check-model", path, "True"],
        "frame-check": ["frame-check", path],
        "bisim": ["bisim", path, model],
        "bisim2": ["bisim", model, path],
        "check-proof": ["check-proof", path],
        "check-cert": ["check-cert", path],
    }[command]


def run_on_formula(workdir, command: str, text: str) -> tuple[int, str]:
    """Run command with text, read from a file, as its formula argument."""
    path = workdir / "formula.txt"
    path.write_text(text)
    argv = ["check-model", str(workdir / "model.json")] if command == "check-model" else [command]
    return run([*argv, f"@{path}"])


def test_the_unbroken_documents_pass(workdir):
    model = str(workdir / "model.json")
    for command, doc in [("check-model", MODEL), ("frame-check", MODEL), ("bisim", MODEL),
                         ("check-proof", PROOF), ("check-cert", CERT)]:
        path = workdir / "doc.json"
        path.write_text(json.dumps(doc))
        assert run(argv_for(command, str(path), model))[0] == 0, command


@settings(max_examples=150)
@given(documents)
def test_malformed_documents_exit_2_or_3(workdir, case):
    command, text = case
    path = workdir / "doc.json"
    path.write_text(text)
    code, printed = run(argv_for(command, str(path), str(workdir / "model.json")))
    assert code in (2, 3), printed
    assert "Traceback" not in printed


@settings(max_examples=100)
@given(st.sampled_from(["check-model", "frame-check", "bisim", "bisim2", "check-proof",
                        "check-cert"]), token_strings)
def test_token_strings_as_documents_exit_2(workdir, command, text):
    path = workdir / "doc.json"
    path.write_text(text)
    code, printed = run(argv_for(command, str(path), str(workdir / "model.json")))
    assert code == 2, printed
    assert "Traceback" not in printed


@settings(max_examples=100)
@given(st.sampled_from(["parse", "decide", "check-model"]),
       token_strings | st.text(alphabet=string.printable, max_size=25))
def test_token_strings_as_formulas(workdir, command, text):
    code, printed = run_on_formula(workdir, command, text)
    assert code in (0, 1, 2, 3), printed
    assert "Traceback" not in printed


@settings(max_examples=25)
@given(st.sampled_from(["parse", "decide", "check-model"]), st.integers(1, 3000),
       st.sampled_from([("Not ", "p", ""), ("Box (", "p", ")"), ("p --> ", "q", ""),
                        ("(p && ", "q", ")"), ("(", "p", ")")]))
def test_deep_nesting(workdir, command, depth, shape):
    opening, core, closing = shape
    text = opening * depth + core + closing * depth
    code, printed = run_on_formula(workdir, command, text)
    too_deep = parse(text).depth > MAX_DEPTH
    assert (code == 3) if too_deep else (code in (0, 1, 3)), printed
    assert "Traceback" not in printed
