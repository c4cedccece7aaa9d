"""The certificate checker on hand-built certificates: one reason per
check, each naming where it fails, and the checks in their order. Then
the document reader: its printer, its leaf and atom-name rules, and
`check-cert` against the loader and the reference check on tampered
certificates."""

import json
import random

import pytest

from glkit.certcheck import _prints_as, problem, read
from glkit.cli import main
from glkit.completeness import (
    Countermodel,
    certificate_from_json,
    certificate_to_json,
    closure_context,
    decide,
)
from glkit.syntax import Atom, Box, conjlist, parse, print_formula
from helpers import random_formula, reference_verify_certificate

# Box p --> p; its countermodel is one world holding Box p and Not p.
NODES = ["p", ["Box", 0], ["Imp", 1, 0]]


def test_countermodel_passes():
    assert problem(NODES, [0b010], (), 0) is None
    # Two worlds: w1 sees p, so Box p holds at w0 only through it.
    assert problem(NODES, [0b010, 0b111], ((0, 1),), 0) is None


@pytest.mark.parametrize(
    "nodes, reason",
    [
        ([], "the closure is empty"),
        (["p", ["Box", 2], ["Imp", 1, 0]], "closure position 1: a child does not come earlier"),
        (["p", ["Box", True], ["Imp", 1, 0]], "closure position 1: a child does not come earlier"),
        (["p", ["Box", 0.0], ["Imp", 1, 0]], "closure position 1: a child does not come earlier"),
        (["p", "p", ["Imp", 0, 1]], "closure position 1: the same node as position 0"),
        (["p", "q", ["Box", 0]], "closure position 1: not reachable from the target"),
        (["p", ["Diamond", 0], ["Imp", 1, 0]], "closure position 1: not a closure node"),
        (["p", ["Box", 0, 0], ["Imp", 1, 0]], "closure position 1: not a closure node"),
        (["p", ("Box", 0), ["Imp", 1, 0]], "closure position 1: not a closure node"),
        (["p", [["Box"], 0], ["Imp", 1, 0]], "closure position 1: not a closure node"),
        ([5], "closure position 0: not a closure node"),
    ],
)
def test_node_table(nodes, reason):
    assert problem(nodes, [0], (), 0) == reason


@pytest.mark.parametrize(
    "masks, rel, reason",
    [
        ([], (), "the frame is not ITF: it has no world"),
        ([2], ((0, 1),), "the frame is not ITF: the pair (0, 1) names no world"),
        ([2], ((0, -1),), "the frame is not ITF: the pair (0, -1) names no world"),
        ([2, 2], ((0, 1.0),), "the frame is not ITF: the pair (0, 1.0) names no world"),
        ([2], ((0, 0),), "the frame is not ITF: world 0 is its own successor"),
        (
            [2, 2, 2],
            ((0, 1), (1, 2)),
            "the frame is not ITF: world 0 reaches world 2 through world 1 only",
        ),
    ],
)
def test_frame(masks, rel, reason):
    assert problem(NODES, masks, rel, 0) == reason


@pytest.mark.parametrize(
    "nodes, masks, rel, reason",
    [
        (NODES, [8], (), "world 0: its mask is not an int of 3 bits"),
        (NODES, [-1], (), "world 0: its mask is not an int of 3 bits"),
        # Box p holds at a world with no successor.
        (NODES, [0], (), "world 0, closure position 1: the mask says false, the model true"),
        # w1 does not hold p, so Box p fails at w0.
        (
            NODES,
            [0b010, 0b010],
            ((0, 1),),
            "world 0, closure position 1: the mask says true, the model false",
        ),
        (
            ["False", "True", ["Imp", 1, 0]],
            [0b000],
            (),
            "world 0, closure position 1: the mask says false, the model true",
        ),
        (
            ["False", "True", ["Imp", 1, 0]],
            [0b001],
            (),
            "world 0, closure position 0: the mask says true, the model false",
        ),
    ],
)
def test_masks(nodes, masks, rel, reason):
    assert problem(nodes, masks, rel, 0) == reason


@pytest.mark.parametrize(
    "masks, witness, reason",
    [
        ([2], None, "the witness is not a world of the certificate"),
        ([2], 1, "the witness is not a world of the certificate"),
        ([2], -1, "the witness is not a world of the certificate"),
        ([7], 0, "world 0, closure position 2: the witness does not refute the target"),
    ],
)
def test_witness(masks, witness, reason):
    assert problem(NODES, masks, (), witness) == reason


def test_checks_come_in_order():
    # Each certificate fails every later check too; the first one named.
    assert problem(["p", "q"], [], ((0, 0),), None).startswith("closure position 0")
    assert problem(NODES, [8], ((0, 0),), None).endswith("its own successor")
    assert problem(NODES, [0], (), None).startswith("world 0, closure position 1")


# ---------------------------------------------------------------------------
# The document reader, alone and behind `check-cert`


def check_cert(tmp_path, doc) -> int:
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    return main(["check-cert", str(path)])


def reorder(doc: dict, order: list[int]) -> dict:
    """doc with closure position order[k] moved to position k, in the
    table and in every mask."""
    pos = {j: k for k, j in enumerate(order)}
    closure = doc["closure"]
    new = [
        [t[0], *(pos[c] for c in t[1:])] if type(t) is list else t
        for t in map(closure.__getitem__, order)
    ]
    truth = {
        w: f"{sum((int(x, 16) >> j & 1) << k for k, j in enumerate(order)):x}"
        for w, x in doc["world_truth"].items()
    }
    return {**doc, "closure": new, "world_truth": truth}


BOX_P = certificate_to_json(decide(parse("Box p --> p")))


def test_root_prints_as_print_formula():
    rng = random.Random(5)
    fs = [random_formula(rng, 6, ("p", "q", "r")) for _ in range(300)]
    # Past the interpreter's recursion limit, so no recursive printer passes.
    deep = [
        parse("Not " * 1200 + "p"),
        conjlist([Atom("p")] * 2 + [Box(Atom(f"a{i}")) for i in range(1200)]),
    ]
    for f in fs + deep:
        text, nodes = print_formula(f), closure_context(f).closure_terms
        assert _prints_as(nodes, text)
        assert not _prints_as(nodes, text[:-1]) and not _prints_as(nodes, text + " ")


def test_shared_table_stops_at_the_target_length():
    # 60 levels of And k k would print 2**60 atoms; the printer stops at
    # the first character that differs from the target.
    nodes = ["p", *(["And", k, k] for k in range(60))]
    doc = {"worlds": ["w0"], "target": "p && p", "closure": nodes, "witness": "w0",
           "world_truth": {"w0": "0"}}
    with pytest.raises(ValueError, match="certificate field 'closure'"):
        read(doc)


@pytest.mark.parametrize("leaf", ["Not", "Box", "1p", "p q", "", "_p", "p\n"])
def test_leaf_that_names_no_atom_exits_2(tmp_path, capsys, leaf):
    # The target is spelled to match, so only the leaf rule refuses it.
    closure = [leaf, *BOX_P["closure"][1:]]
    doc = {**BOX_P, "closure": closure, "target": f"Box {leaf} --> {leaf}"}
    assert check_cert(tmp_path, doc) == 2
    assert "certificate field 'closure'" in capsys.readouterr().err
    assert problem(doc["closure"], [0b010], (), 0) == "closure position 0: not a closure node"


@pytest.mark.parametrize("key", ["Not", "True", "1x", "p q"])
def test_val_key_no_formula_can_name_exits_2(tmp_path, capsys, key):
    assert check_cert(tmp_path, {**BOX_P, "val": {key: []}}) == 2
    err = capsys.readouterr().err
    assert "'val'" in err and repr(key) in err


@pytest.mark.parametrize(
    "target",
    ["Box p  --> p", "Box p-->p", "(Box p) --> p", " Box p --> p", "Box p --> p\n", "Box(p) --> p"],
)
def test_target_spaced_otherwise_exits_2(tmp_path, capsys, target):
    assert check_cert(tmp_path, BOX_P) == 0
    assert check_cert(tmp_path, {**BOX_P, "target": target}) == 2
    assert "certificate field 'closure'" in capsys.readouterr().err


@pytest.mark.parametrize("order", [[1, 0, 2, 3, 4, 5, 6], [0, 2, 1, 3, 4, 5, 6]])
def test_children_first_order_accepted_by_check_cert_only(tmp_path, order):
    # Soundness needs the table children first, not in canonical order.
    # The loader's masks index ClosureContext.closure, so it refuses any
    # other order with the closure message.
    doc = certificate_to_json(decide(parse("q --> Box (Box p --> q || p)")))
    moved = reorder(doc, order)
    assert moved["closure"] != doc["closure"]
    assert check_cert(tmp_path, moved) == 0
    with pytest.raises(ValueError, match="certificate field 'closure'"):
        certificate_from_json(moved)


def tampered(doc: dict):
    """doc, then its copies with one mask bit flipped, one edge dropped or
    added, or the witness moved."""
    worlds, rel = doc["worlds"], doc["rel"]
    yield doc
    for w in worlds:
        for i in range(len(doc["closure"])):
            x = int(doc["world_truth"][w], 16) ^ 1 << i
            yield {**doc, "world_truth": {**doc["world_truth"], w: f"{x:x}"}}
    for k in range(len(rel)):
        yield {**doc, "rel": rel[:k] + rel[k + 1:]}
    for x in worlds:
        for y in worlds:
            if [x, y] not in rel:
                yield {**doc, "rel": [*rel, [x, y]]}
    for w in worlds:
        if w != doc["witness"]:
            yield {**doc, "witness": w}


def test_check_cert_agrees_with_load_then_reference_check(tmp_path, capsys):
    # check-cert's exit code against certificate_from_json, counted as 2
    # when it raises, then the reference check read off kripke.extensions.
    # Certificates of two worlds or more, so that edges can be dropped.
    rng = random.Random(11)
    docs, seen = [], set()
    while len(docs) < 12:
        v = decide(random_formula(rng, 5, ("p", "q", "r")))
        if isinstance(v, Countermodel) and len(v.model.worlds) > 1 and v.model.target not in seen:
            seen.add(v.model.target)
            docs.append(certificate_to_json(v))
    codes = []
    for doc in docs:
        for bad in tampered(doc):
            try:
                want = 0 if reference_verify_certificate(certificate_from_json(bad)) else 1
            except ValueError:
                want = 2
            assert check_cert(tmp_path, bad) == want, bad
            codes.append(want)
    capsys.readouterr()
    assert codes.count(0) >= len(docs) and min(codes.count(1), codes.count(2)) > 50
