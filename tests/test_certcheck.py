"""The certificate checker on hand-built certificates: one reason per
check, each naming where it fails, and the checks in their order."""

import pytest

from glkit.certcheck import problem

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
