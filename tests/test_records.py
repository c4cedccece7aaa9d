"""glkit's record classes: value semantics, immutability and repr for
each, and an import that leaves `dataclasses` unloaded."""

import subprocess
import sys
from pathlib import Path

import pytest

import glkit
from glkit.bisim import BisimRelation
from glkit.calculus import LEMMAS, AxiomStep, LemmaInfo, MpStep, NecStep, Proof
from glkit.completeness import (
    ClosureContext,
    Countermodel,
    StandardModel,
    Theorem,
    World,
    closure_context,
    decide,
)
from glkit.kripke import Frame, FrameReport, Model
from glkit.syntax import parse


def _frame():
    return Frame(frozenset({0, 1}), frozenset({(0, 1)}))


def _standard_model():
    f = parse("Box p --> p")
    return StandardModel(f, decide(f).model.worlds, ((0, 1),))


def _world():
    return World(tuple(map(parse, ["p", "Not Box p"])))


def _build(b, p):
    return 0


# Each factory builds a new record from new but equal field values.
RECORDS = {
    "AxiomStep": lambda: AxiomStep(parse("p --> q --> p")),
    "MpStep": lambda: MpStep(2, 1),
    "NecStep": lambda: NecStep(3),
    "Proof": lambda: Proof((AxiomStep(parse("p --> q --> p")), NecStep(0))),
    "Theorem": lambda: Theorem(parse("Box p --> Box Box p")),
    "Countermodel": lambda: Countermodel(_standard_model(), _world()),
    "ClosureContext": lambda: closure_context(parse("Box p --> p")),
    "Model": lambda: Model(_frame(), {"p": frozenset({1})}),
    "FrameReport": lambda: FrameReport(True, True, True, True, True, True, True),
    "BisimRelation": lambda: BisimRelation(frozenset({(0, 0), (1, 1)})),
    "World": _world,
    "Frame": _frame,
    "StandardModel": _standard_model,
    "LemmaInfo": lambda: LemmaInfo("imp_refl", ("p",), "p --> p", _build),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_make_equal_records(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b and not a != b
    if name == "Model":
        # The valuation is a dict, so a model has no hash.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    rec = RECORDS[name]()
    field = rec._fields[0] if isinstance(rec, tuple) else next(iter(vars(rec)))
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = None


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_the_class(name):
    rec = RECORDS[name]()
    assert type(rec).__name__ == name
    assert repr(rec).startswith(name + "(")


def test_standard_model_equality_ignores_context():
    sm = _standard_model()
    other = ClosureContext(sm.target, (), (), ())
    twin = StandardModel(sm.target, sm.worlds, sm.rel, other)
    assert twin.context is other
    assert twin == sm and hash(twin) == hash(sm)
    assert "context" not in repr(sm)
    assert StandardModel(sm.target, sm.worlds, ()) != sm


def test_cached_properties_are_computed_once():
    w = _world()
    assert "member_set" not in vars(w)
    assert w.member_set is w.member_set == frozenset(w.members)
    fr = _frame()
    assert "_layout" not in vars(fr)
    assert fr._layout is fr._layout


def test_lemma_entries_compare_by_fields():
    info = LEMMAS["imp_refl"]
    twin = LemmaInfo(info.name, info.params, info.text, info.build)
    assert twin == info and hash(twin) == hash(info)
    assert twin != LemmaInfo(info.name, info.params, "q --> q", info.build)


def test_import_leaves_dataclasses_unloaded():
    src = str(Path(glkit.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import glkit; "
        "subs = [m for m in sys.modules if m.startswith('glkit.')]; "
        "assert not subs, subs; "
        "import glkit.cli, glkit.calculus, glkit.bisim; "
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules); "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
