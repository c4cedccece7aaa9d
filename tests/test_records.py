"""glkit's record classes: value semantics, immutability, repr and
copies for each, and an import that leaves `dataclasses` unloaded."""

import copy
import pickle
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
    return World(parse("Box p --> p"), tuple(map(parse, ["p", "Not Box p", "Box p --> p"])))


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
    "ClosureContext": lambda: ClosureContext(parse("Box p --> p")),
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


# The reprs of the records whose fields print the same in every process.
REPRS = {
    "Frame": "Frame(worlds=frozenset({0, 1}), rel=frozenset({(0, 1)}))",
    "ClosureContext": "ClosureContext(parse('Box p --> p'))",
    "World": "World(parse('Box p --> p'), (parse('p'), parse('Not Box p'), parse('Box p --> p')))",
    "StandardModel": (
        "StandardModel(target=parse('Box p --> p'), worlds=(World(parse('Box p --> p'), "
        "(parse('Not p'), parse('Box p'), parse('Not (Box p --> p)'))),), rel=((0, 1),))"
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_the_class(name):
    rec = RECORDS[name]()
    assert type(rec).__name__ == name
    assert repr(rec).startswith(name + "(")
    if name in REPRS:
        assert repr(rec) == REPRS[name]


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_deepcopy_round_trip(name):
    rec = RECORDS[name]()
    for twin in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
        assert type(twin) is type(rec)
        assert twin == rec
        if name != "Model":
            assert hash(twin) == hash(rec)


def test_verdict_round_trips_after_to_model():
    # to_model() keeps a model with a read-only valuation on the verdict;
    # a copy is built again from its fields and keeps none.
    v = decide(parse("Box p --> p"))
    m = v.model.to_model()
    for twin in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
        assert twin == v
        assert twin.model._model is None
        assert twin.model.to_model() == m
        assert twin.model.context is v.model.context


def test_unpickled_worlds_share_the_cached_context():
    v = decide(parse("Box p --> p"))
    v2 = pickle.loads(pickle.dumps(v))
    assert v2 == v
    assert v2.witness.context is v2.model.context is closure_context(v.model.target)
    assert all(w.context is v2.model.context for w in v2.model.worlds)


@pytest.mark.parametrize("name", LEMMAS)
def test_every_lemma_entry_round_trips(name):
    info = LEMMAS[name]
    for twin in (pickle.loads(pickle.dumps(info)), copy.deepcopy(info)):
        assert twin == info and hash(twin) == hash(info)
        assert twin.build is info.build


def test_standard_model_equality_ignores_context():
    sm = _standard_model()
    twin = StandardModel(sm.target, sm.worlds, sm.rel)
    assert sm.context is twin.context
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
    info = LemmaInfo("imp_refl", ("p",), "p --> p", _build)
    ctx = ClosureContext(parse("Box p --> p"))
    for rec, field in [(info, "statement"), (info, "program"),
                       (ctx, "engine"), (ctx, "closure_terms")]:
        assert field not in vars(rec)
        value = getattr(rec, field)
        assert vars(rec)[field] is value is getattr(rec, field)


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
