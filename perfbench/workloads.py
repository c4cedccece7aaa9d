"""The benchmark's workloads: seeded inputs, the user path through
glkit's public calls, and a check on every output.

Each workload is a fixed list of items built from the seed. A pass runs
every item once. Formula inputs are text templates whose atoms carry a
`#` marker; each pass replaces it with its own tag (`p#` becomes
`p0003` on pass 3), so no pass is answered from a cache that an earlier
pass filled, while repeats inside a pass still are. A CLI user starts a
fresh process for every call and gets no such hits at all.

Item functions return (seconds on the user path, outcome label). Checks
that a user would not run (is the relation a bisimulation, does the
proof prove the catalogued statement) run after the user path and are
not part of that time. A failed check raises `CheckFailed`.

Only public names of `glkit` are called: the benchmark must keep
working when internals such as the engine, `World` or `saturate` go.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from glkit import (
    LEMMAS,
    Theorem,
    certificate_from_json,
    certificate_to_json,
    check_proof,
    decide,
    frame_report,
    holds,
    is_bisimulation,
    itf_valid_small,
    largest_bisimulation,
    lemma,
    lemma_statement,
    model_from_json,
    parse,
    proof_from_json,
    proof_to_json,
    verify_certificate,
)


class CheckFailed(Exception):
    """An output of glkit failed the benchmark's check."""


# ---------------------------------------------------------------------------
# Formula generation on the benchmark's own tuple AST, independent of glkit.

_BINARY = {"And": "&&", "Or": "||", "Imp": "-->", "Iff": "<->"}


def random_formula(rng: random.Random, depth: int, atoms: tuple[str, ...]) -> tuple:
    """The grammar sampler of scripts/decide_sweep.py: a leaf with
    probability 0.3 or at depth 0, otherwise one of six connectives."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([("False",), ("True",)] + [("Atom", a) for a in atoms])
    kind = rng.randrange(6)
    if kind < 2:
        return ("Not", "Box")[kind], random_formula(rng, depth - 1, atoms)
    return (
        ("And", "Or", "Imp", "Iff")[kind - 2],
        random_formula(rng, depth - 1, atoms),
        random_formula(rng, depth - 1, atoms),
    )


def render(f: tuple) -> str:
    """Concrete syntax with every binary subterm parenthesised and every
    atom tagged with the pass marker `#`."""
    tag = f[0]
    if tag == "Atom":
        return f[1] + "#"
    if tag in ("False", "True"):
        return tag
    if tag in ("Not", "Box"):
        return f"{tag} {render(f[1])}"
    return f"({render(f[1])} {_BINARY[tag]} {render(f[2])})"


def subterms(f: tuple, acc: set | None = None) -> set:
    acc = set() if acc is None else acc
    if f not in acc:
        acc.add(f)
        for c in f[1:]:
            if isinstance(c, tuple):
                subterms(c, acc)
    return acc


def decision_bits(f: tuple) -> int:
    """Distinct atoms plus distinct boxed subformulas: the bits `decide`
    enumerates worlds over."""
    return sum(1 for g in subterms(f) if g[0] in ("Atom", "Box"))


def node_count(f: tuple) -> int:
    return 1 + sum(node_count(c) for c in f[1:] if isinstance(c, tuple))


def box_depth(f: tuple) -> int:
    kids = [box_depth(c) for c in f[1:] if isinstance(c, tuple)]
    return (f[0] == "Box") + max(kids, default=0)


# ---------------------------------------------------------------------------
# Workload records


@dataclass(frozen=True)
class Item:
    run: Callable  # run(data, pass_tag, tracer, tamper) -> (seconds, label)
    data: tuple


@dataclass
class Workload:
    items: list[Item]
    props: dict = field(default_factory=dict)


def _decide_inputs_props(texts: list[str], bits: list[int]) -> dict:
    seen: set[str] = set()
    repeats = 0
    for t in texts:
        repeats += t in seen
        seen.add(t)
    return {
        "decision_bits_hist": dict(sorted(Counter(bits).items())),
        "decision_bits.max": max(bits),
        "decision_bits.sum": sum(bits),
        "repeat_share": repeats / len(texts),
    }


# ---------------------------------------------------------------------------
# Shared user path: text -> verdict, and certificate -> JSON -> verified reload


def _certificate_round_trip(v, tr, tamper):
    with tr.span("completeness.certificate_to_json"):
        doc = certificate_to_json(v)
    if tamper is not None:
        tamper(doc)
    with tr.span("io.json"):
        text = json.dumps(doc)
        doc = json.loads(text)
    with tr.span("completeness.certificate_from_json"):
        reloaded = certificate_from_json(doc)
    with tr.span("completeness.verify_certificate"):
        ok = verify_certificate(reloaded)
    return ok, doc, text


def _count_certificate(tr, doc: dict, text: str) -> None:
    tr.count("completeness.cert_worlds", len(doc["worlds"]))
    tr.count("completeness.cert_edges", len(doc["rel"]))
    tr.count("completeness.cert_bytes", len(text))
    witness = doc["witness"]
    tr.count(
        "completeness.witness_reach",
        1 + len({y for x, y in doc["rel"] if x == witness}),
    )


def _decide_item(text: str, tr, tamper, oracle: bool):
    """parse -> decide, then a non-theorem's certificate through JSON,
    reload and verification, and (with `oracle`) a theorem through the
    3-world frame oracle. Returns (seconds, is_theorem, checked_ok)."""
    t0 = perf_counter()
    with tr.span("syntax.parse"):
        f = parse(text)
    with tr.span("completeness.decide") as s:
        v = decide(f)
    cert = None
    if isinstance(v, Theorem):
        s.rename("completeness.decide_theorem")
        ok = True
        if oracle:
            with tr.span("kripke.itf_valid_small"):
                ok = itf_valid_small(f, 3)
    else:
        s.rename("completeness.decide_refute")
        ok, *cert = _certificate_round_trip(v, tr, tamper)
    dt = perf_counter() - t0
    if tr.enabled:
        tr.count("syntax.parse_chars", len(text))
        if cert:
            _count_certificate(tr, *cert)
    return dt, isinstance(v, Theorem), ok


# ---------------------------------------------------------------------------
# ladder: implication chains, verdict known by construction

# (decision bits, theorem?) per rung. Left out: the k=12 theorem (~0.8 s at
# the first benchmarked commit), the k=10 refutable rung (~2 s) and larger
# ones. The rungs kept exercise the same mechanisms, and items of a tenth
# of a second or so, repeated a hundred times a run, are what keep the
# per-item best times steady on a shared host.
LADDER_RUNGS = ((8, True), (10, True), (6, False), (8, False))
LADDER_RUNGS_TINY = ((8, True), (8, False))


def ladder_text(k: int, theorem: bool, rng: random.Random) -> str:
    """Box (a0 --> a1) && ... --> Box (a0 --> an) && Box Box an, whose
    chain conjuncts come in seeded order. With || in place of the last
    && it is a theorem. With n + 1 atoms and n + 3 boxes, k = 2n + 4."""
    n = (k - 4) // 2
    links = [f"Box (a{i}# --> a{i + 1}#)" for i in range(n)]
    rng.shuffle(links)
    op = "||" if theorem else "&&"
    return f"{' && '.join(links)} --> Box (a0# --> a{n}#) {op} Box Box a{n}#"


def _ladder_item(data: tuple, tag: str, tr, tamper):
    k, theorem, template = data
    dt, is_theorem, ok = _decide_item(template.replace("#", tag), tr, tamper, False)
    if is_theorem != theorem:
        raise CheckFailed(f"k={k}: expected {'theorem' if theorem else 'non-theorem'}")
    if not ok:
        raise CheckFailed(f"k={k}: reloaded certificate rejected")
    return dt, "theorem" if theorem else "refute"


def ladder(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    rungs = LADDER_RUNGS_TINY if tiny else LADDER_RUNGS
    items = [Item(_ladder_item, (k, thm, ladder_text(k, thm, rng))) for k, thm in rungs]
    props = _decide_inputs_props([it.data[2] for it in items], [k for k, _ in rungs])
    return Workload(items, props)


# ---------------------------------------------------------------------------
# stream: many small random formulas

STREAM_COUNT = 200
STREAM_ATOMS = ("p", "q", "r")
# The corpus is drawn once from this seed; a run's seed renames its atoms
# and shuffles it (see `stream`).
STREAM_CORPUS_SEED = 7


def rename_atoms(f: tuple, names: dict[str, str]) -> tuple:
    if f[0] == "Atom":
        return ("Atom", names[f[1]])
    return (f[0], *(rename_atoms(c, names) if isinstance(c, tuple) else c for c in f[1:]))


def _stream_item(data: tuple, tag: str, tr, tamper):
    (template,) = data
    dt, is_theorem, ok = _decide_item(template.replace("#", tag), tr, tamper, True)
    if not ok:
        what = "theorem fails the 3-world oracle" if is_theorem else "certificate rejected"
        raise CheckFailed(f"{template}: {what}")
    return dt, "theorem" if is_theorem else "refute"


def stream(seed: int, tiny: bool = False) -> Workload:
    """Sampler draws (depth <= 5, atoms p, q, r, at most 4 distinct
    boxes) from STREAM_CORPUS_SEED; the run's seed permutes the atom
    names and the order. Drawn afresh for every seed, the corpus's pass
    time moved by about 10 % from seed to seed: half of it is the 3-world
    oracle on the few 3-atom theorems a corpus holds, at 50 to 200 ms
    each. Renaming and reordering leave the work of a pass the same, and
    repeats stay repeats."""
    base = random.Random(STREAM_CORPUS_SEED)
    formulas = []
    while len(formulas) < (20 if tiny else STREAM_COUNT):
        f = random_formula(base, 5, STREAM_ATOMS)
        if sum(1 for g in subterms(f) if g[0] == "Box") <= 4:
            formulas.append(f)
    rng = random.Random(seed)
    names = dict(zip(STREAM_ATOMS, rng.sample(STREAM_ATOMS, len(STREAM_ATOMS))))
    formulas = [rename_atoms(f, names) for f in formulas]
    rng.shuffle(formulas)
    props = _decide_inputs_props([render(f) for f in formulas], [decision_bits(f) for f in formulas])
    return Workload([Item(_stream_item, (render(f),)) for f in formulas], props)


# ---------------------------------------------------------------------------
# kernel: every catalogue lemma at random arguments

KERNEL_ATOMS = ("p", "q", "r", "s")
# One instance per entry: the node count of every argument, and the list
# length for conjlist_map_box. Fixed sizes keep the proof sizes, and so
# the pass time, the same for every seed. conjlist_map_box grows steeply
# with the length (0.25 s at 3, 0.8 s at 4, 3.7 s at 8 at the first
# benchmarked commit).
KERNEL_INSTANCES = ((4, 2), (10, 3))
KERNEL_INSTANCES_TINY = ((3, 2),)


def _kernel_item(data: tuple, tag: str, tr, tamper):
    name, templates = data
    texts = [t.replace("#", tag) for t in templates]
    t0 = perf_counter()
    with tr.span("syntax.parse"):
        args = [parse(t) for t in texts]
    with tr.span("calculus.lemma"):
        proof = lemma(name, args)
    with tr.span("calculus.proof_to_json"):
        doc = proof_to_json(proof)
    if tamper is not None:
        tamper(doc)
    with tr.span("io.json"):
        text = json.dumps(doc)
        doc = json.loads(text)
    with tr.span("calculus.proof_from_json"):
        reloaded = proof_from_json(doc)
    with tr.span("calculus.check_proof"):
        conclusion = check_proof(reloaded)
    dt = perf_counter() - t0
    if tr.enabled:
        tr.count("syntax.parse_chars", sum(map(len, texts)))
        tr.count("calculus.proof_steps", len(doc["steps"]))
        tr.count("calculus.proof_bytes", len(text))
    if conclusion != lemma_statement(name, args):
        raise CheckFailed(f"{name}: conclusion differs from the catalogued statement")
    return dt, "proof"


def _sized_formula(rng: random.Random, nodes: int) -> tuple:
    while True:
        f = random_formula(rng, 4, KERNEL_ATOMS)
        if node_count(f) == nodes:
            return f


def kernel(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    items = []
    for name, info in LEMMAS.items():
        for nodes, length in KERNEL_INSTANCES_TINY if tiny else KERNEL_INSTANCES:
            arity = length if info.arity is None else info.arity
            args = tuple(render(_sized_formula(rng, nodes)) for _ in range(arity))
            items.append(Item(_kernel_item, (name, args)))
    props = {"lemmas": len(LEMMAS), "instances": len(items)}
    return Workload(items, props)


# ---------------------------------------------------------------------------
# models: frame reports and bisimulation on explicit models

# Two ITF frames per entry, each with a non-ITF twin. Twice as many at
# 10 worlds, so that the median item falls among frames of one size and
# not in the gap between two kinds of item.
FRAME_SIZES = (8, 9, 10, 10, 11)
FRAMES_PER_SIZE = 2
BISIM_SIZES = (30, 40, 50)
MODEL_ATOMS = ("p", "q")
# The models are drawn once from this seed; a run's seed renumbers their
# worlds and shuffles the items (see `models`).
MODELS_CORPUS_SEED = 7


def _renumber(rel, perm: list[int]) -> set[tuple[int, int]]:
    return {(perm[x], perm[y]) for x, y in rel}


def _itf_relation(rng: random.Random, n: int, density: float) -> set[tuple[int, int]]:
    """Transitive closure of a random DAG over a shuffled world order,
    redrawn until it holds `density` of the n(n-1)/2 possible pairs,
    within 2 %: the cost of evaluating on a frame follows its edge count."""
    edges = round(density * n * (n - 1) / 2)
    p = density / 2
    while True:
        order = list(range(n))
        rng.shuffle(order)
        succ = {w: set() for w in range(n)}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    succ[order[i]].add(order[j])
        for w in reversed(order):  # successors come later in `order`
            for u in list(succ[w]):
                succ[w] |= succ[u]
        rel = {(x, y) for x in range(n) for y in succ[x]}
        if abs(len(rel) - edges) <= edges // 50:
            return rel
        p *= (edges / max(len(rel), 1)) ** 0.5


def _model_doc(n: int, rel, val: dict[str, set[int]], name=lambda w: f"w{w}") -> dict:
    return {
        "worlds": [name(w) for w in range(n)],
        "rel": sorted([name(x), name(y)] for x, y in rel),
        "val": {a: sorted(name(w) for w in ws) for a, ws in val.items()},
    }


def _frame_item(data: tuple, tag: str, tr, tamper):
    """Frame reports on an ITF frame and on its twin with a loop added;
    one item, so that the twin's near-free report is not an item of its
    own that the per-item percentiles would fall between."""
    t0 = perf_counter()
    reports = []
    for doc, _ in data:
        with tr.span("io.json"):
            doc = json.loads(json.dumps(doc))
        with tr.span("kripke.model_from_json"):
            m, _ = model_from_json(doc)
        with tr.span("kripke.frame_report"):
            reports.append(frame_report(m.frame))
    dt = perf_counter() - t0
    for (doc, itf), rep in zip(data, reports):
        if tr.enabled:
            n = len(doc["worlds"])
            tr.count("kripke.model_worlds", n)
            tr.count("kripke.model_edges", len(doc["rel"]))
            tr.count("kripke.valuations", 2**n)  # valuation space of the Lob sweep
        if rep.validates_lob != (rep.transitive and rep.acyclic):
            raise CheckFailed("Lob validity disagrees with transitive and acyclic")
        if (rep.transitive and rep.acyclic) != itf:
            raise CheckFailed("frame report disagrees with how the frame was built")
    return dt, "frame_check"


def _bisim_item(data: tuple, tag: str, tr, tamper):
    doc, clone_doc, texts = data
    t0 = perf_counter()
    with tr.span("io.json"):
        doc = json.loads(json.dumps(doc))
        clone_doc = json.loads(json.dumps(clone_doc))
    with tr.span("kripke.model_from_json"):
        m1, _ = model_from_json(doc)
        m2, _ = model_from_json(clone_doc)
    with tr.span("syntax.parse"):
        fs = [parse(t) for t in texts]
    n = len(doc["worlds"])
    with tr.span("kripke.holds"):
        truth = [[holds(m1, f, w) for w in range(n)] for f in fs]
    with tr.span("bisim.largest_bisimulation"):
        z = largest_bisimulation(m1, m2)
    dt = perf_counter() - t0
    if tr.enabled:
        tr.count("syntax.parse_chars", sum(map(len, texts)))
        tr.count("kripke.model_worlds", n + len(clone_doc["worlds"]))
        tr.count("kripke.model_edges", len(doc["rel"]) + len(clone_doc["rel"]))
        tr.count("bisim.candidate_pairs", _atom_agreeing_pairs(doc, clone_doc))
        tr.count("bisim.pairs", len(z.pairs))
    # World w of the model is cloned as worlds 2w and 2w + 1.
    if not all((w, 2 * w + c) in z.pairs for w in range(n) for c in (0, 1)):
        raise CheckFailed("a world and its clone are not bisimilar")
    if not is_bisimulation(m1, m2, z):
        raise CheckFailed("largest_bisimulation returned a non-bisimulation")
    for f, row in zip(fs, truth):
        if any(holds(m2, f, 2 * w + c) != row[w] for w in range(n) for c in (0, 1)):
            raise CheckFailed("holds differs between a world and its clone")
    return dt, "bisim"


def _atom_agreeing_pairs(doc1: dict, doc2: dict) -> int:
    def signatures(doc):
        sig = {w: [] for w in doc["worlds"]}
        for a, ws in sorted(doc["val"].items()):
            for w in ws:
                sig[w].append(a)
        return Counter(tuple(s) for s in sig.values())

    s1, s2 = signatures(doc1), signatures(doc2)
    return sum(c * s2[s] for s, c in s1.items())


def _bisim_inputs(rng: random.Random, n: int, itf: bool, perm: list[int]) -> tuple:
    """A random model with its worlds renumbered by `perm`, its clone with
    every world doubled, and three formulas of box depth at most 2 to
    evaluate on it."""
    if itf:
        rel = _itf_relation(rng, n, 0.3)
    else:
        pairs = [(x, y) for x in range(n) for y in range(n)]
        rel = set(rng.sample(pairs, round(0.2 * n * n)))
    rel = _renumber(rel, perm)
    val = {a: {perm[w] for w in rng.sample(range(n), n // 2)} for a in MODEL_ATOMS}
    clone_rel = {(2 * x + c, 2 * y + d) for x, y in rel for c in (0, 1) for d in (0, 1)}
    clone_val = {a: {2 * w + c for w in ws for c in (0, 1)} for a, ws in val.items()}
    clone = _model_doc(2 * n, clone_rel, clone_val, lambda w: f"v{w // 2}{'ab'[w % 2]}")
    texts = []
    while len(texts) < 3:
        f = random_formula(rng, 3, MODEL_ATOMS)
        if box_depth(f) <= 2:
            texts.append(render(f).replace("#", ""))
    return _model_doc(n, rel, val), clone, tuple(texts)


def models(seed: int, tiny: bool = False) -> Workload:
    """Frames and models drawn from MODELS_CORPUS_SEED; the run's seed
    renumbers the worlds of each and shuffles the items. Drawn afresh for
    every seed, the models moved the median item time by about 25 % from
    seed to seed, as bisimulation items of 40 worlds (30 to 75 ms) and
    frames of 9 and 10 worlds traded places around it; renumbering leaves
    each item's work the same."""
    base, rng = random.Random(MODELS_CORPUS_SEED), random.Random(seed)
    items = []
    for n in (4, 5) if tiny else FRAME_SIZES:
        for _ in range(1 if tiny else FRAMES_PER_SIZE):
            rel = _itf_relation(base, n, 0.45)
            # Not ITF: the same frame with a loop on a world without
            # successors. The Lob sweep then fails at its first valuation,
            # so the twin costs the same for every seed.
            w = base.choice(sorted(set(range(n)) - {x for x, _ in rel}))
            perm = rng.sample(range(n), n)
            itf, twin = _renumber(rel, perm), _renumber(rel | {(w, w)}, perm)
            items.append(Item(_frame_item, ((_model_doc(n, itf, {}), True),
                                            (_model_doc(n, twin, {}), False))))
    for n in (6, 8) if tiny else BISIM_SIZES:
        for itf in (True, False):
            perm = rng.sample(range(n), n)
            items.append(Item(_bisim_item, _bisim_inputs(base, n, itf, perm)))
    rng.shuffle(items)
    props = {
        "frame_worlds": [len(it.data[0][0]["worlds"]) for it in items if it.run is _frame_item],
        "bisim_worlds": [len(it.data[0]["worlds"]) for it in items if it.run is _bisim_item],
    }
    return Workload(items, props)


def kernel_models(seed: int, tiny: bool = False) -> Workload:
    """`kernel` and `models` in one pass: the workload with no decide
    calls. Run apart, each needed runs of its own, and a run shorter than
    the host's slow spells of a minute or two (see DESIGN.md, Noise) did
    not keep its figures steady."""
    k, m = kernel(seed, tiny), models(seed, tiny)
    return Workload(k.items + m.items, {**k.props, **m.props})


WORKLOADS = {"ladder": ladder, "stream": stream, "kernel_models": kernel_models}
