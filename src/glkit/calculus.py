"""The GL axiomatic calculus as data.

Proofs are flat indexed step sequences (axiom instance, modus ponens,
necessitation); `check_proof` is the sole trusted component and
recomputes every step formula from scratch. Everything else, including
the whole lemma catalogue, only *builds* proof objects that the checker
must accept, so a bug outside the checker cannot certify a non-theorem.

Axiom schemas: a Wajsberg/Church-style classical core over implication
and falsity with definitional schemas for the other connectives, plus
the modal distribution schema K and the Lob schema GL. The schema table
below is the only statement of the axioms: the kernel matches its
patterns (`match_axiom`), and the proof builder only instantiates them
(`axiom_instance`), so no code but the kernel matches a schema. Each
schema is compiled once, from its table row, into a children-first
program over the argument positions (`_compile`): its leaves, then the
`syntax.closure_steps` of its compound subformulas, each a constructor
step; an instance is one run of that program. Catalogue statements are
compiled the same way on first use.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import NamedTuple

from .limits import SizeGuardError
from .syntax import (
    FALSE,
    TRUE,
    And,
    Atom,
    Box,
    Formula,
    Iff,
    Imp,
    Not,
    Or,
    _Record,
    _cached_field,
    _set,
    children,
    closure_steps,
    conjlist,
    is_atom_name,
    parse,
    print_formula,
    subformulas,
)

# ---------------------------------------------------------------------------
# Axiom schemas

#: A pattern compiled for instantiation (see `_compile`): one entry per
#: leaf, an argument position or a constant, then the steps
#: (constructor, a, b) that build the rest.
_Program = tuple[tuple[int | Formula, ...], tuple[tuple[type, int, int | None], ...]]


def _compile(params: Sequence[str], pattern: Formula) -> _Program:
    """pattern as a program over its parameters, which stand for the
    arguments in order. Its values align with `subformulas(pattern)`:
    first the leaves, the smallest, each the argument its atom names or
    the constant itself, then the `closure_steps` entry of each compound
    subformula, which applies its constructor to the values at a and b
    (b is None for Not and Box). The last value is the instance."""
    leaves: list[int | Formula] = []
    steps = []
    for g, step in zip(subformulas(pattern), closure_steps(pattern)):
        if children(g):
            steps.append(step)
        else:
            leaves.append(params.index(g.name) if isinstance(g, Atom) else g)
    return tuple(leaves), tuple(steps)


def _instantiate(program: _Program, args: Sequence[Formula]) -> Formula:
    """The compiled pattern with every parameter replaced by its argument,
    all at once."""
    leaves, steps = program
    vals = [args[x] if type(x) is int else x for x in leaves]
    push = vals.append
    for cls, a, b in steps:
        push(cls(vals[a]) if b is None else cls(vals[a], vals[b]))
    return vals[-1]


def _schema(params: str, text: str) -> tuple[tuple[str, ...], Formula, _Program]:
    names, pattern = tuple(params.split()), parse(text)
    return names, pattern, _compile(names, pattern)


#: The axiom system: name -> (parameter atoms in argument order, pattern,
#: the pattern compiled). The parameters act as metavariables ranging
#: over arbitrary formulas.
_AXIOMS: dict[str, tuple[tuple[str, ...], Formula, _Program]] = {
    name: _schema(params, text)
    for name, params, text in [
        ("addimp", "p q", "p --> q --> p"),
        ("distribimp", "p q r", "(p --> q --> r) --> (p --> q) --> p --> r"),
        ("doubleneg", "p", "((p --> False) --> False) --> p"),
        ("iffimp1", "p q", "(p <-> q) --> p --> q"),
        ("iffimp2", "p q", "(p <-> q) --> q --> p"),
        ("impiff", "p q", "(p --> q) --> (q --> p) --> (p <-> q)"),
        ("true_def", "", "True <-> False --> False"),
        ("not_def", "p", "Not p <-> p --> False"),
        ("and_def", "p q", "p && q <-> (p --> q --> False) --> False"),
        ("or_def", "p q", "p || q <-> Not (Not p && Not q)"),
        ("K", "p q", "Box (p --> q) --> Box p --> Box q"),
        ("GL", "p", "Box (Box p --> p) --> Box p"),
    ]
}

#: The schema patterns in table order, as the kernel tries them.
SCHEMAS: tuple[tuple[str, Formula], ...] = tuple(
    (name, pattern) for name, (_, pattern, _) in _AXIOMS.items()
)


def _check_arity(kind: str, name: str, params: Sequence[str], args: Sequence) -> None:
    if len(args) != len(params):
        raise ValueError(
            f"{kind} {name} takes {len(params)} formula argument(s), got {len(args)}"
        )


def axiom_instance(name: str, args: Sequence[Formula]) -> Formula:
    """The instance of the named schema at the given formulas, one per
    parameter in order."""
    entry = _AXIOMS.get(name)
    if entry is None:
        raise LookupError(f"unknown axiom schema: {name!r}")
    params, _, program = entry
    _check_arity("axiom schema", name, params, args)
    return _instantiate(program, args)


class AxiomMatch(NamedTuple):
    schema: str
    subst: dict[str, Formula]


def _match(pattern: Formula, f: Formula, subst: dict[str, Formula]) -> bool:
    if isinstance(pattern, Atom):
        bound = subst.get(pattern.name)
        if bound is None:
            subst[pattern.name] = f
            return True
        return bound == f
    if type(pattern) is not type(f):
        return False
    if isinstance(pattern, (Not, Box)):
        return _match(pattern.arg, f.arg, subst)
    if isinstance(pattern, (And, Or, Imp, Iff)):
        return _match(pattern.left, f.left, subst) and _match(
            pattern.right, f.right, subst
        )
    return pattern == f  # Truth / Falsity


def match_axiom(f: Formula) -> AxiomMatch | None:
    """The first schema f instantiates, with the instantiation, or None."""
    for name, pattern in SCHEMAS:
        subst: dict[str, Formula] = {}
        if _match(pattern, f, subst):
            return AxiomMatch(name, subst)
    return None


def is_axiom(f: Formula) -> bool:
    return match_axiom(f) is not None


# ---------------------------------------------------------------------------
# Proof objects and the trusted checker


class AxiomStep(NamedTuple):
    formula: Formula


class MpStep(NamedTuple):
    major: int
    minor: int


class NecStep(NamedTuple):
    premise: int


Step = AxiomStep | MpStep | NecStep


class Proof(NamedTuple):
    steps: tuple[Step, ...]


class ProofError(ValueError):
    """Rejection of a proof, located at a step index."""

    def __init__(self, step: int, reason: str):
        super().__init__(f"step {step}: {reason}")
        self.step = step
        self.reason = reason


def step_formulas(pr: Proof) -> list[Formula]:
    """Derived formula of every step; raises ProofError on the first bad step."""
    if not pr.steps:
        raise ProofError(0, "empty proof")
    forms: list[Formula] = []
    for i, step in enumerate(pr.steps):
        if isinstance(step, AxiomStep):
            if not is_axiom(step.formula):
                raise ProofError(
                    i, f"not an axiom instance: {print_formula(step.formula)}"
                )
            forms.append(step.formula)
        elif isinstance(step, MpStep):
            if not (0 <= step.major < i and 0 <= step.minor < i):
                raise ProofError(i, f"index out of range: mp {step.major} {step.minor}")
            major = forms[step.major]
            if not isinstance(major, Imp):
                raise ProofError(
                    i, f"major premise is not an implication: {print_formula(major)}"
                )
            if major.left != forms[step.minor]:
                raise ProofError(
                    i,
                    "minor premise does not match the antecedent: "
                    f"expected {print_formula(major.left)}, "
                    f"got {print_formula(forms[step.minor])}",
                )
            forms.append(major.right)
        elif isinstance(step, NecStep):
            if not 0 <= step.premise < i:
                raise ProofError(i, f"index out of range: nec {step.premise}")
            forms.append(Box(forms[step.premise]))
        else:
            raise ProofError(i, f"unknown step kind: {step!r}")
    return forms


def check_proof(pr: Proof) -> Formula:
    """Validate every step and return the conclusion (the last formula)."""
    return step_formulas(pr)[-1]


#: The connectives of proof-document terms: tag -> (constructor, number
#: of child ids).
_TERM_TAGS = {
    cls.__name__: (cls, len(cls.__match_args__)) for cls in (Not, Box, And, Or, Imp, Iff)
}
_TERM_LEAVES = {"True": TRUE, "False": FALSE}
_LEAF_TEXT = {f: text for text, f in _TERM_LEAVES.items()}


def proof_to_json(pr: Proof) -> dict:
    """A proof document: `terms` lists every distinct subformula of the
    axiom steps once, children first, as an atom name, True, False or
    [tag, child ids...]; an axiom step names its formula's term id."""
    terms: list = []
    ids: dict[Formula, int] = {}
    get = ids.get
    steps: list[dict] = []
    for step in pr.steps:
        if isinstance(step, AxiomStep):
            f = step.formula
            # A node is numbered once its children are; one that lacks a
            # child id goes back on the stack under its missing children.
            stack = [f]
            while stack:
                g = stack.pop()
                if g in ids:
                    continue
                kids = children(g)
                row = [type(g).__name__]
                for c in kids:
                    n = get(c)
                    if n is None:
                        stack.append(g)
                        stack += [k for k in reversed(kids) if k not in ids]
                        break
                    row.append(n)
                else:
                    ids[g] = len(terms)
                    terms.append(row if kids else _LEAF_TEXT.get(g) or g.name)
            steps.append({"axiom": ids[f]})
        elif isinstance(step, MpStep):
            steps.append({"mp": [step.major, step.minor]})
        else:
            steps.append({"nec": step.premise})
    return {"terms": terms, "steps": steps}


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _load_terms(raws) -> list[Formula]:
    """Build each term of a proof document's `terms` once, checking it by
    its shape: a string is True, False or an atom name; a list is a tag
    and as many child ids as the tag takes, each naming an earlier term."""
    if not isinstance(raws, (list, tuple)):
        raise ValueError("proof field 'terms': expected a list of terms")
    built: list[Formula] = []
    push = built.append
    for n, raw in enumerate(raws):
        if isinstance(raw, str):
            f = _TERM_LEAVES.get(raw)
            if f is None:
                if not is_atom_name(raw):
                    raise ValueError(f"proof field 'terms', term {n}: not an atom name: {raw!r}")
                f = Atom(raw)
            push(f)
            continue
        tag = raw[0] if isinstance(raw, (list, tuple)) and raw else None
        entry = _TERM_TAGS.get(tag) if isinstance(tag, str) else None
        if entry is None:
            raise ValueError(
                f"proof field 'terms', term {n}: expected an atom name, True, "
                f"False or [tag, child ids...] with tag one of "
                f"{', '.join(_TERM_TAGS)}, got {raw!r}"
            )
        cls, arity = entry
        if len(raw) != arity + 1:
            raise ValueError(
                f"proof field 'terms', term {n}: {tag} takes "
                f"{arity} child id(s), got {len(raw) - 1}"
            )
        # An id is an int that is no bool and names an earlier term.
        a = raw[1]
        if (type(a) is int or _is_index(a)) and 0 <= a < n:
            if arity == 1:
                push(cls(built[a]))
                continue
            b = raw[2]
            if (type(b) is int or _is_index(b)) and 0 <= b < n:
                push(cls(built[a], built[b]))
                continue
        raise ValueError(
            f"proof field 'terms', term {n}: child ids must name earlier terms, "
            f"got {list(raw[1:])!r}"
        )
    return built


def proof_from_json(doc) -> Proof:
    """Load a proof document. An axiom step names a term id, or, in the
    older form, gives its formula as text. A document of the wrong shape
    raises ValueError naming the bad field and step or term."""
    raws = doc.get("steps") if isinstance(doc, Mapping) else None
    if not isinstance(raws, (list, tuple)):
        raise ValueError("proof field 'steps': expected a list of step records")
    terms = _load_terms(doc.get("terms", []))
    steps: list[Step] = []
    for n, raw in enumerate(raws):
        rec = raw if isinstance(raw, Mapping) else {}
        axiom, mp, nec = rec.get("axiom"), rec.get("mp"), rec.get("nec")
        if _is_index(axiom) and 0 <= axiom < len(terms):
            steps.append(AxiomStep(terms[axiom]))
        elif isinstance(axiom, str):
            steps.append(AxiomStep(parse(axiom)))
        elif isinstance(mp, (list, tuple)) and len(mp) == 2 and all(map(_is_index, mp)):
            steps.append(MpStep(*mp))
        elif _is_index(nec):
            steps.append(NecStep(nec))
        else:
            raise ValueError(
                f"proof field 'steps', step {n}: expected an axiom term id or "
                f"formula text, an mp index pair or a nec index, got {raw!r}"
            )
    return Proof(tuple(steps))


# ---------------------------------------------------------------------------
# Proof construction

class ProofBuilder:
    """Accumulates steps, reusing any step whose formula was already derived."""

    def __init__(self) -> None:
        self.steps: list[Step] = []
        self.forms: list[Formula] = []
        self._index: dict[Formula, int] = {}

    def form(self, i: int) -> Formula:
        return self.forms[i]

    def _push(self, step: Step, formula: Formula) -> int:
        known = self._index.get(formula)
        if known is not None:
            return known
        self.steps.append(step)
        self.forms.append(formula)
        self._index[formula] = len(self.steps) - 1
        return len(self.steps) - 1

    def axiom(self, name: str, *args: Formula) -> int:
        f = axiom_instance(name, args)
        return self._push(AxiomStep(f), f)

    def mp(self, major: int, minor: int) -> int:
        imp = self.forms[major]
        if not isinstance(imp, Imp) or imp.left != self.forms[minor]:
            raise ValueError("modus ponens premise mismatch while building")
        return self._push(MpStep(major, minor), imp.right)

    def nec(self, premise: int) -> int:
        return self._push(NecStep(premise), Box(self.forms[premise]))

    def build(self, conclusion: int) -> Proof:
        # The conclusion must be the final step; re-derive it there if
        # step sharing left it in the middle.
        if conclusion != len(self.steps) - 1:
            step = self.steps[conclusion]
            self.steps.append(step)
            self.forms.append(self.forms[conclusion])
        return Proof(tuple(self.steps))


def _dest_imp(f: Formula) -> tuple[Formula, Formula]:
    assert isinstance(f, Imp), print_formula(f)
    return f.left, f.right


# Derived inference rules. Each takes the builder plus indices of already
# proven lines and returns the index of the new line.


def _imp_refl(b: ProofBuilder, p: Formula) -> int:
    s1 = b.axiom("distribimp", p, Imp(p, p), p)
    s2 = b.axiom("addimp", p, Imp(p, p))
    s3 = b.mp(s1, s2)
    s4 = b.axiom("addimp", p, p)
    return b.mp(s3, s4)


def _add_assum(b: ProofBuilder, p: Formula, i: int) -> int:
    # |- q  ==>  |- p --> q
    q = b.form(i)
    return b.mp(b.axiom("addimp", q, p), i)


def _imp_add_assum(b: ProofBuilder, p: Formula, i: int) -> int:
    # |- q --> r  ==>  |- (p --> q) --> (p --> r)
    q, r = _dest_imp(b.form(i))
    return b.mp(b.axiom("distribimp", p, q, r), _add_assum(b, p, i))


def _imp_trans(b: ProofBuilder, i: int, j: int) -> int:
    # |- p --> q, |- q --> r  ==>  |- p --> r
    p, _ = _dest_imp(b.form(i))
    return b.mp(_imp_add_assum(b, p, j), i)


def _imp_swap(b: ProofBuilder, i: int) -> int:
    # |- p --> (q --> r)  ==>  |- q --> (p --> r)
    p, qr = _dest_imp(b.form(i))
    q, r = _dest_imp(qr)
    distributed = b.mp(b.axiom("distribimp", p, q, r), i)
    return _imp_trans(b, b.axiom("addimp", q, p), distributed)


def _mp_under(b: ProofBuilder, i: int, j: int) -> int:
    # |- a --> (p --> q), |- a --> p  ==>  |- a --> q
    a, pq = _dest_imp(b.form(i))
    p, q = _dest_imp(pq)
    return b.mp(b.mp(b.axiom("distribimp", a, p, q), i), j)


def _imp_trans2(b: ProofBuilder, i: int, j: int) -> int:
    # |- a --> (c --> d), |- b --> c  ==>  |- a --> (b --> d)
    swapped = _imp_swap(b, i)
    chained = _imp_trans(b, j, swapped)
    return _imp_swap(b, chained)


def _imp_trans_right(b: ProofBuilder, i: int, j: int) -> int:
    # |- a --> (c --> d), |- d --> e  ==>  |- a --> (c --> e)
    _, cd = _dest_imp(b.form(i))
    c, _ = _dest_imp(cd)
    return _imp_trans(b, i, _imp_add_assum(b, c, j))


def _box_mono(b: ProofBuilder, i: int) -> int:
    # |- p --> q  ==>  |- Box p --> Box q
    p, q = _dest_imp(b.form(i))
    return b.mp(b.axiom("K", p, q), b.nec(i))


def _iff_intro(b: ProofBuilder, i: int, j: int) -> int:
    # |- p --> q, |- q --> p  ==>  |- p <-> q
    p, q = _dest_imp(b.form(i))
    return b.mp(b.mp(b.axiom("impiff", p, q), i), j)


def _iff_elim1(b: ProofBuilder, i: int) -> int:
    f = b.form(i)
    assert isinstance(f, Iff)
    return b.mp(b.axiom("iffimp1", f.left, f.right), i)


def _iff_elim2(b: ProofBuilder, i: int) -> int:
    f = b.form(i)
    assert isinstance(f, Iff)
    return b.mp(b.axiom("iffimp2", f.left, f.right), i)


def _iff_trans_rule(b: ProofBuilder, i: int, j: int) -> int:
    # |- a <-> b, |- b <-> c  ==>  |- a <-> c
    fwd = _imp_trans(b, _iff_elim1(b, i), _iff_elim1(b, j))
    bwd = _imp_trans(b, _iff_elim2(b, j), _iff_elim2(b, i))
    return _iff_intro(b, fwd, bwd)


def _contrapos_rule(b: ProofBuilder, i: int) -> int:
    # |- x --> y  ==>  |- Not y --> Not x
    x, y = _dest_imp(b.form(i))
    return b.mp(_b_contrapos(b, x, y), i)


# Lemma bodies. Each returns the index of the lemma's statement.


def _b_true(b: ProofBuilder) -> int:
    return b.mp(_iff_elim2(b, b.axiom("true_def")), _imp_refl(b, FALSE))


def _b_not_elim(b: ProofBuilder, p: Formula) -> int:
    return _iff_elim1(b, b.axiom("not_def", p))


def _b_not_intro(b: ProofBuilder, p: Formula) -> int:
    return _iff_elim2(b, b.axiom("not_def", p))


def _b_not_false(b: ProofBuilder) -> int:
    return b.mp(_b_not_intro(b, FALSE), _imp_refl(b, FALSE))


def _b_ex_falso(b: ProofBuilder, p: Formula) -> int:
    start = b.axiom("addimp", FALSE, Imp(p, FALSE))
    return _imp_trans(b, start, b.axiom("doubleneg", p))


def _b_imp_trans_th(b: ProofBuilder, p: Formula, q: Formula, r: Formula) -> int:
    lifted = _imp_trans(
        b, b.axiom("addimp", Imp(q, r), p), b.axiom("distribimp", p, q, r)
    )
    return _imp_swap(b, lifted)


def _b_imp_swap_th(b: ProofBuilder, p: Formula, q: Formula, r: Formula) -> int:
    th1 = b.axiom("distribimp", p, q, r)
    precomp = b.mp(
        _b_imp_trans_th(b, q, Imp(p, q), Imp(p, r)), b.axiom("addimp", q, p)
    )
    return _imp_trans(b, th1, precomp)


def _b_dneg_elim(b: ProofBuilder, p: Formula) -> int:
    unfold = _b_not_elim(b, Not(p))
    refold = b.mp(
        _b_imp_trans_th(b, Imp(p, FALSE), Not(p), FALSE), _b_not_intro(b, p)
    )
    return _imp_trans(b, _imp_trans(b, unfold, refold), b.axiom("doubleneg", p))


def _b_dneg_intro(b: ProofBuilder, p: Formula) -> int:
    swapped = _imp_swap(b, _b_not_elim(b, p))
    return _imp_trans(b, swapped, _b_not_intro(b, Not(p)))


def _b_contrapos(b: ProofBuilder, p: Formula, q: Formula) -> int:
    base = _b_imp_trans_th(b, p, q, FALSE)
    unfold = b.mp(
        _b_imp_trans_th(b, Not(q), Imp(q, FALSE), Imp(p, FALSE)),
        _b_not_elim(b, q),
    )
    refold = _imp_add_assum(b, Not(q), _b_not_intro(b, p))
    return _imp_trans(b, base, _imp_trans(b, unfold, refold))


def _b_and_elim_l(b: ProofBuilder, p: Formula, q: Formula) -> int:
    e1 = _iff_elim1(b, b.axiom("and_def", p, q))
    lift = _imp_add_assum(b, p, b.axiom("addimp", FALSE, q))
    f2 = b.mp(
        _b_imp_trans_th(b, Imp(p, FALSE), Imp(p, Imp(q, FALSE)), FALSE), lift
    )
    return _imp_trans(b, e1, _imp_trans(b, f2, b.axiom("doubleneg", p)))


def _b_and_elim_r(b: ProofBuilder, p: Formula, q: Formula) -> int:
    e1 = _iff_elim1(b, b.axiom("and_def", p, q))
    lift = b.axiom("addimp", Imp(q, FALSE), p)
    f2 = b.mp(
        _b_imp_trans_th(b, Imp(q, FALSE), Imp(p, Imp(q, FALSE)), FALSE), lift
    )
    return _imp_trans(b, e1, _imp_trans(b, f2, b.axiom("doubleneg", q)))


def _b_and_intro(b: ProofBuilder, p: Formula, q: Formula) -> int:
    x = Imp(p, Imp(q, FALSE))
    to_x = _imp_swap(b, _imp_refl(b, x))
    curried = _imp_trans(b, to_x, _b_imp_swap_th(b, x, q, FALSE))
    fold = _iff_elim2(b, b.axiom("and_def", p, q))
    return _imp_trans_right(b, curried, fold)


def _b_imp_and_intro(b: ProofBuilder, r: Formula, p: Formula, q: Formula) -> int:
    lifted = _imp_add_assum(b, r, _b_and_intro(b, p, q))
    return _imp_trans(b, lifted, b.axiom("distribimp", r, q, And(p, q)))


def _b_imp_and_elim_l(b: ProofBuilder, r: Formula, p: Formula, q: Formula) -> int:
    return _imp_add_assum(b, r, _b_and_elim_l(b, p, q))


def _b_imp_and_elim_r(b: ProofBuilder, r: Formula, p: Formula, q: Formula) -> int:
    return _imp_add_assum(b, r, _b_and_elim_r(b, p, q))


def _b_modusponens(b: ProofBuilder, p: Formula, q: Formula) -> int:
    left = _b_and_elim_l(b, Imp(p, q), p)
    right = _b_and_elim_r(b, Imp(p, q), p)
    return _mp_under(b, left, right)


def _b_or_intro_l(b: ProofBuilder, p: Formula, q: Formula) -> int:
    fold = _iff_elim2(b, b.axiom("or_def", p, q))
    neg = _contrapos_rule(b, _b_and_elim_l(b, Not(p), Not(q)))
    return _imp_trans(b, _imp_trans(b, _b_dneg_intro(b, p), neg), fold)


def _b_or_intro_r(b: ProofBuilder, p: Formula, q: Formula) -> int:
    fold = _iff_elim2(b, b.axiom("or_def", p, q))
    neg = _contrapos_rule(b, _b_and_elim_r(b, Not(p), Not(q)))
    return _imp_trans(b, _imp_trans(b, _b_dneg_intro(b, q), neg), fold)


def _b_or_elim(b: ProofBuilder, p: Formula, q: Formula, r: Formula) -> int:
    unfold = _iff_elim1(b, b.axiom("or_def", p, q))
    _, n = _dest_imp(b.form(unfold))  # p || q --> Not (Not p && Not q)
    c1 = _b_contrapos(b, p, r)
    c2 = _b_contrapos(b, q, r)
    both = _b_imp_and_intro(b, Not(r), Not(p), Not(q))
    u1 = _imp_trans(b, c1, both)
    u2 = _imp_trans2(b, u1, c2)
    flip = _b_contrapos(b, Not(r), And(Not(p), Not(q)))
    u3 = _imp_trans_right(b, u2, flip)
    dn = _imp_add_assum(b, n, _b_dneg_elim(b, r))
    u4 = _imp_trans_right(b, u3, dn)
    precomp = b.mp(_b_imp_trans_th(b, Or(p, q), n, r), unfold)
    return _imp_trans_right(b, u4, precomp)


def _b_iff_refl(b: ProofBuilder, p: Formula) -> int:
    i = _imp_refl(b, p)
    return _iff_intro(b, i, i)


def _b_iff_sym(b: ProofBuilder, p: Formula, q: Formula) -> int:
    i1 = b.axiom("iffimp1", p, q)
    i2 = b.axiom("iffimp2", p, q)
    partial = _imp_trans(b, i2, b.axiom("impiff", q, p))
    return _mp_under(b, partial, i1)


def _b_box_imp_distr(b: ProofBuilder, p: Formula, q: Formula) -> int:
    return b.axiom("K", p, q)


def _b_lob(b: ProofBuilder, p: Formula) -> int:
    return b.axiom("GL", p)


def _b_box_true_iff(b: ProofBuilder) -> int:
    t = _b_true(b)
    bt = b.nec(t)
    return _iff_intro(b, _add_assum(b, Box(TRUE), t), _add_assum(b, TRUE, bt))


def _b_box_and_split(b: ProofBuilder, p: Formula, q: Formula) -> int:
    m1 = _box_mono(b, _b_and_elim_l(b, p, q))
    m2 = _box_mono(b, _b_and_elim_r(b, p, q))
    pair = _b_imp_and_intro(b, Box(And(p, q)), Box(p), Box(q))
    return b.mp(b.mp(pair, m1), m2)


def _b_box_and_join(b: ProofBuilder, p: Formula, q: Formula) -> int:
    n1 = b.nec(_b_and_intro(b, p, q))
    k1 = b.mp(b.axiom("K", p, Imp(q, And(p, q))), n1)
    curried = _imp_trans(b, k1, b.axiom("K", q, And(p, q)))
    left = _b_and_elim_l(b, Box(p), Box(q))
    right = _b_and_elim_r(b, Box(p), Box(q))
    return _mp_under(b, _imp_trans(b, left, curried), right)


def _b_box_conj_iff(b: ProofBuilder, p: Formula, q: Formula) -> int:
    return _iff_intro(b, _b_box_and_split(b, p, q), _b_box_and_join(b, p, q))


def _b_box_iff(b: ProofBuilder, p: Formula, q: Formula) -> int:
    m1 = _box_mono(b, b.axiom("iffimp1", p, q))
    m2 = _box_mono(b, b.axiom("iffimp2", p, q))
    c1 = _imp_trans(b, m1, b.axiom("K", p, q))
    c2 = _imp_trans(b, m2, b.axiom("K", q, p))
    partial = _imp_trans(b, c1, b.axiom("impiff", Box(p), Box(q)))
    return _mp_under(b, partial, c2)


def _b_and_congr_r(b: ProofBuilder, c: Formula, i: int) -> int:
    # |- a <-> a'  ==>  |- (c && a) <-> (c && a')
    f = b.form(i)
    assert isinstance(f, Iff)
    a, a2 = f.left, f.right

    def direction(src: Formula, dst: Formula, elim: int) -> int:
        keep = _b_and_elim_l(b, c, src)
        move = _imp_trans(b, _b_and_elim_r(b, c, src), elim)
        pair = _b_imp_and_intro(b, And(c, src), c, dst)
        return b.mp(b.mp(pair, keep), move)

    fwd = direction(a, a2, _iff_elim1(b, i))
    bwd = direction(a2, a, _iff_elim2(b, i))
    return _iff_intro(b, fwd, bwd)


def _b_conjlist_map_box(b: ProofBuilder, fs: Sequence[Formula]) -> int:
    fs = list(fs)
    if len(fs) > 8:
        raise SizeGuardError(f"conjlist box distribution supports length <= 8, got {len(fs)}")
    if not fs:
        return _b_box_true_iff(b)
    if len(fs) == 1:
        return _b_iff_refl(b, Box(fs[0]))
    head, rest = fs[0], fs[1:]
    ih = _b_conjlist_map_box(b, rest)
    split = _b_box_conj_iff(b, head, conjlist(rest))
    congr = _b_and_congr_r(b, Box(head), ih)
    return _iff_trans_rule(b, split, congr)


def conjlist_map_box_proof(fs: Sequence[Formula]) -> Proof:
    """Checked proof that Box distributes over a conjlist:
    Box (conjlist fs) <-> conjlist (map Box fs)."""
    b = ProofBuilder()
    return b.build(_b_conjlist_map_box(b, fs))


# ---------------------------------------------------------------------------
# Lemma catalogue


class LemmaInfo(_Record):
    """A catalogue entry. `text` states the lemma in the concrete syntax
    over the atoms `params`, which stand for the formula arguments in
    order. `params` is None for the one lemma over a formula list
    (length <= 8), whose text is informal. Immutable."""

    _fields = ("name", "params", "text", "build")

    def __init__(self, name: str, params: tuple[str, ...] | None, text: str,
                 build: Callable[..., int]):
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "text", text)
        _set(self, "build", build)

    @property
    def arity(self) -> int | None:
        return None if self.params is None else len(self.params)

    @_cached_field
    def statement(self) -> Formula:
        """The statement over the parameter atoms, parsed on first use;
        the list lemma, whose text is informal, has none."""
        return parse(self.text)

    @_cached_field
    def program(self) -> _Program:
        """The statement compiled over `params`, on first use."""
        return _compile(self.params, self.statement)


LEMMAS: dict[str, LemmaInfo] = {
    name: LemmaInfo(name, None if params is None else tuple(params.split()), text, build)
    for name, params, text, build in [
        ("true_th", "", "True", _b_true),
        ("not_false_th", "", "Not False", _b_not_false),
        ("imp_refl", "p", "p --> p", _imp_refl),
        ("imp_trans_th", "p q r", "(p --> q) --> (q --> r) --> (p --> r)", _b_imp_trans_th),
        ("imp_swap_th", "p q r", "(p --> q --> r) --> (q --> p --> r)", _b_imp_swap_th),
        ("modusponens_th", "p q", "(p --> q) && p --> q", _b_modusponens),
        ("ex_falso_th", "p", "False --> p", _b_ex_falso),
        ("dneg_elim_th", "p", "Not Not p --> p", _b_dneg_elim),
        ("dneg_intro_th", "p", "p --> Not Not p", _b_dneg_intro),
        ("not_intro_th", "p", "(p --> False) --> Not p", _b_not_intro),
        ("not_elim_th", "p", "Not p --> (p --> False)", _b_not_elim),
        ("contrapos_th", "p q", "(p --> q) --> (Not q --> Not p)", _b_contrapos),
        ("and_intro_th", "p q", "p --> q --> p && q", _b_and_intro),
        ("and_elim_l_th", "p q", "p && q --> p", _b_and_elim_l),
        ("and_elim_r_th", "p q", "p && q --> q", _b_and_elim_r),
        ("imp_and_intro_th", "r p q", "(r --> p) --> (r --> q) --> (r --> p && q)",
         _b_imp_and_intro),
        ("imp_and_elim_l_th", "r p q", "(r --> p && q) --> (r --> p)", _b_imp_and_elim_l),
        ("imp_and_elim_r_th", "r p q", "(r --> p && q) --> (r --> q)", _b_imp_and_elim_r),
        ("or_intro_l_th", "p q", "p --> p || q", _b_or_intro_l),
        ("or_intro_r_th", "p q", "q --> p || q", _b_or_intro_r),
        ("or_elim_th", "p q r", "(p --> r) --> (q --> r) --> (p || q --> r)", _b_or_elim),
        ("iff_refl", "p", "p <-> p", _b_iff_refl),
        ("iff_sym_th", "p q", "(p <-> q) --> (q <-> p)", _b_iff_sym),
        ("box_imp_distr", "p q", "Box (p --> q) --> Box p --> Box q", _b_box_imp_distr),
        ("lob", "p", "Box (Box p --> p) --> Box p", _b_lob),
        ("box_true_iff", "", "Box True <-> True", _b_box_true_iff),
        ("box_and_split_th", "p q", "Box (p && q) --> Box p && Box q", _b_box_and_split),
        ("box_and_join_th", "p q", "Box p && Box q --> Box (p && q)", _b_box_and_join),
        ("box_conj_iff", "p q", "Box (p && q) <-> Box p && Box q", _b_box_conj_iff),
        ("box_iff", "p q", "Box (p <-> q) --> (Box p <-> Box q)", _b_box_iff),
        ("conjlist_map_box", None, "Box (conjlist fs) <-> conjlist (map Box fs)",
         _b_conjlist_map_box),
    ]
}


def _lookup(name: str, args: Sequence[Formula]) -> tuple[LemmaInfo, list[Formula]]:
    info = LEMMAS.get(name)
    if info is None:
        raise LookupError(f"unknown lemma: {name!r}")
    args = list(args)
    if info.params is not None:
        _check_arity("lemma", name, info.params, args)
    return info, args


def lemma(name: str, args: Sequence[Formula] = ()) -> Proof:
    """Kernel-checkable proof of a catalogued lemma at the given formulas."""
    info, args = _lookup(name, args)
    b = ProofBuilder()
    return b.build(info.build(b, args) if info.params is None else info.build(b, *args))


def lemma_statement(name: str, args: Sequence[Formula] = ()) -> Formula:
    """The formula the catalogued lemma proves at the given arguments."""
    info, args = _lookup(name, args)
    if info.params is None:
        return Iff(Box(conjlist(args)), conjlist([Box(f) for f in args]))
    return _instantiate(info.program, args)
