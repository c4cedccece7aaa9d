"""Godel-Lob provability logic as executable mathematics.

Modules:
    syntax        formula AST, grammar, printing, subformula closure
    kripke        finite Kripke models, frame predicates, validity oracles
    calculus      axiom schemas, proof kernel, derived-lemma catalogue
    completeness  worlds, saturation, decision procedure, certificates
    bisim         bisimulation and largest-bisimulation computation
    cli           batch command-line interface (also `python -m glkit`)
"""

from .bisim import BisimRelation, bisimilar, is_bisimulation, largest_bisimulation
from .calculus import (
    LEMMAS,
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
)
from .completeness import (
    ClosureContext,
    Countermodel,
    StandardModel,
    Theorem,
    Verdict,
    World,
    certificate_from_json,
    certificate_to_json,
    closure_context,
    consistent,
    decide,
    extend_maximal_consistent,
    hintikka_worlds,
    saturate,
    standard_rel,
    verify_certificate,
)
from .kripke import (
    Frame,
    FrameReport,
    Model,
    enumerate_frames,
    extension,
    frame_report,
    frame_to_dot,
    holds,
    holds_in,
    is_itf,
    itf_valid_small,
    model_from_json,
    model_to_dot,
    model_to_json,
    relabel,
    valid_on_frame,
)
from .limits import SizeGuardError
from .syntax import (
    FALSE,
    TRUE,
    And,
    Atom,
    Box,
    Falsity,
    Formula,
    Iff,
    Imp,
    Not,
    Or,
    ParseError,
    Truth,
    atoms,
    parse,
    print_formula,
    subformulas,
)

__version__ = "0.1.0"
