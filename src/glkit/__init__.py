"""Godel-Lob provability logic as executable mathematics.

Modules:
    syntax        formula AST, grammar, printing, subformula closure
    kripke        finite Kripke models, frame predicates, validity oracles
    calculus      axiom schemas, proof kernel, derived-lemma catalogue
    completeness  worlds, saturation, decision procedure, certificates
    bisim         bisimulation and largest-bisimulation computation
    limits        size guards shared by the modules above
    cli           batch command-line interface (also `python -m glkit`),
                  outside the table below: `import glkit.cli`

`import glkit` loads none of them. Each public name below is looked up
in its owning module on first access (PEP 562 module `__getattr__`) and
then bound here, so `glkit.decide` loads `syntax`, `limits`, `kripke`
and `completeness`, and only a caller of the proof kernel or of
bisimulation pays to load `calculus` or `bisim`. A submodule is also
reachable by its name, as `glkit.kripke`; `cli` is left out, so that
`from glkit import *` does not load `argparse`.
"""

import sys

__version__ = "0.1.0"

# Owning module -> the public names it exports through the package.
_EXPORTS = {
    "syntax": """FALSE TRUE And Atom Box Falsity Formula Iff Imp Not Or ParseError
        Truth atoms conjlist parse print_formula subformulas""",
    "kripke": """Frame FrameReport Model enumerate_frames extension frame_report
        frame_to_dot holds holds_in is_itf itf_valid_small model_from_json
        model_to_dot model_to_json relabel valid_on_frame""",
    "calculus": """LEMMAS AxiomStep MpStep NecStep Proof ProofError axiom_instance
        check_proof conjlist_map_box_proof is_axiom lemma lemma_statement
        match_axiom proof_from_json proof_to_json""",
    "completeness": """ClosureContext Countermodel StandardModel Theorem Verdict World
        certificate_from_json certificate_to_json closure_context consistent
        decide extend_maximal_consistent hintikka_worlds saturate standard_rel
        verify_certificate""",
    "bisim": "BisimRelation bisimilar is_bisimulation largest_bisimulation",
    "limits": "SizeGuardError",
}

#: Each public name, and each library submodule name, -> its owning module.
_OWNER = {
    **{mod: mod for mod in _EXPORTS},
    **{name: mod for mod, names in _EXPORTS.items() for name in names.split()},
}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    mod = _OWNER.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, takes the interpreter's
    # own import path, which `python -X importtime` reports.
    __import__(f"{__name__}.{mod}")
    module = sys.modules[f"{__name__}.{mod}"]
    value = module if name == mod else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
