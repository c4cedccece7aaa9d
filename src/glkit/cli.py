"""Batch command-line surface.

Exit codes: 0 theorem / valid / check passed, 1 non-theorem / check
failed, 2 usage or input errors, 3 size-guard rejection (a formula
nested deeper than `limits.MAX_DEPTH` included), 4 internal error: any
unexpected exception, reported in one line on stderr, and a failed
re-check of `decide --cert`, which reloads and verifies its certificate
before writing it and writes nothing if that fails. With --json a
single JSON document is written to stdout; diagnostics go to stderr. A
rejected certificate's reason goes to stderr, and also under `"reason"`
with --json.
Formula arguments are taken inline, or from a file with @path.

Every library module past `syntax` and `limits` is imported inside the
commands that use it: `parse` loads no other, `check-model` and
`frame-check` add `kripke`, `decide` and `check-cert` add `completeness`
(and with it `kripke` and `certcheck`), and only the commands that use
the proof kernel (`calculus`) or `bisim` load those.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .limits import SizeGuardError, check_depth
from .syntax import Formula, ParseError, parse, print_formula

USAGE_ERROR = 2
GUARD_ERROR = 3
INTERNAL_ERROR = 4


def _read_formula(arg: str) -> Formula:
    if arg.startswith("@"):
        arg = Path(arg[1:]).read_text()
    return check_depth(parse(arg))


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            # No valid model or proof document nests more than 3 levels.
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _emit(args, text: str, doc: dict) -> None:
    print(json.dumps(doc) if args.json else text)


def _cmd_parse(args) -> int:
    f = _read_formula(args.formula)
    _emit(args, print_formula(f), {"formula": print_formula(f)})
    return 0


def _cmd_decide(args) -> int:
    from . import completeness, kripke

    f = _read_formula(args.formula)
    verdict = completeness.decide(f)
    if isinstance(verdict, completeness.Theorem):
        _emit(args, "theorem", {"verdict": "theorem"})
        return 0
    # Only --cert and --json read the certificate document.
    cert = completeness.certificate_to_json(verdict) if args.cert or args.json else None
    if args.cert:
        text = json.dumps(cert, indent=2) + "\n"
        problem = None
        try:
            reloaded = completeness.certificate_from_json(json.loads(text))
            reason = completeness.certificate_problem(reloaded)
            if reason is not None:
                problem = f"the reloaded certificate does not verify ({reason})"
        except (KeyError, ValueError) as e:
            problem = f"the certificate does not reload: {e}"
        if problem:
            print(f"internal error: {problem}; nothing written", file=sys.stderr)
            return INTERNAL_ERROR
        Path(args.cert).write_text(text)
    if args.dot:
        Path(args.dot).write_text(
            kripke.frame_to_dot(verdict.model.to_model().frame) + "\n"
        )
    _emit(args, "non-theorem", {"verdict": "non-theorem", "certificate": cert})
    return 1


def _cmd_check_model(args) -> int:
    from . import kripke

    m, names = kripke.model_from_json(_load_json(args.model))
    f = _read_formula(args.formula)
    failing = sorted(m.frame.worlds - kripke.extension(m, f))
    doc = {"holds_in": not failing, "failing": [names[w] for w in failing]}
    if failing:
        _emit(args, "fails at: " + " ".join(doc["failing"]), doc)
        return 1
    _emit(args, "holds", doc)
    return 0


def _cmd_check_proof(args) -> int:
    from .calculus import AxiomStep, ProofError, check_proof, proof_from_json

    pr = proof_from_json(_load_json(args.proof))
    for step in pr.steps:
        if isinstance(step, AxiomStep):
            check_depth(step.formula)
    try:
        conclusion = check_proof(pr)
    except ProofError as e:
        print(str(e), file=sys.stderr)
        if args.json:
            print(json.dumps({"ok": False, "step": e.step, "reason": e.reason}))
        return 1
    _emit(
        args,
        print_formula(conclusion),
        {"ok": True, "conclusion": print_formula(conclusion)},
    )
    return 0


def _cmd_check_cert(args) -> int:
    from .completeness import _certificate_from_json, certificate_problem

    # The loader orders the target's closure and the verifier evaluates
    # it on the model, so the depth bound applies where the loader parses
    # the target, its one parse, before either runs.
    v = _certificate_from_json(_load_json(args.cert), lambda text: check_depth(parse(text)))
    reason = certificate_problem(v)
    if reason is None:
        _emit(args, "certificate verified", {"ok": True})
        return 0
    print(reason, file=sys.stderr)
    _emit(args, "certificate rejected", {"ok": False, "reason": reason})
    return 1


def _cmd_lemma(args) -> int:
    from .calculus import LEMMAS, check_proof, lemma, proof_to_json

    if args.name not in LEMMAS:
        print(f"unknown lemma: {args.name}", file=sys.stderr)
        return USAGE_ERROR
    pr = lemma(args.name, [_read_formula(a) for a in args.args])
    conclusion = check_proof(pr)
    if args.emit:
        Path(args.emit).write_text(json.dumps(proof_to_json(pr), indent=2) + "\n")
    _emit(
        args,
        print_formula(conclusion),
        {
            "lemma": args.name,
            "conclusion": print_formula(conclusion),
            "steps": len(pr.steps),
        },
    )
    return 0


def _cmd_bisim(args) -> int:
    from . import kripke
    from .bisim import largest_bisimulation

    m1, names1 = kripke.model_from_json(_load_json(args.model1))
    m2, names2 = kripke.model_from_json(_load_json(args.model2))
    z = largest_bisimulation(m1, m2)
    named = sorted([names1[a], names2[b]] for a, b in z.pairs)
    doc = {"pairs": named}
    if args.pairs:
        Path(args.pairs).write_text(json.dumps(doc, indent=2) + "\n")
    _emit(args, "\n".join(" ".join(p) for p in named) or "(empty)", doc)
    return 0


def _cmd_frame_check(args) -> int:
    from . import kripke

    m, _ = kripke.model_from_json(_load_json(args.model))
    rep = kripke.frame_report(m.frame)
    fields = rep._asdict()
    # is_itf's conjuncts, read off the report instead of worked out again.
    itf = rep.nonempty and rep.relation_well_typed and rep.irreflexive and rep.transitive
    if args.dot:
        Path(args.dot).write_text(kripke.frame_to_dot(m.frame) + "\n")
    text = "\n".join(f"{k}: {str(v).lower()}" for k, v in fields.items())
    text += f"\nitf: {str(itf).lower()}"
    _emit(args, text, {**fields, "itf": itf})
    return 0 if itf else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="glkit",
        description="Godel-Lob provability logic: decide, check, inspect.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("parse", help="parse and reprint a formula")
    sp.add_argument("formula")
    common(sp)
    sp.set_defaults(fn=_cmd_parse)

    sp = sub.add_parser("decide", help="decide theoremhood; exit 1 with a countermodel otherwise")
    sp.add_argument("formula")
    sp.add_argument("--cert", metavar="FILE", help="write the countermodel certificate")
    sp.add_argument("--dot", metavar="FILE", help="write the countermodel frame as DOT")
    common(sp)
    sp.set_defaults(fn=_cmd_decide)

    sp = sub.add_parser("check-model", help="evaluate a formula on a model file")
    sp.add_argument("model")
    sp.add_argument("formula")
    common(sp)
    sp.set_defaults(fn=_cmd_check_model)

    sp = sub.add_parser("check-proof", help="replay a proof file through the kernel")
    sp.add_argument("proof")
    common(sp)
    sp.set_defaults(fn=_cmd_check_proof)

    sp = sub.add_parser("check-cert", help="load and verify a countermodel certificate")
    sp.add_argument("cert")
    common(sp)
    sp.set_defaults(fn=_cmd_check_cert)

    sp = sub.add_parser("lemma", help="build a catalogued lemma proof")
    sp.add_argument("name")
    sp.add_argument("args", nargs="*", help="formula arguments")
    sp.add_argument("--emit", metavar="FILE", help="write the proof as JSON")
    common(sp)
    sp.set_defaults(fn=_cmd_lemma)

    sp = sub.add_parser("bisim", help="largest bisimulation between two model files")
    sp.add_argument("model1")
    sp.add_argument("model2")
    sp.add_argument("--pairs", metavar="FILE", help="write the pair list as JSON")
    common(sp)
    sp.set_defaults(fn=_cmd_bisim)

    sp = sub.add_parser("frame-check", help="full frame report; exit 0 iff ITF")
    sp.add_argument("model")
    sp.add_argument("--dot", metavar="FILE", help="write the frame as DOT")
    common(sp)
    sp.set_defaults(fn=_cmd_frame_check)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SizeGuardError as e:
        print(f"size guard: {e}", file=sys.stderr)
        return GUARD_ERROR
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as e:
        # Exit 1 means "non-theorem" or "check failed", so no crash may
        # end there or print a traceback.
        message = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
