"""Explicit rejection of inputs beyond desk scale.

Exhaustive searches (valuation sweeps, frame enumeration, world
enumeration) are guarded; exceeding a guard raises instead of silently
truncating.
"""

#: The deepest nesting of connectives in a formula the command line
#: parses, a formula argument or a proof's axiom (`Not Not p` has depth
#: 2). `check-cert` parses no formula and has no such bound, and the
#: library itself walks formulas with explicit stacks.
MAX_DEPTH = 1000


class SizeGuardError(ValueError):
    """Input exceeds a documented exhaustive-search limit."""


def check_depth(f):
    """f, if it nests no deeper than MAX_DEPTH; else SizeGuardError."""
    if f.depth > MAX_DEPTH:
        raise SizeGuardError(
            f"formula nested too deeply: depth {f.depth} exceeds {MAX_DEPTH}"
        )
    return f
