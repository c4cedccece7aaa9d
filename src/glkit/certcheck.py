"""The countermodel certificate checker, sharing no code with the search.

A certificate is taken as the data it is: `nodes`, the target's closure
as a node table (an atom's name, "True", "False", or a connective's name
and its children's positions; children first, the target last), `masks`,
one int per world whose bit j is set iff node j holds there, `rel`, the
relation as pairs of world indices, and `witness`, the index of the world
that refutes the target. `problem` checks, in this order:

1. the node table: every node is well formed, its children come earlier,
   no node is listed twice and every node is reachable from the target;
2. the frame is ITF: it has a world, each pair relates two of them, no
   world is its own successor, and a successor's successors are
   successors;
3. each world's mask is its column of the closure evaluated on the model
   whose valuation is the masks' atom bits;
4. the witness is a world and refutes the target.

It returns None when every check passes, and otherwise the reason for the
first failure, naming the world index and the closure position. It
imports nothing from glkit, so a fault in the evaluator that builds the
search's truth table cannot make a wrong certificate pass here.
"""

_ARITY = {"Not": 1, "Box": 1, "And": 2, "Or": 2, "Imp": 2, "Iff": 2}


def _node_problem(nodes) -> str | None:
    if not nodes:
        return "the closure is empty"
    first: dict = {}  # node -> its first position
    kids = set()
    for j, t in enumerate(nodes):
        if type(t) is str:
            key = t
        elif type(t) is list and t and type(t[0]) is str and len(t) == 1 + _ARITY.get(t[0], -1):
            a, b = t[1], t[-1]
            if not (type(a) is type(b) is int and 0 <= a < j and 0 <= b < j):
                return f"closure position {j}: a child does not come earlier"
            kids.add(a)
            kids.add(b)
            key = (t[0], a, b)
        else:
            return f"closure position {j}: not a closure node"
        if first.setdefault(key, j) != j:
            return f"closure position {j}: the same node as position {first[key]}"
    # Children come earlier, so the last node that is no node's child is
    # the last one the target does not reach.
    if len(kids) < j:
        return f"closure position {max(set(range(j)) - kids)}: not reachable from the target"
    return None


def problem(nodes: list, masks, rel, witness: int | None) -> str | None:
    """Why the certificate (nodes, masks, rel, witness) fails the check,
    or None when it passes; see the module docstring."""
    if (reason := _node_problem(nodes)) is not None:
        return reason
    c, n = len(nodes), len(masks)
    if not n:
        return "the frame is not ITF: it has no world"
    succ = [0] * n
    for x, y in rel:
        if not (type(x) is type(y) is int and 0 <= x < n and 0 <= y < n):
            return f"the frame is not ITF: the pair ({x!r}, {y!r}) names no world"
        succ[x] |= 1 << y
    for i, s in enumerate(succ):
        if s >> i & 1:
            return f"the frame is not ITF: world {i} is its own successor"
        rest = s
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest ^= 1 << j
            if succ[j] & ~s:
                k = (succ[j] & ~s).bit_length() - 1
                return f"the frame is not ITF: world {i} reaches world {k} through world {j} only"
    for i, x in enumerate(masks):
        if type(x) is not int or not 0 <= x < 1 << c:
            return f"world {i}: its mask is not an int of {c} bits"
    # The masks transposed: bit i of cols[j] is bit j of world i's mask.
    cols = [0] * c
    for i, x in enumerate(masks):
        while x:
            low = x & -x
            cols[low.bit_length() - 1] |= 1 << i
            x ^= low
    full = (1 << n) - 1
    # Each node is checked against its children's columns, so the first
    # node that disagrees is the first whose truth on the model differs
    # from its column.
    for j, t in enumerate(nodes):
        if type(t) is str:
            want = full if t == "True" else 0 if t == "False" else cols[j]
        else:
            op, a, b = t[0], cols[t[1]], cols[t[-1]]
            if op == "Not":
                want = full ^ a
            elif op == "And":
                want = a & b
            elif op == "Or":
                want = a | b
            elif op == "Imp":
                want = (full ^ a) | b
            elif op == "Iff":
                want = full ^ a ^ b
            else:
                want = 0
                for i, s in enumerate(succ):
                    if s & a == s:
                        want |= 1 << i
        if want != cols[j]:
            diff = want ^ cols[j]
            i = (diff & -diff).bit_length() - 1
            says = ("false", "true") if want >> i & 1 else ("true", "false")
            return f"world {i}, closure position {j}: the mask says {says[0]}, the model {says[1]}"
    if witness is None or not 0 <= witness < n:
        return "the witness is not a world of the certificate"
    if cols[-1] >> witness & 1:
        return f"world {witness}, closure position {c - 1}: the witness does not refute the target"
    return None
