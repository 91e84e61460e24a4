"""The theories and composites each workload builds during set-up.

Kept free of heavy imports: the set-up probe times ``import opdiscord``
itself, so it must load this module before opdiscord and numpy.
"""

POLYTOPE_LP = ("gbit", "polygon(5)", "polygon(6)", "polygon(8)", "classical(3)")
# the polytope theories of the ``scripts/run_theorem3.py`` panel
THEOREM3_POLYTOPES = ("classical(2)", "classical(3)", "classical(4)", "polygon(3)", "gbit", "polygon(5)")


def make(od, name: str):
    """A theory from its panel name: ``gbit``, ``qubit``, ``qutrit``,
    ``classical(n)`` or ``polygon(n)``."""
    if name == "gbit":
        return od.make_gbit()
    if name in ("qubit", "qutrit"):
        return od.make_quantum(2 if name == "qubit" else 3)
    kind, arg = name.rstrip(")").split("(")
    return {"classical": od.make_classical, "polygon": od.make_polygon}[kind](int(arg))


# the composites each workload analyses, as (first factor, second factor)
COMPOSITES = {
    "quantum": (("qubit", "qubit"), ("qutrit", "qubit")),
    "polytope": tuple((t, t) for t in POLYTOPE_LP),
}
# theories a workload uses on their own, beyond the factors above
SINGLES = {
    "quantum": (),
    "polytope": THEOREM3_POLYTOPES,
}


def build(od, workload: str) -> dict:
    """Theories and composites by name, e.g. ``"qubit"`` and ``"qubit*qubit"``."""
    out = {}
    for a, b in COMPOSITES[workload]:
        for name in (a, b):
            if name not in out:
                out[name] = make(od, name)
        out[f"{a}*{b}"] = od.compose_theories(out[a], out[b])
    for name in SINGLES[workload]:
        if name not in out:
            out[name] = make(od, name)
    return out
