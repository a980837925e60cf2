"""Structural comparison of link diagrams, which only the tests use.

A diagram read back from its text, or imported from another spelling
of its PD code, may list its crossings and components in another order
and start each component cycle at another arc.  The tests compare such
diagrams by canonical_key.  LinkDiagram itself compares and hashes by
identity: its plan depends on the crossing order, which this key
ignores.
"""


def canonical_key(diagram):
    """Structure key ignoring crossing order, component order, and
    the rotation of each component cycle (but not arc numbering)."""
    comps = []
    for comp in diagram.components:
        k = comp.index(min(comp))
        comps.append(comp[k:] + comp[:k])
    return (
        diagram.arc_count,
        tuple(sorted((c.sign, c.under_in, c.over, c.under_out) for c in diagram.crossings)),
        tuple(sorted(comps)),
    )
