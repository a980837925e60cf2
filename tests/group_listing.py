"""Permutation groups listed element by element: the reference that
the generator-based orbits in qbeads are checked against.

closure lists the group some permutations generate, and
listed_weighted_orbits reads the (first, second) lists of
quandle.weighted_orbits off that list, one group element at a time.
"""


def closure(generators, size):
    """Every element of the group the generators generate, as tuples,
    the identity first."""
    identity = tuple(range(size))
    group = [identity]
    seen = {identity}
    for g in group:
        for t in generators:
            h = tuple(t[x] for x in g)
            if h not in seen:
                seen.add(h)
                group.append(h)
    return group


def listed_weighted_orbits(group, size):
    """(first, second) of quandle.weighted_orbits, from the listed
    group: each orbit is the set of images of its least point, each
    stabiliser the elements that fix its point."""

    def orbits(subgroup):
        seen = [False] * size
        found = []
        for v in range(size):
            if not seen[v]:
                orbit = {g[v] for g in subgroup}
                for w in orbit:
                    seen[w] = True
                found.append((v, len(orbit)))
        return found

    first = orbits(group)
    return first, {v: orbits([g for g in group if g[v] == v]) for v, _ in first}
