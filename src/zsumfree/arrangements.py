"""Intersection posets of coordinate subspace arrangements.

Each facet F of a complex spans the coordinate subspace {x : x_v = 0 for
v ∉ F} of K^V, where V is the set of supported vertices.  The intersection
poset collects the ambient space (the unique minimum) together with all
intersections of the facet subspaces, ordered by reverse inclusion of
supports.  A subspace's dimension is its support size; Möbius values are
taken from the minimum; the characteristic polynomial is
χ(x) = Σ_t μ(0̂, t) · x^{dim t}.

A single facet necessarily spans all supported vertices, so its subspace
coincides with the ambient space; it is kept as a formally distinct element,
which makes χ identically zero.  Such arrangements are flagged degenerate.
"""

from __future__ import annotations

from .complexes import (
    CapacityError,
    SimplicialComplex,
    _vertices_of,
    decompose_disjoint_simplices,
)

POSET_ELEMENT_CAP = 600


class IntersectionPoset:
    """Intersection poset of the coordinate arrangement of a complex's facets.

    Element 0 is the ambient space; the remaining elements are intersection
    supports sorted by descending size, ties broken by vertex order.
    """

    def __init__(self, c: SimplicialComplex):
        facet_masks = c._facet_masks
        if facet_masks == [0]:
            raise ValueError("the void complex has no subspaces to arrange")
        ambient_mask = 0
        for m in facet_masks:
            ambient_mask |= m
        # closure under intersection, round by round; a new intersection
        # needs an operand that is new in the previous round
        supports = set(facet_masks)
        fresh = supports
        while fresh:
            if len(supports) > POSET_ELEMENT_CAP:
                raise CapacityError(
                    f"intersection closure exceeds {POSET_ELEMENT_CAP} subspaces"
                )
            fresh = {a & b for a in fresh for b in supports} - supports
            supports |= fresh
        ordered = sorted(supports, key=lambda m: (-m.bit_count(), _vertices_of(m)))

        self.n_vertices = ambient_mask.bit_count()
        self.support_masks = ordered           # element i+1 has support ordered[i]
        self.degenerate = len(facet_masks) == 1

        # the order as one bitmask per element: bit i of below[j] is set iff
        # element i lies strictly below element j.  The ambient element 0 lies
        # below everything; a support lies below its proper subsets, which
        # come later in the descending-size order, so only i < j is checked.
        size = len(ordered) + 1
        below = [0] * size
        above = [0] * size
        mob = [0] * size
        mob[0] = 1
        for j in range(1, size):
            b = ordered[j - 1]
            lower = [0] + [i for i in range(1, j) if ordered[i - 1] & b == b]
            mask = 0
            for i in lower:
                mask |= 1 << i
                above[i] |= 1 << j
            below[j] = mask
            # Möbius values from the minimum, in linear-extension order
            mob[j] = -sum(mob[i] for i in lower)
        self.mobius = mob

        coeffs = [0] * (self.n_vertices + 1)
        coeffs[self.n_vertices] += mob[0]
        for j in range(1, size):
            coeffs[ordered[j - 1].bit_count()] += mob[j]
        self.char_poly = coeffs

        # i ⋖ j iff nothing lies both above i and below j; walking i and then
        # j upwards lists the covers sorted and each element's upper covers
        covers = []
        ups = [[] for _ in range(size)]
        for i in range(size):
            up = above[i]
            while up:
                low = up & -up
                up ^= low
                j = low.bit_length() - 1
                if above[i] & below[j] == 0:
                    covers.append((i, j))
                    ups[i].append(j)
        self.covers = covers

        # lengths of the maximal chains from each element, upper covers first
        lengths: list[set[int]] = [set()] * size
        for i in range(size - 1, -1, -1):
            lengths[i] = {1 + d for j in ups[i] for d in lengths[j]} if ups[i] else {0}
        self.graded = len(lengths[0]) == 1
        self.rank = next(iter(lengths[0])) if self.graded else None

    def element_support(self, index: int):
        """Support of element `index` as a sorted tuple, or None for the ambient space."""
        if index == 0:
            return None
        return _vertices_of(self.support_masks[index - 1])

    def atoms(self) -> list[tuple[int, ...]]:
        """Supports of the elements covering the minimum."""
        return [self.element_support(j) for (i, j) in self.covers if i == 0]

    def to_json(self) -> dict:
        elements = [{"support": "ambient", "dim": self.n_vertices, "mobius": self.mobius[0]}]
        for j, mask in enumerate(self.support_masks, start=1):
            elements.append({
                "support": list(_vertices_of(mask)),
                "dim": mask.bit_count(),
                "mobius": self.mobius[j],
            })
        return {
            "elements": elements,
            "hasse": [list(c) for c in self.covers],
            "graded": self.graded,
            "rank": self.rank,
            "char_poly": list(self.char_poly),
        }


def build_poset(c: SimplicialComplex) -> IntersectionPoset:
    """Intersection poset of the coordinate subspace arrangement of `c`'s facets."""
    return IntersectionPoset(c)


def disjoint_union_char_poly(n_vertices: int, parts) -> list[int]:
    """Closed form x^|V| - Σ_i x^{λ_i} + (α - 1) for a disjoint union of simplices."""
    parts = tuple(parts)
    coeffs = [0] * (n_vertices + 1)
    coeffs[n_vertices] += 1
    for p in parts:
        coeffs[p] -= 1
    coeffs[0] += len(parts) - 1
    return coeffs


def verify_disjoint_union_char_poly(c: SimplicialComplex) -> bool:
    """Check the Möbius χ of a disjoint-union complex against its closed form."""
    parts = decompose_disjoint_simplices(c)
    if parts is None:
        raise ValueError("facets are not pairwise disjoint")
    poset = build_poset(c)
    return poset.char_poly == disjoint_union_char_poly(poset.n_vertices, parts)
