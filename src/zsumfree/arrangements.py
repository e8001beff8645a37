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

The supports are closed under intersection one facet at a time, to the cap.
The poset is built on bitsets over its elements, bit i for element i:

* the holders of vertex v are the elements whose support holds v (the
  ambient element 0 holds every vertex), so the elements at or below j are
  the AND of the holders of j's vertices;
* the elements are numbered by descending support size, a linear extension,
  so Möbius values are found in index order, and the elements holding each
  value seen so far make one bitset: μ(j) is minus the sum, over the values,
  of value times the count of j's lower elements that hold it;
* the highest element left in j's lower set is a lower cover of j: whatever
  lies strictly between it and j has a higher index and either was taken as
  a cover or lies below one, and taking a cover k removes k and everything
  below k, so what is left is exactly the covers not yet taken;
* the intersection of all facets lies in every support, so the last
  element is the poset's only maximal element, the top: the poset is
  graded iff every maximal chain from 0̂ has one length, that is iff the
  shortest and the longest saturated chain from 0̂ to the top, taken over
  lower covers, have one length, and that length is the rank.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

from .complexes import (
    CapacityError,
    SimplicialComplex,
    _holders,
    _sorted_sets,
    _vertices_of,
    check_complex,
)
from .partitions import check_ints

POSET_ELEMENT_CAP = 600


class IntersectionPoset:
    """Intersection poset of the coordinate arrangement of a complex's facets.

    Element 0 is the ambient space; the remaining elements are intersection
    supports sorted by descending size, ties broken by vertex order.  The
    build keeps, as bitsets over the elements, the holders of each vertex
    and the elements of each Möbius value; it peels each element's lower
    covers off its lower set from the top, and reads the grading from the
    shortest and longest chains below the last element, the top (see the
    module docstring).
    """

    def __init__(self, c: SimplicialComplex):
        check_complex(c)
        facet_masks = c._facet_masks
        if facet_masks == [0]:
            raise ValueError("the void complex has no subspaces to arrange")
        ambient_mask = reduce(or_, facet_masks)
        # every intersection of the facets so far; it only grows, so a check after each facet is exact
        supports = set()
        for f in facet_masks:
            supports |= {a & f for a in supports}
            supports.add(f)
            if len(supports) > POSET_ELEMENT_CAP:
                raise CapacityError(f"intersection closure exceeds {POSET_ELEMENT_CAP} subspaces")
        ordered = _sorted_sets(supports)
        ordered.sort(key=int.bit_count, reverse=True)  # stable: each size keeps its vertex order

        self.n_vertices = ambient_mask.bit_count()
        self.support_masks = ordered           # element i+1 has support ordered[i]
        self.degenerate = len(facet_masks) == 1

        # holders[v] has bit i set iff element i's support holds vertex v
        vertices = [_vertices_of(ambient_mask), *map(_vertices_of, ordered)]
        holders = _holders(vertices, ambient_mask.bit_length())
        size = len(vertices)

        everyone = (1 << size) - 1
        below = [0] * size      # bit i of below[j] is set iff i lies strictly below j
        mob = [1] + [0] * (size - 1)
        classes = {1: 1}        # Möbius value -> the elements holding it so far
        covers = []
        shortest = [0] * size   # shortest and longest saturated chain from 0̂
        longest = [0] * size
        for j in range(1, size):
            bit = 1 << j
            lower = reduce(and_, map(holders.__getitem__, vertices[j]), everyone) ^ bit
            below[j] = lower
            m = -sum(value * (lower & members).bit_count() for value, members in classes.items())
            mob[j] = m
            classes[m] = classes.get(m, 0) | bit
            low, high = size, 0
            while lower:
                k = lower.bit_length() - 1
                covers.append((k, j))
                if shortest[k] < low:
                    low = shortest[k]
                if longest[k] > high:
                    high = longest[k]
                lower &= ~(below[k] | 1 << k)
            shortest[j] = low + 1
            longest[j] = high + 1
        self.mobius = mob
        covers.sort()
        self.covers = covers

        coeffs = [0] * (self.n_vertices + 1)
        coeffs[self.n_vertices] += mob[0]
        for j in range(1, size):
            coeffs[ordered[j - 1].bit_count()] += mob[j]
        self.char_poly = coeffs

        # the last element, the intersection of all facets, lies above all
        rank = shortest[-1]
        self.graded = rank == longest[-1]
        self.rank = rank if self.graded else None

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
    """Closed form x^|V| - Σ_i x^{λ_i} + (α - 1) for a disjoint union of simplices.

    The parts λ_i are the facet sizes: ints ≥ 1 that sum to |V| = `n_vertices`;
    anything else raises ValueError."""
    parts = tuple(parts)
    check_ints(n_vertices=n_vertices, **{f"part {i}": p for i, p in enumerate(parts)})
    if min(parts, default=1) < 1 or sum(parts) != n_vertices:
        raise ValueError(f"parts must be ints ≥ 1 summing to {n_vertices}, got {parts}")
    coeffs = [0] * (n_vertices + 1)
    coeffs[n_vertices] += 1
    for p in parts:
        coeffs[p] -= 1
    coeffs[0] += len(parts) - 1
    return coeffs
