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
  graded iff the longest saturated chain from 0̂, taken over lower covers,
  is a rank function, one longer at j than at each lower cover of j
  (Stanley, EC1 §3.1), and its length at the top is the rank;
* χ gains μ(j) at x^{dim j} as each Möbius value is found.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

from .complexes import CapacityError, SimplicialComplex, _holders, _vertices_of
from .partitions import as_tuple, check_ints, check_type

POSET_ELEMENT_CAP = 600


class IntersectionPoset:
    """Intersection poset of the coordinate arrangement of a complex's facets.

    Element 0 is the ambient space; the remaining elements are intersection
    supports sorted by descending size, ties broken by vertex order.  The
    build keeps, as bitsets over the elements, the holders of each vertex
    and the elements of each Möbius value; it peels each element's lower
    covers off its lower set from the top, and reads the grading from the
    longest chain below each element (see the module docstring).
    """

    def __init__(self, c: SimplicialComplex):
        check_type(c, SimplicialComplex)
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
        # descending size, each size by ascending vertex tuple, as in
        # `complexes._sorted_sets`; both sorts are stable
        ordered = sorted(supports, key=lambda m: bin(m)[:1:-1], reverse=True)
        ordered.sort(key=int.bit_count, reverse=True)

        self.n_vertices = n = ambient_mask.bit_count()
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
        coeffs = [0] * (n + 1)
        coeffs[n] = 1           # the ambient space, μ(0̂) = 1
        covers = []
        longest = [0] * size    # longest saturated chain from 0̂
        for j in range(1, size):
            bit = 1 << j
            lower = reduce(and_, map(holders.__getitem__, vertices[j]), everyone) ^ bit
            below[j] = lower
            m = -sum(value * (lower & members).bit_count() for value, members in classes.items())
            mob[j] = m
            classes[m] = classes.get(m, 0) | bit
            coeffs[len(vertices[j])] += m
            high = 0
            while lower:
                k = lower.bit_length() - 1
                covers.append((k, j))
                if longest[k] > high:
                    high = longest[k]
                lower &= ~(below[k] | 1 << k)
            longest[j] = high + 1
        self.mobius = mob
        self.char_poly = coeffs
        covers.sort()
        self.covers = covers
        self.graded = all(longest[j] == longest[k] + 1 for k, j in covers)
        self.rank = longest[-1] if self.graded else None

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
    parts = as_tuple(parts, "parts")
    check_ints(n_vertices=n_vertices, **{f"part {i}": p for i, p in enumerate(parts)})
    if min(parts, default=1) < 1 or sum(parts) != n_vertices:
        raise ValueError(f"parts must be ints ≥ 1 summing to {n_vertices}, got {parts}")
    coeffs = [0] * (n_vertices + 1)
    coeffs[n_vertices] += 1
    for p in parts:
        coeffs[p] -= 1
    coeffs[0] += len(parts) - 1
    return coeffs
