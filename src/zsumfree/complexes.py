"""Simplicial complexes on small integer vertex sets.

A complex is stored by its facets (inclusion-maximal faces).  Vertices are
nonnegative integers below 64, so faces travel as bit masks internally.
Every complex contains the empty face; the void complex is ``{∅}`` with the
single facet ``frozenset()``.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, zip_longest
from operator import and_, or_

from .partitions import binomial, check_partition, conjugate


class CapacityError(ValueError):
    """The requested computation exceeds the documented size caps."""


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _check_vertices(vertices) -> None:
    """Raise ValueError unless every vertex is an int: bools, floats, strs and
    numpy integers are refused, as `ZsfParams` refuses them for n and ell."""
    kinds = set(map(type, vertices)) - {int}
    if kinds:
        names = ", ".join(sorted(kind.__name__ for kind in kinds))
        raise ValueError(f"vertices must be ints, got {names}")


def _vertices_of(mask: int) -> tuple[int, ...]:
    """The set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _minimal_masks(masks) -> list[int]:
    """Inclusion-minimal elements of a collection of bit masks."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda x: (x.bit_count(), x)):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


class SimplicialComplex:
    """A finite simplicial complex, given by ground set and facets."""

    def __init__(self, ground, facets):
        self.ground = frozenset(ground)
        _check_vertices(self.ground)
        if any(v < 0 or v > 63 for v in self.ground):
            raise ValueError("vertices must be integers in 0..63")
        facets = [frozenset(f) for f in facets]
        if not facets:
            raise ValueError("a complex needs at least one facet (use {frozenset()} for the void complex)")
        _check_vertices(chain.from_iterable(facets))
        for f in facets:
            if not f <= self.ground:
                raise ValueError(f"facet {sorted(f)} is not a subset of the ground set")
        facets.sort(key=sorted)
        masks = [_mask_of(f) for f in facets]
        if len(set(masks)) != len(masks):
            raise ValueError("facets must be distinct")
        # holders[v] has bit i set when facet i contains v; facet i lies in
        # another facet exactly when the facets holding all its vertices
        # are more than i alone
        holders = [0] * 64
        for i, f in enumerate(facets):
            for v in f:
                holders[v] |= 1 << i
        everyone = (1 << len(facets)) - 1
        for i, f in enumerate(facets):
            common = everyone
            for v in f:
                common &= holders[v]
            if common != 1 << i:
                raise ValueError("facets must be pairwise inclusion-incomparable")
        self.facets = tuple(facets)
        self._facet_masks = masks

    def dim(self) -> int:
        """Dimension: largest facet size minus one (-1 for the void complex)."""
        return max(len(f) for f in self.facets) - 1

    def supported_vertices(self) -> frozenset:
        """Vertices that occur in some facet."""
        return frozenset().union(*self.facets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.ground == other.ground and set(self.facets) == set(other.facets)

    def __hash__(self):
        return hash((self.ground, frozenset(self.facets)))

    def __repr__(self) -> str:
        facets = ", ".join("{" + ",".join(map(str, sorted(f))) + "}" for f in self.facets)
        return f"SimplicialComplex(ground=0..{max(self.ground, default=-1)}, facets=[{facets}])"


# ---------------------------------------------------------------------------
# face counting

def faces_by_dimension(c: SimplicialComplex) -> list[int]:
    """f-vector [f_{-1}, f_0, ..., f_d] with f_{-1} = 1 for the empty face.

    Splits on a vertex v: f(Δ) = f(Δ∖v) + x·f(lk v), where lk v has the
    facets F∖v of the facets F ∋ v, and Δ∖v has the facets without v plus
    the link facets lying in none of them.  A simplex on s vertices ends the
    recursion with the binomials C(s, k); a sub-complex that the recursion
    meets more than once is counted once.

    The pivot is a cone vertex (one in every facet) when there is one, else
    the lowest vertex.  At a cone vertex no facet lacks v, so Δ∖v = lk v and
    the deletion is a memo hit: f(Δ) = (1 + x)·f(lk v).  A join of 0-spheres
    {a, b} such as Δ_{n,2} then takes O(n) calls, not 2^{n/2}: the deletion
    at a is a cone over b.  A link facet g lies in some facet without v iff
    the facets holding each vertex of g meet; those holders are bitsets over
    the facets without v, built in one pass over their vertices.
    """
    memo: dict[frozenset, list[int]] = {}

    def count(facets: list[int]) -> list[int]:
        key = frozenset(facets)
        if key in memo:
            return memo[key]
        if len(facets) == 1:
            s = facets[0].bit_count()
            out = [binomial(s, k) for k in range(s + 1)]
        else:
            pivot = reduce(and_, facets) or reduce(or_, facets)  # the cone vertices, else all
            bit = pivot & -pivot
            link = [f ^ bit for f in facets if f & bit]
            rest = [f for f in facets if not f & bit]
            holders: dict[int, int] = {}  # vertex bit -> bitset of the rest facets holding it
            for i, r in enumerate(rest):
                here = 1 << i
                while r:
                    low = r & -r
                    holders[low] = holders.get(low, 0) | here
                    r ^= low
            without = list(rest)
            everyone = (1 << len(rest)) - 1
            for g in link:
                meet, left = everyone, g
                while left and meet:
                    low = left & -left
                    meet &= holders.get(low, 0)
                    left ^= low
                if not meet:
                    without.append(g)
            deletion = count(without)
            out = [a + b for a, b in zip_longest(deletion, [0] + count(link), fillvalue=0)]
        memo[key] = out
        return out

    return count(c._facet_masks)


def f_to_h(f: list[int]) -> list[int]:
    """h-vector from an f-vector via the standard binomial transform."""
    if not f or f[0] != 1:
        raise ValueError("an f-vector starts with f_{-1} = 1")
    d = len(f) - 2
    return [
        sum((-1) ** (k - i) * binomial(d + 1 - i, d + 1 - k) * f[i] for i in range(k + 1))
        for k in range(d + 2)
    ]


def f_vector_disjoint_simplices(parts) -> list[int]:
    """f-vector of a disjoint union of simplices with vertex counts `parts`.

    For the union of (λ_i - 1)-simplices, f_{k-1} = Σ_i C(λ_i, k).
    """
    parts = check_partition(parts)
    top = parts[0] if parts else 0
    return [1] + [sum(binomial(p, k) for p in parts) for k in range(1, top + 1)]


def h_vector_disjoint_simplices(parts) -> list[int]:
    """h-vector of a disjoint union of simplices, via the conjugate partition.

    With μ the conjugate of λ: h_k = (-1)^(k-1) Σ_{m=1}^{λ_1-k+1} C(λ_1-m, k-1)(μ_m - 1)
    for 1 ≤ k ≤ λ_1, and h_0 = 1.
    """
    parts = check_partition(parts)
    if not parts:
        return [1]
    top = parts[0]
    mu = conjugate(parts)
    out = [1]
    for k in range(1, top + 1):
        s = sum(binomial(top - m, k - 1) * (mu[m - 1] - 1) for m in range(1, top - k + 2))
        out.append((-1) ** (k - 1) * s)
    return out


# ---------------------------------------------------------------------------
# Alexander duality

def _minimal_transversals(edges: list[int]) -> list[int]:
    """Inclusion-minimal hitting sets of a list of nonempty vertex masks."""
    trans = [0]
    for e in edges:
        nxt = []
        for t in trans:
            if t & e:
                nxt.append(t)
            else:
                v = 0
                rest = e
                while rest:
                    if rest & 1:
                        nxt.append(t | (1 << v))
                    rest >>= 1
                    v += 1
        trans = _minimal_masks(nxt)
    return trans


def minimal_nonfaces_of_complex(c: SimplicialComplex) -> list[frozenset]:
    """Inclusion-minimal non-faces: minimal sets hitting every facet complement."""
    ground_mask = _mask_of(c.ground)
    edges = [ground_mask ^ m for m in c._facet_masks]
    if any(e == 0 for e in edges):
        return []
    masks = _minimal_transversals(edges)
    return [frozenset(_vertices_of(m)) for m in sorted(masks, key=lambda m: (m.bit_count(), _vertices_of(m)))]


def alexander_dual(c: SimplicialComplex) -> SimplicialComplex:
    """Alexander dual on the ground set: faces are complements of non-faces.

    The dual's facets are the complements of the minimal non-faces of `c`.
    The full simplex has no non-faces and its dual (the empty family) is not
    representable, so it is rejected.
    """
    mnf = minimal_nonfaces_of_complex(c)
    if not mnf:
        raise ValueError("the full simplex has an empty Alexander dual, which is not a complex")
    ground_mask = _mask_of(c.ground)
    facets = [frozenset(_vertices_of(ground_mask ^ _mask_of(m))) for m in mnf]
    return SimplicialComplex(c.ground, facets)


# ---------------------------------------------------------------------------
# structural predicates

def is_pure(c: SimplicialComplex) -> bool:
    """True when every facet has the same dimension."""
    return len({len(f) for f in c.facets}) <= 1


def is_connected(c: SimplicialComplex) -> bool:
    """Connectivity of the 1-skeleton on supported vertices (≤ 1 vertex counts as connected)."""
    components: list[int] = []  # vertex masks; each facet absorbs the ones it meets
    for f in c._facet_masks:
        apart = []
        for comp in components:
            if comp & f:
                f |= comp
            else:
                apart.append(comp)
        components = apart + [f]
    return len(components) <= 1


def isolated_vertices(c: SimplicialComplex) -> list[int]:
    """Vertices lying in no edge, i.e. vertices that are themselves facets."""
    return sorted(v for f in c.facets if len(f) == 1 for v in f)


def decompose_disjoint_simplices(c: SimplicialComplex):
    """If the facets are pairwise disjoint, their sizes as a partition; else None.

    A complex with pairwise disjoint facets is the disjoint union of simplices
    joined at the empty face.  The void complex decomposes as ().
    """
    union = 0
    for m in c._facet_masks:
        if union & m:
            return None
        union |= m
    return tuple(sorted((m.bit_count() for m in c._facet_masks if m), reverse=True))
