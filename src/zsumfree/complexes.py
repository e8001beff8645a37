"""Simplicial complexes on small integer vertex sets.

A complex is stored by its facets (inclusion-maximal faces).  Vertices are
nonnegative integers below 64, so faces travel as bit masks internally.
Every complex contains the empty face; the void complex is ``{∅}`` with the
single facet ``frozenset()``.
"""

from __future__ import annotations

from itertools import zip_longest

from .partitions import binomial, check_partition, conjugate


class CapacityError(ValueError):
    """The requested computation exceeds the documented size caps."""


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _vertices_of(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _minimal_masks(masks) -> list[int]:
    """Inclusion-minimal elements of a collection of bit masks."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda x: (x.bit_count(), x)):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def _maximal_masks(masks) -> list[int]:
    """Inclusion-maximal elements of a collection of bit masks."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda x: (-x.bit_count(), x)):
        if not any(k & m == m for k in kept):
            kept.append(m)
    return kept


class SimplicialComplex:
    """A finite simplicial complex, given by ground set and facets."""

    def __init__(self, ground, facets):
        self.ground = frozenset(int(v) for v in ground)
        if any(v < 0 or v > 63 for v in self.ground):
            raise ValueError("vertices must be integers in 0..63")
        facets = [frozenset(int(v) for v in f) for f in facets]
        if not facets:
            raise ValueError("a complex needs at least one facet (use {frozenset()} for the void complex)")
        for f in facets:
            if not f <= self.ground:
                raise ValueError(f"facet {sorted(f)} is not a subset of the ground set")
        masks = [_mask_of(f) for f in facets]
        if len(set(masks)) != len(masks):
            raise ValueError("facets must be distinct")
        for i, a in enumerate(masks):
            for b in masks[i + 1:]:
                if a & b == a or a & b == b:
                    raise ValueError("facets must be pairwise inclusion-incomparable")
        self.facets = tuple(sorted(facets, key=lambda f: tuple(sorted(f))))
        self._facet_masks = tuple(_mask_of(f) for f in self.facets)

    @classmethod
    def from_facet_candidates(cls, ground, candidates) -> "SimplicialComplex":
        """Build the complex generated by `candidates`, keeping only maximal sets."""
        cand = [frozenset(int(v) for v in s) for s in candidates]
        if not cand:
            raise ValueError("need at least one candidate face")
        maximal = _maximal_masks(_mask_of(s) for s in cand)
        return cls(ground, [frozenset(_vertices_of(m)) for m in maximal])

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

    def to_json(self) -> dict:
        """JSON-ready dict: sorted ground list and lexicographically sorted facet lists."""
        return {
            "ground": sorted(self.ground),
            "facets": sorted(sorted(f) for f in self.facets),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SimplicialComplex":
        return cls(data["ground"], [frozenset(f) for f in data["facets"]])


# ---------------------------------------------------------------------------
# face counting

def faces_by_dimension(c: SimplicialComplex) -> list[int]:
    """f-vector [f_{-1}, f_0, ..., f_d] with f_{-1} = 1 for the empty face.

    Splits on a vertex v: f(Δ) = f(Δ∖v) + x·f(lk v), where lk v has the
    facets F∖v of the facets F ∋ v, and Δ∖v has the facets without v plus
    the link facets lying in none of them.  A simplex on s vertices ends the
    recursion with the binomials C(s, k); a sub-complex that the recursion
    meets more than once is counted once.
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
            union = 0
            for f in facets:
                union |= f
            bit = union & -union
            link = [f ^ bit for f in facets if f & bit]
            rest = [f for f in facets if not f & bit]
            deletion = count(rest + [g for g in link if not any(g & r == g for r in rest)])
            out = [a + b for a, b in zip_longest(deletion, [0] + count(link), fillvalue=0)]
        memo[key] = out
        return out

    return count(list(c._facet_masks))


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
    verts = sorted(c.supported_vertices())
    if len(verts) <= 1:
        return True
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for f in c.facets:
        fs = sorted(f)
        for w in fs[1:]:
            parent[find(w)] = find(fs[0])
    return len({find(v) for v in verts}) == 1


def isolated_vertices(c: SimplicialComplex) -> list[int]:
    """Vertices lying in no edge, i.e. vertices that are themselves facets."""
    return sorted(v for f in c.facets if len(f) == 1 for v in f)


def decompose_disjoint_simplices(c: SimplicialComplex):
    """If the facets are pairwise disjoint, their sizes as a partition; else None.

    A complex with pairwise disjoint facets is the disjoint union of simplices
    joined at the empty face.  The void complex decomposes as ().
    """
    masks = c._facet_masks
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if a & b:
                return None
    return tuple(sorted((len(f) for f in c.facets if f), reverse=True))
