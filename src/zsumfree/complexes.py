"""Simplicial complexes on small integer vertex sets.

A complex is stored by its facets (inclusion-maximal faces).  Vertices are
nonnegative integers below `MAX_VERTICES`, the package's one vertex bound,
so every face is a bit mask, bit v standing for vertex v: a complex keeps
its facet masks and decodes them into frozensets only when `facets` is first
read, and the minimal non-faces are returned as masks.  Every complex
contains the empty face; the void complex is ``{∅}`` with the single facet
``frozenset()``.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain, zip_longest
from operator import and_, or_

from .partitions import as_tuple, binomial, check_partition, check_type, conjugate

MAX_VERTICES = 64  # the width of a vertex mask: vertices are 0..MAX_VERTICES-1
_VERTEX_RANGE = f"vertices must be integers in 0..{MAX_VERTICES - 1}"


class CapacityError(ValueError):
    """The requested computation exceeds the documented size caps."""


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _check_int_types(values, name: str) -> None:
    """Raise ValueError unless every value is an int, in one pass over their
    types: bools, floats, strs and numpy integers are refused, as `ZsfParams`
    refuses them for n and ell."""
    kinds = set(map(type, values)) - {int}
    if kinds:
        names = ", ".join(sorted(kind.__name__ for kind in kinds))
        raise ValueError(f"{name} must be ints, got {names}")


def _byte_vertices(j: int, kind=int) -> tuple[tuple, ...]:
    """Entry b: the vertices 8j + i for the set bits i of byte b, ascending,
    each as `kind(v)`; each bit doubles the table, so it costs one tuple per
    entry and every entry shares the same 8 vertex objects."""
    table = [()]
    for v in map(kind, range(8 * j, 8 * j + 8)):
        table += [t + (v,) for t in table]
    return tuple(table)


_BYTE_VERTICES = tuple(map(_byte_vertices, range(MAX_VERTICES // 8)))
# the same vertices as decimal strings, the text that JSON rows are joined from
_BYTE_STRINGS = tuple(_byte_vertices(j, str) for j in range(MAX_VERTICES // 8))


def _vertices_of(mask: int, t=_BYTE_VERTICES) -> tuple:
    """The set bits of `mask`, ascending, as ints, or as their decimal
    strings when `t` is `_BYTE_STRINGS`; 0 ≤ mask < 2^MAX_VERTICES (else
    OverflowError).  One table lookup per byte, unrolled (faster than a loop)
    over the MAX_VERTICES // 8 = 8 bytes: a wider bound must widen it."""
    b = mask.to_bytes(8, "little")
    low = t[0][b[0]] + t[1][b[1]] + t[2][b[2]] + t[3][b[3]]
    return low + t[4][b[4]] + t[5][b[5]] + t[6][b[6]] + t[7][b[7]] if mask >> 32 else low


def _holders(vertex_tuples, width: int) -> list[int]:
    """holders[v] has bit i set when tuple i of `vertex_tuples` holds v, for v < width."""
    holders = [0] * width
    for i, vs in enumerate(vertex_tuples):
        bit = 1 << i
        for v in vs:
            holders[v] |= bit
    return holders


def _minimal_masks(masks) -> list[int]:
    """Inclusion-minimal elements of a collection of bit masks."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda x: (x.bit_count(), x)):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def _sorted_sets(masks) -> list[int]:
    """Distinct vertex masks by size, then by ascending vertex tuple.

    Of two distinct sets of one size, the one holding the lowest bit of
    a ^ b has the smaller vertex tuple, and that bit is the first place
    where their reversed binary strings differ; a stable sort by size follows."""
    ordered = sorted(masks, key=lambda m: bin(m)[:1:-1], reverse=True)
    ordered.sort(key=int.bit_count)
    return ordered


class SimplicialComplex:
    """A finite simplicial complex, given by ground set and facets.

    The facets are held as vertex bit masks (bit v for vertex v) in
    `_facet_masks`, sorted by ascending vertex list; `facets` is the same
    list as a tuple of frozensets, decoded on first access, and `ground` the
    ground set, decoded likewise.  The constructor takes iterables of
    vertices; `from_masks` takes the masks themselves.  Both validate, sort
    and store through one core, so they refuse the same complexes.
    """

    def __init__(self, ground, facets):
        try:
            ground = list(ground)
            facets = [list(f) for f in facets]
        except TypeError as exc:
            raise ValueError(f"ground and facets must be iterables of vertices: {exc}") from None
        # lists, not sets: a set would drop True beside 1 before the check
        vertices = [*ground, *chain.from_iterable(facets)]
        _check_int_types(vertices, "vertices")
        if vertices and not 0 <= min(vertices) <= max(vertices) < MAX_VERTICES:
            raise ValueError(_VERTEX_RANGE)
        self._store(_mask_of(ground), [_mask_of(f) for f in facets])

    @classmethod
    def from_masks(cls, ground: int, facets: list[int]) -> SimplicialComplex:
        """The complex on the vertices of mask `ground` with facet masks `facets`."""
        try:
            facets = list(facets)
        except TypeError as exc:
            raise ValueError(f"facets must be an iterable of masks: {exc}") from None
        c = cls.__new__(cls)
        c._store(ground, facets)
        return c

    def _store(self, ground: int, masks: list[int]) -> None:
        if set(map(type, masks)) | {type(ground)} != {int}:
            raise ValueError("vertex masks must be ints")
        if not 0 <= ground < 1 << MAX_VERTICES:
            raise ValueError(_VERTEX_RANGE)
        if not masks:
            raise ValueError("a complex needs at least one facet (use {frozenset()} for the void complex)")
        for m in masks:
            if m & ~ground:
                if m < 0 or m >> MAX_VERTICES:
                    raise ValueError(_VERTEX_RANGE)
                raise ValueError(f"facet {list(_vertices_of(m))} is not a subset of the ground set")
        masks = sorted(masks, key=lambda m: bin(m)[:1:-1], reverse=True)
        if len(set(masks)) != len(masks):
            raise ValueError("facets must be distinct")
        # only a facet smaller than the largest can lie in another one; facet
        # i lies in another exactly when the facets holding all its vertices
        # are more than i alone
        sizes = list(map(int.bit_count, masks))
        top = max(sizes)
        smaller = [i for i, size in enumerate(sizes) if size < top]
        if smaller:
            vertices = list(map(_vertices_of, masks))
            holders = _holders(vertices, ground.bit_length())
            everyone = (1 << len(masks)) - 1
            for i in smaller:
                if reduce(and_, map(holders.__getitem__, vertices[i]), everyone) != 1 << i:
                    raise ValueError("facets must be pairwise inclusion-incomparable")
        self._ground_mask = ground
        self._facet_masks = masks

    @cached_property
    def ground(self) -> frozenset:
        return frozenset(_vertices_of(self._ground_mask))

    @cached_property
    def facets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(_vertices_of(m)) for m in self._facet_masks)

    def dim(self) -> int:
        """Dimension: largest facet size minus one (-1 for the void complex)."""
        return max(map(int.bit_count, self._facet_masks)) - 1

    def supported_vertices(self) -> frozenset:
        """Vertices that occur in some facet."""
        return frozenset(_vertices_of(reduce(or_, self._facet_masks)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._ground_mask == other._ground_mask and self._facet_masks == other._facet_masks

    def __hash__(self):
        return hash((self._ground_mask, *self._facet_masks))

    def __repr__(self) -> str:
        facets = ", ".join("{" + ",".join(map(str, _vertices_of(m))) + "}" for m in self._facet_masks)
        return f"SimplicialComplex(ground=0..{self._ground_mask.bit_length() - 1}, facets=[{facets}])"


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
    the facets without v (`_holders`).
    """
    check_type(c, SimplicialComplex)
    memo: dict[frozenset, list[int]] = {}
    width = c._ground_mask.bit_length()

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
            holders = _holders(map(_vertices_of, rest), width)
            without = list(rest)
            everyone = (1 << len(rest)) - 1
            for g in link:
                meet = everyone
                for v in _vertices_of(g):
                    meet &= holders[v]
                    if not meet:
                        break
                if not meet:
                    without.append(g)
            deletion = count(without)
            out = [a + b for a, b in zip_longest(deletion, [0] + count(link), fillvalue=0)]
        memo[key] = out
        return out

    f = count(c._facet_masks)
    del count  # `count` refers to itself, a reference cycle that holds `memo`
    return f


def f_to_h(f: list[int]) -> list[int]:
    """h-vector from an f-vector via the standard binomial transform; the
    f-vector is an iterable of ints starting with f_{-1} = 1, else ValueError."""
    f = as_tuple(f, "an f-vector")
    _check_int_types(f, "f-vector entries")
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
                nxt.extend(t | 1 << v for v in _vertices_of(e))
        trans = _minimal_masks(nxt)
    return trans


def minimal_nonfaces_of_complex(c: SimplicialComplex) -> list[int]:
    """Inclusion-minimal non-faces, as vertex masks in the order of
    `minimal_nonfaces`: minimal sets hitting every facet complement."""
    check_type(c, SimplicialComplex)
    edges = [c._ground_mask ^ m for m in c._facet_masks]
    if any(e == 0 for e in edges):
        return []
    return _sorted_sets(_minimal_transversals(edges))


def alexander_dual(c: SimplicialComplex) -> SimplicialComplex:
    """Alexander dual on the ground set: faces are complements of non-faces.

    The dual's facets are the complements of the minimal non-faces of `c`.
    The full simplex has no non-faces and its dual (the empty family) is not
    representable, so it is rejected.
    """
    mnf = minimal_nonfaces_of_complex(c)
    if not mnf:
        raise ValueError("the full simplex has an empty Alexander dual, which is not a complex")
    return SimplicialComplex.from_masks(c._ground_mask, [c._ground_mask ^ m for m in mnf])


# ---------------------------------------------------------------------------
# structural predicates

def is_pure(c: SimplicialComplex) -> bool:
    """True when every facet has the same dimension."""
    check_type(c, SimplicialComplex)
    return len(set(map(int.bit_count, c._facet_masks))) <= 1


def is_connected(c: SimplicialComplex) -> bool:
    """Connectivity of the 1-skeleton on supported vertices (≤ 1 vertex counts as connected)."""
    check_type(c, SimplicialComplex)
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
    check_type(c, SimplicialComplex)
    return sorted(m.bit_length() - 1 for m in c._facet_masks if m and not m & (m - 1))


def decompose_disjoint_simplices(c: SimplicialComplex):
    """If the facets are pairwise disjoint, their sizes as a partition; else None.

    A complex with pairwise disjoint facets is the disjoint union of simplices
    joined at the empty face.  The void complex decomposes as ().
    """
    check_type(c, SimplicialComplex)
    union = 0
    for m in c._facet_masks:
        if union & m:
            return None
        union |= m
    return tuple(sorted((m.bit_count() for m in c._facet_masks if m), reverse=True))
