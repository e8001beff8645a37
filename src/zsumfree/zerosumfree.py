"""The complex of ℓ-zero-sumfree subsets of Z/n.

A subset S of Z/n is a face of Δ_{n,ℓ} when no multiset of exactly ℓ
elements of S (repetition allowed) sums to 0 mod n.  Two independent
constructions are provided:

* ``build_complex`` — the (n,ℓ)-congruent (NLC) partition pipeline: the
  minimal non-faces are {0} together with the inclusion-minimal supports of
  partitions of a positive multiple of n into exactly ℓ parts, each ≤ n-1;
  the facets are the maximal sets containing none of them.
* ``brute_force_complex`` — a scan of every subset of 1..n-1 (vertex 0 is
  in no face) with the reachability face test, as a subset dynamic program
  on Python ints, one bitset over the subsets per residue, in O(ℓ·n·2^{n-1})
  bit operations; kept as the ground-truth oracle (n ≤ 24).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from math import gcd
from operator import or_

from .complexes import (
    MAX_VERTICES,
    CapacityError,
    SimplicialComplex,
    _check_vertices,
    _sorted_sets,
    _vertices_of,
    faces_by_dimension,
)
from .partitions import binomial, check_ints, check_type, enumerate_partitions

BUILD_CAP = MAX_VERTICES  # a vertex of Δ_{n,ℓ} is a residue in 0..n-1
BRUTE_FORCE_CAP = 24
FACET_COUNT_CAP = 4096


def check_oracle_capacity(n: int) -> None:
    """Raise CapacityError unless `brute_force_complex` takes n."""
    if n > BRUTE_FORCE_CAP:
        raise CapacityError(f"brute_force_complex supports n ≤ {BRUTE_FORCE_CAP}, got {n}")


@dataclass(frozen=True)
class ZsfParams:
    """Parameters (n, ell) with 0 < ell < n."""

    n: int
    ell: int

    def __post_init__(self):
        check_ints(n=self.n, ell=self.ell)
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not 0 < self.ell < self.n:
            raise ValueError(f"ell must satisfy 0 < ell < n, got ell={self.ell}, n={self.n}")


def is_face(params: ZsfParams, members) -> bool:
    """True when no multiset of exactly `ell` elements of `members` sums to 0 mod n.

    Layered reachability: R_0 = {0}, R_{t+1} = R_t + members; face iff
    0 ∉ R_ell.  Cost O(ell · n · |members|) bit operations.
    """
    check_type(params, ZsfParams)
    n, ell = params.n, params.ell
    try:
        members = list(members)
        s = set(members)
    except TypeError as exc:  # not iterable, or a member that is unhashable
        raise ValueError(f"members must be an iterable of residues: {exc}") from None
    _check_vertices(members)  # as given: the set drops True beside 1
    s = sorted(s)
    if any(x < 0 or x >= n for x in s):
        raise ValueError(f"members must be residues in 0..{n - 1}")
    full = (1 << n) - 1
    reach = 1
    for _ in range(ell):
        nxt = 0
        for x in s:
            nxt |= (reach << x) | (reach >> (n - x))
        reach = nxt & full
        if reach == full:
            return False
    return not reach & 1


def enumerate_nlc(params: ZsfParams) -> list[frozenset]:
    """Underlying sets of all (n,ℓ)-congruent partitions, zero-padded, deduplicated.

    For every m with 0 ≤ m ≤ (n-1)·ell // n, each partition of m·n into at
    most `ell` parts, all ≤ n-1, contributes the set of its distinct parts;
    a partition with fewer than `ell` parts picks up the element 0 (padding
    with zeros is what makes the count exactly `ell`).  Exponential in n; for
    large parameters use `minimal_nonfaces` directly.
    """
    check_type(params, ZsfParams)
    n, ell = params.n, params.ell
    found: set[frozenset] = set()
    for m in range((n - 1) * ell // n + 1):
        for parts in enumerate_partitions(m * n, ell, n - 1):
            members = set(parts)
            if len(parts) < ell:
                members.add(0)
            found.add(frozenset(members))
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


@cache
def _unit_table(n: int) -> tuple[tuple[int, ...], tuple[int, ...], int, range]:
    """Packed images of the vertices under the units u ≠ 1 of Z/n.

    Field i of a packed int holds bits i·w .. i·w + n with w = n + 1 and
    stands for the i-th unit u ≠ 1; its top bit, bit n, is a guard bit and
    the bits below it hold a vertex mask.  Returns (IMG, SELF, GUARDS,
    offsets): IMG[v] holds bit u·v mod n in field i, SELF[v] holds bit v in
    every field, GUARDS holds every guard bit (0 when 1 is the only unit)
    and `offsets` are the fields' lowest bits, i·w, for unpacking.  Built
    once per n and shared by every caller, hence tuples.
    """
    w = n + 1
    units = [u for u in range(2, n) if gcd(u, n) == 1]
    offsets = range(0, len(units) * w, w)
    spread = sum(1 << i for i in offsets)
    img = tuple(sum(1 << (i + u * v % n) for i, u in zip(offsets, units)) for v in range(n))
    return img, tuple(spread << v for v in range(n)), spread << n, offsets


@cache
def _reach_table(n: int, ell: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(SHIFTS, ZERO) for the packed reach layers of `minimal_nonfaces`,
    built once per (n, ℓ).  SHIFTS[v] are the shifts k·v mod n + 2n·k of the
    doubling steps, k = 1, 2, 4, ... ≤ ℓ (⌈log₂(ℓ+1)⌉ of them); ZERO[v] has
    bit 2n·(ℓ-k) + (-k·v mod n) set for every 0 ≤ k ≤ ℓ."""
    steps = [1 << j for j in range(ell.bit_length())]
    shifts = tuple(tuple(k * v % n + 2 * n * k for k in steps) for v in range(n))
    zero = tuple(sum(1 << (2 * n * (ell - k) + -k * v % n) for k in range(ell + 1)) for v in range(n))
    return shifts, zero


def minimal_nonfaces(params: ZsfParams) -> list[int]:
    """Inclusion-minimal sets among the zero-padded NLC supports, as vertex
    masks (bit v for vertex v) by size, then by ascending vertex tuple.

    These are exactly the minimal non-faces of Δ_{n,ℓ}.  {0} is always one
    (the all-zero multiset), and it absorbs every padded support, so the rest
    are the minimal supports of partitions of a multiple of n into exactly
    `ell` parts ≤ n-1.  Those are searched support-first: a depth-first walk
    over the faces in 1..n-1 of size < ell, reusing the reachability layers
    of `is_face` and pruning every branch that already contains a non-face.

    A node's ℓ + 1 reach layers R_0..R_ℓ (R_t the residues that are sums of
    exactly t of its elements) are packed in one int: field t is 2n bits
    wide and holds R_t in its low n bits, so LOW, the low n bits of every
    field, masks a packed value.  The child adding v has layers
    C_t = R_t ∪ (v + C_{t-1}), C_0 = R_0 = {0}: C = R | T(C), where T moves
    every layer up one field and adds v.  Adding v to an n-bit layer is a
    rotation: shift it up by v inside its 2n-bit field, then fold the high
    half onto the low one, (y | y >> n) & LOW; the shift up by 2n·k moves it
    k fields on, and the mask drops what passes field ℓ.  So
    T^k(X) = fold(X << (k·v mod n + 2n·k)).  T is an OR homomorphism with
    T^{ℓ+1} = 0, so the fixed point is C = (1 | T | T² | ... | T^ℓ)(R), and
    doubling builds it: after c |= T^k(c) for k = 1, 2, ..., 2^{j-1},
    c = (1 | T | ... | T^{2^j - 1})(R): ⌈log₂(ℓ+1)⌉ steps of a few whole-int
    operations each, with the shifts precomputed per (n, ℓ)
    (`_reach_table`).  The child is a
    non-face iff residue 0 is in C_ℓ, bit 2n·ℓ of C.  That bit needs no C:
    field ℓ of T^k(R) is R_{ℓ-k} + k·v, so 0 ∈ C_ℓ iff -k·v mod n ∈ R_{ℓ-k}
    for some 0 ≤ k ≤ ℓ, that is iff R meets ZERO[v], one AND.  So C is built
    only for the face children that the walk enters.

    Multiplying by a unit u of Z/n permutes the faces and the non-faces, so
    the walk is an orderly generation (Read 1978) over the (Z/n)^× orbits:
    it visits only canonical sets, those whose bit mask is the largest in
    their orbit.  A child adds a vertex below the node's minimum; a child
    with an image larger than itself is skipped.  This reaches every
    canonical set, because deleting the minimum m of a canonical S leaves a
    canonical S' = S∖{m}.  Suppose u·S' > S', with p the top bit where they
    differ.  Then p > m: otherwise u·S' would hold all of S' and p besides,
    one element too many.  If u·m > p, then u·S and S agree above u·m and
    only u·S holds u·m; if u·m < p, they agree above p and only u·S holds p.
    Either way u·S > S, so S is not canonical.

    A node carries all its images u·S, u ≠ 1, packed in one int `images`
    (the layout of `_unit_table`: one n+1 bit field per unit, bit n of each
    field a guard bit), and `copies`, S repeated in every field with every
    guard bit set.  A child adding v costs `images | IMG[v]` and
    `copies | SELF[v]`, and it is canonical iff
    `(copies - images) & GUARDS == GUARDS`.  Field i of `copies - images`
    holds (S + 2^n) - u·S, which lies in (0, 2^{n+1}) because both masks
    are below 2^n, so no borrow crosses into the next field; its guard bit
    is set iff (S + 2^n) - u·S ≥ 2^n, that is iff u·S ≤ S.  All guard bits
    are set iff max(u·S) ≤ S.  The fields are unpacked only where single
    masks are needed: into `visited` and for the orbits of the minimal
    candidates.  The result is sorted as masks (`_sorted_sets`), with no
    decoding.

    Every node and its images are recorded, so the visited set is every face
    of size < ell.  A non-face child has at most `ell` elements, so each of
    its one-smaller subsets has size < ell; the child is minimal exactly when
    all of them were visited, one set lookup per element.  The orbits of the
    minimal canonical children are the minimal non-faces besides {0}.
    """
    check_type(params, ZsfParams)
    n, ell = params.n, params.ell
    full = (1 << n) - 1
    img, self_bits, guards, offsets = _unit_table(n)
    shifts, zero = _reach_table(n, ell)
    low_bits = full * sum(1 << (2 * n * t) for t in range(ell + 1))  # LOW
    candidates: list[tuple[int, int]] = []
    visited: set[int] = set()

    def walk(support_mask: int, images: int, copies: int, size: int, low: int, reach: int) -> None:
        visited.add(support_mask)
        visited.update([images >> s & full for s in offsets])
        for v in range(low - 1, 0, -1):
            child_images = images | img[v]
            child_copies = copies | self_bits[v]
            if (child_copies - child_images) & guards != guards:
                continue
            child = support_mask | (1 << v)
            if reach & zero[v]:
                candidates.append((child, child_images))
            elif size + 1 < ell:
                c = reach
                for shift in shifts[v]:
                    y = c << shift
                    c |= (y | y >> n) & low_bits
                walk(child, child_images, child_copies, size + 1, v, c)

    walk(0, 0, guards, 0, n, 1)  # the empty set reaches 0 with no elements
    # `walk` refers to itself, a reference cycle that holds `visited`; without
    # this the set lives until the next full garbage collection
    del walk
    masks = {1}  # {0}, then the orbits of the minimal canonical candidates
    for m, images in candidates:
        rest = m
        while rest:
            low = rest & -rest
            if m ^ low not in visited:
                break
            rest ^= low
        else:
            masks.add(m)
            masks.update([images >> s & full for s in offsets])
    return _sorted_sets(masks)


def _edges_at(n: int, edges: list[int]) -> list[list[int]]:
    """edges_at[v] lists the masks in `edges` that hold vertex v, in their order."""
    edges_at: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        for v in _vertices_of(e):
            edges_at[v].append(e)
    return edges_at


def _maximal_nonface_free(n: int, mnf: list[int]) -> SimplicialComplex:
    """The complex on 0..n-1 whose facets are the maximal subsets holding
    none of the minimal non-faces `mnf`.

    A vertex is supported unless it is a non-face ({0} always is); the edges
    are the other non-faces.  Multiplying by a unit u of Z/n permutes the
    supported vertices and the edges, so it permutes the facets too.  The search
    is an orderly generation over the (Z/n)^× orbits, like the walk in
    `minimal_nonfaces`: a depth-first search over canonical faces (bit mask
    the largest in its orbit) that adds vertices in descending order, each
    below the node's minimum.  A node carries its images u·S packed in one
    int (one n+1 bit field per unit u ≠ 1, bit n of each field a guard bit)
    and `copies`, S in every field with every guard bit set, exactly as in
    `minimal_nonfaces`.  A child costs two ORs, and the guard compare
    `(copies - images) & GUARDS == GUARDS` holds iff max(u·S) ≤ S: field i
    computes (S + 2^n) - u·S with no borrow into the next field, and keeps
    its guard bit iff u·S ≤ S.  So a child with an image larger than itself
    is skipped in a few whole-int operations.  A leaf unpacks its images
    and adds its whole orbit to the facets found.

    Every facet is found.  Its orbit holds a canonical member F, and the
    delete-the-minimum argument of `minimal_nonfaces` holds for any family
    that is closed under the units and under subsets, so every prefix of F
    (its vertices from the top down) is canonical, and the search walks the
    chain of prefixes to F unless a cut stops it first.

    Each node carries `blocked`, the vertices u outside its mask with an
    edge e ∋ u whose other vertices e∖{u} all lie in the mask: exactly the
    vertices that cannot join it.  Adding v can block only through the edges
    at v, so the child's mask follows from the parent's by one pass over
    them.  The candidates, the unblocked vertices below the last one added,
    travel as a mask as well; every face under the node lies inside the
    horizon mask ∪ cand.  A vertex u is skipped when it is supported and
    outside the mask, not blocked and not a candidate (so it lies above the
    last vertex added): no face under the node holds it.  The horizon cut
    drops a node when some skipped u has no edge e with e∖{u} inside the
    horizon.  It is sound: such a u can never be blocked under the node, so
    no face there is maximal.  On the path to a canonical facet F it never
    fires: a skipped u lies outside F, and F is maximal, so some edge e ∋ u
    has e∖{u} ⊆ F ⊆ horizon.  At a leaf (no candidates) every unblocked
    vertex outside the mask is skipped, so a leaf that passes the cut is
    maximal.  The same test also runs once per sibling: after child v, v is
    skipped at every later sibling, whose horizons lie in mask ∪ (the
    candidates below v), so when v completes no edge there, the later
    siblings are all dropped at once; by the same argument this never drops
    the sibling on the path to F.

    No cut against the facets already found is needed.  If a node passes
    the horizon cut and its horizon H lies inside a facet G, then H = G: a
    vertex w of G outside H is supported and unblocked (an edge e ∋ w with
    e∖{w} in the mask would lie in G), so w is skipped, and the cut found an
    edge e ∋ w with e∖{w} ⊆ H ⊆ G, so e ⊆ G, which a face cannot hold.
    """
    full = (1 << n) - 1
    img, self_bits, guards, offsets = _unit_table(n)
    support = full & ~reduce(or_, [e for e in mnf if not e & (e - 1)], 0)
    edges_at = _edges_at(n, [e for e in mnf if e & (e - 1)])
    found: set[int] = set()

    def completes(u: int, horizon: int) -> bool:
        """Whether some edge e ∋ u has e∖{u} inside `horizon` (which lacks u)."""
        bit, outside = 1 << u, ~horizon
        for e in edges_at[u]:
            if e & outside == bit:
                return True
        return False

    def dfs(mask: int, images: int, copies: int, blocked: int, cand: int) -> None:
        skipped = support & ~(mask | blocked | cand)
        while skipped:
            bit = skipped & -skipped
            skipped ^= bit
            if not completes(bit.bit_length() - 1, mask | cand):
                return
        if not cand:
            found.add(mask)
            found.update([images >> s & full for s in offsets])
            if len(found) > FACET_COUNT_CAP:
                raise CapacityError(f"the complex has more than {FACET_COUNT_CAP} facets")
            return
        rest = cand
        while rest:
            v = rest.bit_length() - 1
            bit = 1 << v
            rest ^= bit
            child_images = images | img[v]
            child_copies = copies | self_bits[v]
            if (child_copies - child_images) & guards == guards:
                child = mask | bit
                child_blocked = blocked
                for e in edges_at[v]:
                    left = e & ~child
                    if not left & (left - 1):  # child holds all of e but one vertex
                        child_blocked |= left
                dfs(child, child_images, child_copies, child_blocked, rest & ~child_blocked)
            # v is skipped at every later sibling, whose horizons lie in mask | rest
            if not completes(v, mask | rest):
                return

    dfs(0, 0, guards, 0, support)
    del dfs  # `dfs` refers to itself, a reference cycle that holds `found`
    return SimplicialComplex.from_masks(full, found)


def build_complex(params: ZsfParams) -> SimplicialComplex:
    """Δ_{n,ℓ} via the NLC pipeline: minimal non-faces, then maximal avoiding sets.

    Raises CapacityError for n > BUILD_CAP = `complexes.MAX_VERTICES` or when
    the facet count passes FACET_COUNT_CAP (degenerate near-independent
    instances such as ℓ = 2 with large even n have exponentially many facets).
    """
    check_type(params, ZsfParams)
    n = params.n
    if n > BUILD_CAP:
        raise CapacityError(f"build_complex supports n ≤ {BUILD_CAP}, got {n}")
    return _maximal_nonface_free(n, minimal_nonfaces(params))


def _f_vector(params: ZsfParams, mnf: list[int], c: SimplicialComplex | None) -> list[int]:
    """f-vector of Δ_{n,ℓ} from its minimal non-face masks `mnf`, as `faces_by_dimension` gives it.

    `c` is the complex with these minimal non-faces, or None when it is too
    large to build; it is read only to choose the cheaper count (see the
    fallback below), so the result does not depend on it.

    The f-polynomial f(x) = Σ_S x^{|S|} of a join is the product of its
    parts' f-polynomials, and Δ_{n,ℓ} splits as a join along the connected
    components of its non-face hypergraph (non-faces of two or more
    vertices; two meet when they share a vertex): a set is a face iff its
    part in each component holds no non-face of that component.  So each
    vertex in no non-face is a cone factor 1 + x, a vertex that is itself a
    non-face adds nothing, and a component that is one non-face e holds
    every subset of e but e itself: (1 + x)^{|e|} - x^{|e|}.  These
    closed forms are exact and cover Δ_{n,1} (a simplex) and Δ_{n,2} (a
    join of the pairs {a, -a}).  Finding them needs no component search:
    the non-faces are distinct, so e is a component on its own iff none of
    its vertices is `shared`, that is, lies in two or more non-faces.

    The union of the other non-faces is the rest R, the join of the other
    components.  A unit u of Z/n permutes the non-faces, so it keeps the
    number of non-faces through each vertex, and R and its faces are closed
    under the units.  They are counted by an orderly depth-first search
    over canonical faces of R (bit mask the largest in its orbit), with the
    packed images, the guard-bit test and the `blocked` masks of
    `_maximal_nonface_free`: the delete-the-minimum argument of
    `minimal_nonfaces` holds for any family closed under the units and
    under subsets, so the search visits exactly one face per orbit.  No
    horizon cut applies, since every face counts.  By the
    orbit-stabilizer theorem the orbit of a canonical S has |G|/|Stab S|
    members, G the unit group, all of size |S|, so S adds that much to
    f_{|S|}.  A unit u ≠ 1 fixes S iff field u of `images ^ copies` holds
    only its guard bit, that is iff u·S xor S = 0.  Subtracting 1 from
    every field (the int with bit i·(n+1) set in every field) clears the
    guard of exactly the zero fields and borrows nothing across fields, so
    |G| - |Stab S| = popcount(((images ^ copies) - ones) & GUARDS).

    The search visits at least 2^d/|G| nodes, d the size of the largest
    facet: that facet's subsets alone fill at least 2^d/|G| orbits.  The
    deletion–link recursion of `faces_by_dimension` costs about one step per
    facet.  So when 2^d > |G|·#facets, as on the odd-residue simplex of
    even n and odd ℓ (Δ_{24,13}, Δ_{32,7}), `faces_by_dimension(c)` counts
    the whole complex instead.
    """
    n = params.n
    free = n - reduce(or_, mnf, 0).bit_count()
    poly = [binomial(free, k) for k in range(free + 1)]
    edges = [m for m in mnf if m & (m - 1)]
    seen = shared = 0  # vertices in one or more, and in two or more, edges
    for e in edges:
        shared |= seen & e
        seen |= e
    rest = 0
    for e in edges:
        if e & shared:
            rest |= e
        else:
            s = e.bit_count()
            poly = _times(poly, [binomial(s, k) for k in range(s)])
    if not rest:
        return poly
    img, self_bits, guards, offsets = _unit_table(n)
    order = len(offsets) + 1
    if c is not None and 1 << (c.dim() + 1) > order * len(c._facet_masks):
        return faces_by_dimension(c)
    ones = guards >> n
    edges_at = _edges_at(n, edges)
    counts = [0] * (n + 1)

    def dfs(mask: int, images: int, copies: int, blocked: int, cand: int, size: int) -> None:
        moved = (((images ^ copies) - ones) & guards).bit_count()
        counts[size] += order // (order - moved)
        while cand:
            v = cand.bit_length() - 1
            bit = 1 << v
            cand ^= bit
            child_images = images | img[v]
            child_copies = copies | self_bits[v]
            if (child_copies - child_images) & guards == guards:
                child = mask | bit
                child_blocked = blocked
                for e in edges_at[v]:
                    left = e & ~child
                    if not left & (left - 1):  # child holds all of e but one vertex
                        child_blocked |= left
                dfs(child, child_images, child_copies, child_blocked, cand & ~child_blocked, size + 1)

    dfs(0, 0, guards, 0, rest, 0)
    del dfs  # `dfs` refers to itself, a reference cycle that holds `counts`
    while not counts[-1]:
        counts.pop()
    return _times(poly, counts)


def _times(a: list[int], b: list[int]) -> list[int]:
    """Product of two polynomials given as ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def brute_force_complex(params: ZsfParams) -> SimplicialComplex:
    """Δ_{n,ℓ} by scanning every subset with the face test (oracle, n ≤ 24).

    Vertex 0 is in no face (ℓ copies of 0 sum to 0), so the scan covers the
    2^{n-1} subsets of 1..n-1: subset i holds vertex j+1 when bit j of i is
    set.  The reach layers of `is_face` are kept transposed, as one Python
    int per residue r and layer t whose bit i is set iff r is a sum of
    exactly t elements of subset i.  A sum of t elements of T = S ∪ {v}, v
    its top vertex, avoids v or is v plus a sum of t-1 elements of T:
    R_t(T) = R_t(S) ∪ (v + R_{t-1}(T)), the recurrence the reach layers
    follow.  The subsets with top vertex v are the block of indices
    [2^{v-1}, 2^v), and S is T's index minus 2^{v-1}, so for residue r

        block v of layer t = (layer t over the blocks below v)
                             | (block v of layer t-1 for r - v mod n),

    one OR of 2^{v-1} bits, and the blocks below v + 1 follow by one shift.
    Each layer is kept as its blocks, so none is cut out of a larger int,
    and the last layer needs residue 0 only: O(ℓ·n·2^{n-1}) bit operations
    in all, each OR and shift running over whole int digits in C.

    The faces are the complement of the residue-0 int.  A face is maximal
    when no one-larger set is a face: with keep_j the subsets without vertex
    j+1, `face >> 2^j & keep_j` marks each such subset whose partner with
    j+1 is a face.  keep_{n-2} is the low half, and each keep_j follows from
    keep_{j+1} by one shift and xor (0x0F, 0x33, 0x55 on three vertices).
    The facet masks are read off the set bits of the unmarked faces by a
    string search, one Python step per facet.
    """
    check_type(params, ZsfParams)
    n, ell = params.n, params.ell
    check_oracle_capacity(n)
    half = 1 << (n - 2)  # the size of the top block, that of vertex n-1
    # layer[r][v - 1] is block v for residue r; R_0 = {0} for every subset
    layer = [[(1 << (1 << (v - 1))) - 1 for v in range(1, n)]]
    layer += [[0] * (n - 1) for _ in range(1, n)]
    for t in range(1, ell + 1):
        nxt = []
        for r in range(n) if t < ell else (0,):
            below, blocks = 0, []  # the empty set has no sums of t ≥ 1 elements
            for v in range(1, n):
                block = below | layer[(r - v) % n][v - 1]
                blocks.append(block)
                if v < n - 1:
                    below |= block << (1 << (v - 1))
            nxt.append(blocks)
        layer = nxt
    zero = below | blocks[-1] << half  # residue 0 of layer ell, every block
    face = ~zero & ((1 << (2 * half)) - 1)
    keep = (1 << half) - 1  # keep_j, the subsets without vertex j+1
    marked = 0
    for j in range(n - 2, -1, -1):
        marked |= face >> (1 << j) & keep
        if j:
            keep ^= keep << (1 << (j - 1))
    bits = bin(face & ~marked)[:1:-1]  # bit i at index i
    facets = []
    i = bits.find("1")
    while i >= 0:
        facets.append(i << 1)
        i = bits.find("1", i + 1)
    return SimplicialComplex.from_masks((1 << n) - 1, facets)
