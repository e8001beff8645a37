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
  in O(ℓ·2^{n-1}); kept as the ground-truth oracle (n ≤ 24).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import CapacityError, SimplicialComplex, _mask_of, _vertices_of
from .partitions import enumerate_partitions

BUILD_CAP = 64
BRUTE_FORCE_CAP = 24
FACET_COUNT_CAP = 4096


@dataclass(frozen=True)
class ZsfParams:
    """Parameters (n, ell) with 0 < ell < n."""

    n: int
    ell: int

    def __post_init__(self):
        for name in ("n", "ell"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not 0 < self.ell < self.n:
            raise ValueError(f"ell must satisfy 0 < ell < n, got ell={self.ell}, n={self.n}")


def is_face(params: ZsfParams, members) -> bool:
    """True when no multiset of exactly `ell` elements of `members` sums to 0 mod n.

    Layered reachability: R_0 = {0}, R_{t+1} = R_t + members; face iff
    0 ∉ R_ell.  Cost O(ell · n · |members|) bit operations.
    """
    n, ell = params.n, params.ell
    s = sorted(set(int(x) for x in members))
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
    n, ell = params.n, params.ell
    found: set[frozenset] = set()
    for m in range((n - 1) * ell // n + 1):
        for parts in enumerate_partitions(m * n, ell, n - 1):
            members = set(parts)
            if len(parts) < ell:
                members.add(0)
            found.add(frozenset(members))
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def minimal_nonfaces(params: ZsfParams) -> list[frozenset]:
    """Inclusion-minimal sets among the zero-padded NLC supports.

    These are exactly the minimal non-faces of Δ_{n,ℓ}.  {0} is always one
    (the all-zero multiset), and it absorbs every padded support, so the rest
    are the minimal supports of partitions of a multiple of n into exactly
    `ell` parts ≤ n-1.  Those are searched support-first: a depth-first walk
    over the faces in 1..n-1 of size < ell, reusing the reachability layers
    of `is_face` and pruning every branch that already contains a non-face.
    Each child costs O(ell) big-int shifts (its layers follow from the
    parent's by one recurrence).  A non-face child has at most `ell`
    elements, so each of its one-smaller subsets has size < ell; the child is
    minimal exactly when all of them are visited faces, one set lookup per
    element.
    """
    n, ell = params.n, params.ell
    full = (1 << n) - 1
    candidates: list[int] = []
    visited: set[int] = set()

    # reach[t] = residues reachable as sums of exactly t elements of the
    # current support (repetition allowed).
    def walk(support_mask: int, size: int, last: int, reach: list[int]) -> None:
        visited.add(support_mask)
        for v in range(last + 1, n):
            # child[t] = sums avoiding v, or one more v on a child sum of t-1
            child_reach = [1]
            acc = 1
            for t in range(1, ell + 1):
                acc = reach[t] | (((acc << v) | (acc >> (n - v))) & full)
                child_reach.append(acc)
            child = support_mask | (1 << v)
            if acc & 1:
                candidates.append(child)
            elif size + 1 < ell:
                walk(child, size + 1, v, child_reach)

    reach0 = [0] * (ell + 1)
    reach0[0] = 1
    walk(0, 0, 0, reach0)
    masks = [1] + [  # {0} first, then the rest
        m for m in candidates
        if all((m & ~(1 << v)) in visited for v in _vertices_of(m))
    ]
    sets = [frozenset(_vertices_of(m)) for m in masks]
    return sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))


def _maximal_nonface_free(supported: list[int], edges: list[int]) -> list[int]:
    """Maximal subsets of `supported` containing none of the `edges`.

    Depth-first search in ascending vertex order; a branch is cut when
    everything it can still reach lies inside an already-found facet.  Only
    facets that contain the node's mask can cut it, so each node is handed
    just those: its parent's list filtered by the new vertex, plus the
    facets found in earlier sibling subtrees.  A node's pruning cost is
    O(facets containing it), not O(facets found).
    """
    edges_at: dict[int, list[int]] = {v: [] for v in supported}
    for e in edges:
        for v in _vertices_of(e):
            edges_at[v].append(e)
    found: list[int] = []

    def addable(mask: int, v: int) -> bool:
        mv = mask | (1 << v)
        return all(e & ~mv for e in edges_at[v])

    def dfs(mask: int, cand: list[int], containing: list[int]) -> list[int]:
        """The facets found under `mask`; `containing` holds the found facets ⊇ mask."""
        horizon = mask
        for v in cand:
            horizon |= 1 << v
        for f in containing:
            if horizon | f == f:
                return []
        if not cand:
            if all((mask >> v) & 1 or not addable(mask, v) for v in supported):
                if len(found) >= FACET_COUNT_CAP:
                    raise CapacityError(
                        f"the complex has more than {FACET_COUNT_CAP} facets"
                    )
                found.append(mask)
                return [mask]
            return []
        new: list[int] = []
        for i, v in enumerate(cand):
            bit = 1 << v
            child = mask | bit
            new += dfs(
                child,
                [u for u in cand[i + 1:] if addable(child, u)],
                [f for f in containing if f & bit] + [f for f in new if f & bit],
            )
        return new

    dfs(0, list(supported), [])
    return found


def build_complex(params: ZsfParams) -> SimplicialComplex:
    """Δ_{n,ℓ} via the NLC pipeline: minimal non-faces, then maximal avoiding sets.

    Raises CapacityError for n > 64 or when the facet count passes
    FACET_COUNT_CAP (degenerate near-independent instances such as ℓ = 2
    with large even n have exponentially many facets).
    """
    n = params.n
    if n > BUILD_CAP:
        raise CapacityError(f"build_complex supports n ≤ {BUILD_CAP}, got {n}")
    mnf = minimal_nonfaces(params)
    killed = {next(iter(s)) for s in mnf if len(s) == 1}
    supported = [v for v in range(1, n) if v not in killed]
    edges = [_mask_of(s) for s in mnf if len(s) >= 2]
    if not supported:
        return SimplicialComplex(range(n), [frozenset()])
    facets = _maximal_nonface_free(supported, edges)
    return SimplicialComplex(range(n), [frozenset(_vertices_of(m)) for m in facets])


def brute_force_complex(params: ZsfParams) -> SimplicialComplex:
    """Δ_{n,ℓ} by scanning every subset with the face test (oracle, n ≤ 24).

    Vertex 0 is in no face (ℓ copies of 0 sum to 0), so the table covers the
    2^{n-1} subsets of 1..n-1, bit j standing for vertex j+1, and holds the
    reach layers of `is_face` as residue masks.  A sum of t elements of
    T = S ∪ {v}, v its top vertex, avoids v or is v plus a sum of t-1
    elements of T: R_t(T) = R_t(S) | rot(R_{t-1}(T), v).  The subsets with
    top vertex v form one contiguous block right after the block of their S,
    so sweeping v upward updates a layer in place with slice operations:
    O(ℓ·2^{n-1}) work in all.  A face is maximal when no one-larger set is
    a face; strided views pair each subset without v with its partner.
    """
    import numpy as np

    n, ell = params.n, params.ell
    if n > BRUTE_FORCE_CAP:
        raise CapacityError(f"brute_force_complex supports n ≤ {BRUTE_FORCE_CAP}, got {n}")
    size = 1 << (n - 1)
    reach = np.ones(size, dtype=np.uint32)  # R_0 = {0} for every subset
    spare = np.empty(size // 2, dtype=np.uint32)
    full = (1 << n) - 1
    for _ in range(ell):
        reach[0] = 0  # the empty set has no sums of t ≥ 1 elements
        for v in range(1, n):
            lo = 1 << (v - 1)
            block, rot = reach[lo:2 * lo], spare[:lo]
            np.left_shift(block, v, out=rot)
            np.right_shift(block, n - v, out=block)
            np.bitwise_or(block, rot, out=block)
            np.bitwise_and(block, full, out=block)
            np.bitwise_or(block, reach[:lo], out=block)
    face = np.bitwise_and(reach, 1, out=reach) == 0
    del reach, spare  # only the face bits are needed from here
    maximal = face.copy()
    for j in range(n - 1):
        pairs = (-1, 2, 1 << j)
        maximal.reshape(pairs)[:, 0, :] &= ~face.reshape(pairs)[:, 1, :]
    facets = [frozenset(_vertices_of(int(i) << 1)) for i in np.flatnonzero(maximal)]
    return SimplicialComplex(range(n), facets)
