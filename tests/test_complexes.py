"""Complex representation, f/h-vectors, duality, decomposition."""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import corpus_complexes, decoded, explicit_disjoint_union, fs, hand_fixtures
from zsumfree.complexes import (
    SimplicialComplex,
    _mask_of,
    _sorted_sets,
    _vertices_of,
    alexander_dual,
    decompose_disjoint_simplices,
    f_to_h,
    f_vector_disjoint_simplices,
    faces_by_dimension,
    h_vector_disjoint_simplices,
    is_connected,
    is_pure,
    isolated_vertices,
    minimal_nonfaces_of_complex,
)
from zsumfree.partitions import binomial, enumerate_partitions
from zsumfree.zerosumfree import ZsfParams, build_complex, is_face


def brute_faces(c: SimplicialComplex) -> set[frozenset]:
    """Every subset of ground that lies in some facet (oracle, ground ≤ 16)."""
    ground = sorted(c.ground)
    out = set()
    for r in range(len(ground) + 1):
        for combo in itertools.combinations(ground, r):
            s = frozenset(combo)
            if any(s <= f for f in c.facets):
                out.add(s)
    return out


# ---------------------------------------------------------------------------
# construction


def test_mask_and_vertex_constructors_agree():
    # `build_complex` and `brute_force_complex` take the mask route; the
    # public constructor takes vertex sets.  Both must store one complex.
    for n in range(2, 17):
        ground = (1 << n) - 1
        for ell in range(1, n):
            masks = build_complex(ZsfParams(n, ell))._facet_masks[::-1]
            by_mask = SimplicialComplex.from_masks(ground, masks)
            by_set = SimplicialComplex(range(n), [frozenset(_vertices_of(m)) for m in masks])
            assert by_mask.facets == by_set.facets == tuple(sorted(by_set.facets, key=sorted)), (n, ell)
            assert by_mask._facet_masks == by_set._facet_masks, (n, ell)
            assert by_mask == by_set and hash(by_mask) == hash(by_set), (n, ell)
            assert by_mask.dim() == by_set.dim() == max(map(len, by_set.facets)) - 1, (n, ell)
            assert is_pure(by_mask) == is_pure(by_set), (n, ell)


def test_mask_route_refuses_what_the_vertex_route_refuses():
    cases = [
        ((0b110, [0b10, 0b10]), ([1, 2], [fs(1), fs(1)])),               # duplicate facets
        ((0b110, [0b10, 0b110]), ([1, 2], [fs(1), fs(1, 2)])),           # comparable facets
        ((0b110, [0, 0b10]), ([1, 2], [fs(), fs(1)])),                   # empty facet beside another
        ((0b110, [0b1000]), ([1, 2], [fs(3)])),                          # facet outside the ground set
        ((1 << 70, [1 << 70]), ([70], [fs(70)])),                        # vertex above 63
        (((1 << 64) - 1, [1 << 64]), (range(64), [fs(64)])),             # facet vertex 64
        ((0b10, []), ([1], [])),                                         # no facets at all
        ((0b110, [-2]), ([1, 2], [fs(-1)])),                             # negative mask / vertex
        ((0b110, [True]), ([1, 2], [fs(True)])),                         # bool
        ((0b110, [2.0]), ([1, 2], [fs(1.0)])),                           # float
    ]
    for (ground, masks), (vertices, facets) in cases:
        with pytest.raises(ValueError):
            SimplicialComplex.from_masks(ground, masks)
        with pytest.raises(ValueError):
            SimplicialComplex(vertices, facets)


@pytest.mark.parametrize("facets", [3, None], ids=["int", "none"])
def test_from_masks_refuses_a_facet_list_that_is_not_iterable(facets):
    with pytest.raises(ValueError, match="facets must be an iterable of masks"):
        SimplicialComplex.from_masks(0b111, facets)


def test_facet_masks_follow_the_facet_order():
    for c in corpus_complexes():
        assert len(c._facet_masks) == len(c.facets)
        for i, f in enumerate(c.facets):
            assert c._facet_masks[i] == _mask_of(f)
        assert list(c.facets) == sorted(c.facets, key=sorted)


@pytest.mark.parametrize(
    "ground, facets, message",
    [
        ([1, 2], [fs(70)], "vertices must be integers in 0..63"),  # outside 0..63 and the ground set
        ([1, 2], [fs(-1)], "vertices must be integers in 0..63"),
        (range(64), [fs(64)], "vertices must be integers in 0..63"),
        ([70], [fs(1.5)], "vertices must be ints, got float"),     # the type fault comes first
    ],
)
def test_constructor_messages(ground, facets, message):
    with pytest.raises(ValueError) as exc:
        SimplicialComplex(ground, facets)
    assert str(exc.value) == message


def test_constructor_validation():
    for bad_call in [
        lambda: SimplicialComplex([1, 2], [fs(3)]),          # facet outside ground
        lambda: SimplicialComplex([1, 2], [fs(1), fs(1, 2)]),  # comparable facets
        lambda: SimplicialComplex([70], [fs(70)]),           # vertex above 63
        lambda: SimplicialComplex([1], []),                  # no facets at all
        lambda: SimplicialComplex([-1, 2], [fs(2)]),         # negative vertex
        lambda: SimplicialComplex(range(8), [fs(2, 5), fs(1, 3), fs(6, 7), fs(1, 2, 5)]),  # nested, not adjacent
        lambda: SimplicialComplex([1, 2], [fs(), fs(1)]),    # empty facet beside a non-empty one
        lambda: SimplicialComplex(range(4), [fs(1.7)]),      # float vertex
        lambda: SimplicialComplex(range(4), [fs(1.0)]),      # float vertex equal to an int
        lambda: SimplicialComplex(range(4), [fs(True)]),     # bool vertex
        lambda: SimplicialComplex(range(4), [fs("1")]),      # str vertex
        lambda: SimplicialComplex([0, 1.0], [fs(0)]),        # float in the ground set
        lambda: SimplicialComplex(range(3), [[1, True]]),    # bool beside the int it equals
        lambda: SimplicialComplex([0, False, 1], [[0, 1]]),  # likewise in the ground set
        lambda: SimplicialComplex(range(3), 5),              # facets not iterable
        lambda: SimplicialComplex(range(3), [[[]]]),         # an unhashable vertex
        lambda: SimplicialComplex(3, [fs(0)]),               # ground not iterable
    ]:
        try:
            bad_call()
        except ValueError:
            continue
        raise AssertionError("constructor accepted invalid input")
    # the holder table spans more than 64 facets and reaches vertex 63
    pairs = [fs(i, j) for i in range(12) for j in range(i + 1, 12)]
    assert len(SimplicialComplex(range(15), pairs + [fs(12, 13, 14)]).facets) == 67
    for ground, facets in [
        (range(12), pairs + [fs(9, 10, 11)]),              # 67 facets, three pairs inside the triple
        (range(64), [fs(1, 63), fs(1, 2, 63), fs(5, 6)]),  # {1, 63} inside {1, 2, 63}
    ]:
        with pytest.raises(ValueError, match="facets must be pairwise inclusion-incomparable"):
            SimplicialComplex(ground, facets)


# ---------------------------------------------------------------------------
# f- and h-vectors


CONE = SimplicialComplex(range(6), [fs(0, 1, 2), fs(0, 3), fs(0, 4, 5)])  # every facet holds 0


def count_by_size(faces) -> list[int]:
    counts = [0] * (max(len(s) for s in faces) + 1)
    for s in faces:
        counts[len(s)] += 1
    return counts


@pytest.mark.parametrize(
    "vector, parts, message",
    [
        (h_vector_disjoint_simplices, [2.7, 1], "part 0 must be an int, got 2.7"),
        (h_vector_disjoint_simplices, [2, True], "part 1 must be an int, got True"),
        (f_vector_disjoint_simplices, ["3"], "part 0 must be an int, got '3'"),
        (f_vector_disjoint_simplices, [3.0, 1], "part 0 must be an int, got 3.0"),
        (f_vector_disjoint_simplices, None, "a partition must be an iterable of ints, got NoneType"),
        (h_vector_disjoint_simplices, 5, "a partition must be an iterable of ints, got int"),
        (f_to_h, [1, 2.5], "f-vector entries must be ints, got float"),
        (f_to_h, [1, "a"], "f-vector entries must be ints, got str"),
        (f_to_h, 5, "an f-vector must be an iterable of ints, got int"),
    ],
)
def test_disjoint_simplex_vectors_refuse_non_int_parts(vector, parts, message):
    with pytest.raises(ValueError) as exc:
        vector(parts)
    assert str(exc.value) == message


def test_faces_by_dimension_examples():
    assert faces_by_dimension(SimplicialComplex([1, 3, 5], [fs(1, 3, 5)])) == [1, 3, 3, 1]
    two = SimplicialComplex(range(12), [fs(1, 5, 9), fs(3, 7, 11)])
    assert faces_by_dimension(two) == [1, 6, 6, 2]
    assert faces_by_dimension(SimplicialComplex([0], [fs()])) == [1]
    assert faces_by_dimension(CONE) == [1, 6, 7, 2]


def test_f_vector_matches_brute_faces():
    void = SimplicialComplex(range(5), [fs()])
    for c in [*corpus_complexes(), CONE, void]:
        assert faces_by_dimension(c) == count_by_size(brute_faces(c)), c.facets


def test_f_vector_matches_face_test():
    # f-vector of the built complex against every subset of 1..n-1 passing is_face
    for n in range(2, 14):
        for ell in range(1, n):
            p = ZsfParams(n, ell)
            faces = [
                combo
                for r in range(n)
                for combo in itertools.combinations(range(1, n), r)
                if is_face(p, combo)
            ]
            assert faces_by_dimension(build_complex(p)) == count_by_size(faces), (n, ell)


def test_f_vector_closed_forms_past_the_face_test_sweep():
    # Δ_{n,2} holds at most one of each pair {v, -v} (and never 0 or n/2):
    # a join of ⌊(n-1)/2⌋ 0-spheres, f = (1 + 2x)^⌊(n-1)/2⌋.  Δ_{n,1} is the
    # simplex on 1..n-1, f = (1 + x)^(n-1).
    for n in range(3, 27):
        m = (n - 1) // 2
        assert faces_by_dimension(build_complex(ZsfParams(n, 2))) == [binomial(m, k) * 2**k for k in range(m + 1)], n
        assert faces_by_dimension(build_complex(ZsfParams(n, 1))) == [binomial(n - 1, k) for k in range(n)], n


def test_f0_counts_supported_vertices():
    for c in corpus_complexes():
        f = faces_by_dimension(c)
        if c.dim() >= 0:
            assert f[1] == len(c.supported_vertices())
        else:
            assert f == [1]


def test_f_to_h_examples():
    assert f_to_h([1, 6, 6, 2]) == [1, 3, -3, 1]
    assert f_to_h([1, 3, 3, 1]) == [1, 0, 0, 0]
    assert f_to_h([1, 4, 3, 1]) == [1, 1, -2, 1]


def test_f_to_h_rejects_malformed():
    for bad in [[], [2, 1], [0]]:
        try:
            f_to_h(bad)
        except ValueError:
            continue
        raise AssertionError(f"accepted {bad}")


def test_h_sum_equals_last_f_entry():
    for c in corpus_complexes():
        f = faces_by_dimension(c)
        assert sum(f_to_h(f)) == f[-1]


def test_disjoint_simplices_f_examples():
    assert f_vector_disjoint_simplices((3, 3)) == [1, 6, 6, 2]
    assert f_vector_disjoint_simplices((1,)) == [1, 1]
    assert f_vector_disjoint_simplices((3, 1)) == [1, 4, 3, 1]


def test_disjoint_simplices_h_examples():
    assert h_vector_disjoint_simplices((3, 1)) == [1, 1, -2, 1]
    assert h_vector_disjoint_simplices((3, 3)) == [1, 3, -3, 1]
    assert h_vector_disjoint_simplices((5,)) == [1, 0, 0, 0, 0, 0]


def test_disjoint_formulas_match_explicit_complexes():
    for total in range(1, 13):
        for lam in enumerate_partitions(total, 10, 10):
            c = explicit_disjoint_union(lam)
            f = faces_by_dimension(c)
            assert f_vector_disjoint_simplices(lam) == f, lam
            assert h_vector_disjoint_simplices(lam) == f_to_h(f), lam


def test_equal_parts_h_closed_form():
    # λ = (d+1)^α gives h_k = (-1)^{k+1} (α-1) C(d+1, k) for k ≥ 1
    for alpha in range(1, 9):
        for d in range(0, 9):
            lam = (d + 1,) * alpha
            h = h_vector_disjoint_simplices(lam)
            assert h[0] == 1
            for k in range(1, d + 2):
                assert h[k] == (-1) ** (k + 1) * (alpha - 1) * binomial(d + 1, k), (alpha, d, k)


# ---------------------------------------------------------------------------
# Alexander duality


def brute_dual(c: SimplicialComplex) -> set[frozenset]:
    """Maximal S with ground∖S not a face (oracle, ground ≤ 12)."""
    faces = brute_faces(c)
    ground = frozenset(c.ground)
    dual_faces = set()
    for r in range(len(ground) + 1):
        for combo in itertools.combinations(sorted(ground), r):
            s = frozenset(combo)
            if ground - s not in faces:
                dual_faces.add(s)
    return {s for s in dual_faces if not any(s < t for t in dual_faces)}


def test_alexander_dual_examples():
    c = SimplicialComplex([1, 2, 3], [fs(1, 2)])
    assert set(alexander_dual(c).facets) == {fs(1, 2)}
    c = SimplicialComplex([1], [fs()])
    assert set(alexander_dual(c).facets) == {fs()}


def test_alexander_dual_of_full_simplex_is_rejected():
    # the dual would be the empty family, which is not a complex
    try:
        alexander_dual(SimplicialComplex([0, 1], [fs(0, 1)]))
    except ValueError:
        return
    raise AssertionError("full simplex dual should be rejected")


def test_alexander_dual_matches_brute_force():
    for c in corpus_complexes():
        if len(c.ground) > 10:
            continue
        assert set(alexander_dual(c).facets) == brute_dual(c), c.facets


def test_alexander_dual_is_an_involution():
    for c in corpus_complexes():
        if len(c.ground) > 12:
            continue
        assert alexander_dual(alexander_dual(c)) == c, c.facets


# ---------------------------------------------------------------------------
# predicates and decomposition


def test_is_pure_examples():
    assert is_pure(SimplicialComplex(range(12), [fs(1, 5, 9), fs(3, 7, 11)]))
    assert not is_pure(SimplicialComplex(range(8), [fs(1, 4, 7), fs(3)]))
    assert is_pure(SimplicialComplex([0], [fs()]))


def test_is_connected_examples():
    assert is_connected(SimplicialComplex([1, 3, 5], [fs(1, 3, 5)]))
    assert not is_connected(SimplicialComplex(range(12), [fs(1, 5, 9), fs(3, 7, 11)]))
    assert is_connected(SimplicialComplex([0, 1], [fs()]))
    assert is_connected(SimplicialComplex(range(3), [fs(1)]))
    # chains of overlapping facets are connected
    assert is_connected(SimplicialComplex(range(5), [fs(0, 1), fs(1, 2), fs(2, 3, 4)]))


def skeleton_connected(c: SimplicialComplex) -> bool:
    """Connectivity by a graph search over the 1-skeleton (oracle)."""
    verts = set().union(*c.facets)
    if len(verts) <= 1:
        return True
    start = min(verts)
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for f in c.facets:
            if v in f:
                for w in f - seen:
                    seen.add(w)
                    stack.append(w)
    return seen == verts


def pairwise_disjoint(c: SimplicialComplex) -> bool:
    return all(not a & b for a, b in itertools.combinations(c.facets, 2))


def shuffled_corpus() -> list[SimplicialComplex]:
    """The corpus rebuilt from its facets passed in a shuffled order."""
    rng = random.Random(9)
    out = []
    for c in corpus_complexes():
        facets = list(c.facets)
        rng.shuffle(facets)
        out.append(SimplicialComplex(c.ground, facets))
    return out


def test_is_connected_matches_skeleton_search():
    for c in shuffled_corpus():
        assert is_connected(c) == skeleton_connected(c), c.facets


def test_is_connected_merges_components_through_a_later_facet():
    # {5,6} comes last in the facet order and joins {1,5} to {2,6}
    assert is_connected(SimplicialComplex(range(7), [fs(1, 5), fs(2, 6), fs(5, 6)]))
    assert is_connected(SimplicialComplex(range(7), [fs(5, 6), fs(2, 6), fs(1, 5)]))
    assert not is_connected(SimplicialComplex(range(4), [fs(1), fs(2, 3)]))


def test_decompose_matches_pairwise_check():
    for c in shuffled_corpus():
        parts = decompose_disjoint_simplices(c)
        if pairwise_disjoint(c):
            assert parts == tuple(sorted((len(f) for f in c.facets if f), reverse=True)), c.facets
        else:
            assert parts is None, c.facets
    # overlapping facets that are not adjacent in the facet order
    assert decompose_disjoint_simplices(SimplicialComplex(range(6), [fs(1, 5), fs(2), fs(3, 5)])) is None


def test_isolated_vertices_examples():
    c = SimplicialComplex(range(9), [fs(1, 4, 7), fs(2, 5, 8), fs(3), fs(6)])
    assert isolated_vertices(c) == [3, 6]
    assert isolated_vertices(SimplicialComplex([1, 3, 5], [fs(1, 3, 5)])) == []
    assert isolated_vertices(SimplicialComplex(range(6), [fs(2), fs(5)])) == [2, 5]


def test_decompose_examples():
    assert decompose_disjoint_simplices(build_complex(ZsfParams(12, 9))) == (6, 3)
    assert decompose_disjoint_simplices(build_complex(ZsfParams(9, 8))) == (3, 3, 1, 1)
    assert decompose_disjoint_simplices(
        SimplicialComplex(range(4), [fs(1, 2), fs(2, 3)])
    ) is None
    assert decompose_disjoint_simplices(SimplicialComplex([0], [fs()])) == ()


def test_minimal_nonfaces_of_complex_against_brute_force():
    for c in corpus_complexes():
        if len(c.ground) > 10:
            continue
        faces = brute_faces(c)
        ground = sorted(c.ground)
        nonfaces = [
            frozenset(combo)
            for r in range(len(ground) + 1)
            for combo in itertools.combinations(ground, r)
            if frozenset(combo) not in faces
        ]
        minimal = {s for s in nonfaces if not any(t < s for t in nonfaces)}
        assert set(decoded(minimal_nonfaces_of_complex(c))) == minimal, c.facets


def test_sorted_sets_is_by_size_then_vertex_tuple():
    rng = random.Random(23)
    for width in (1, 3, 8, 20, 40, 64):
        for _ in range(25):
            # the AND of two draws holds about a quarter of the bits, so sizes tie often
            ms = list({rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randint(0, 300))})
            assert _sorted_sets(ms) == sorted(ms, key=lambda m: (m.bit_count(), _vertices_of(m))), ms
