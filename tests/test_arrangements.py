"""Intersection posets, Möbius values, characteristic polynomials."""

from __future__ import annotations

from math import comb

import pytest

import zsumfree.arrangements as arr
from conftest import corpus_complexes, hand_fixtures
from zsumfree.arrangements import (
    IntersectionPoset,
    build_poset,
    disjoint_union_char_poly,
)
from zsumfree.complexes import (
    CapacityError,
    SimplicialComplex,
    decompose_disjoint_simplices,
    faces_by_dimension,
)
from zsumfree.zerosumfree import ZsfParams, build_complex


def fs(*xs):
    return frozenset(xs)


def poset_corpus():
    return [c for c in corpus_complexes() if c.dim() >= 0]


# ---------------------------------------------------------------------------
# structure


def test_two_disjoint_facets_poset():
    p = build_poset(build_complex(ZsfParams(12, 6)))
    supports = [p.element_support(i) for i in range(len(p.mobius))]
    assert supports == [None, (1, 5, 9), (3, 7, 11), ()]
    assert p.mobius == [1, -1, -1, 1]
    assert p.char_poly == [1, 0, 0, -2, 0, 0, 1]


def test_single_facet_poset_is_degenerate():
    p = build_poset(SimplicialComplex([1, 3, 5], [fs(1, 3, 5)]))
    assert p.degenerate
    assert p.mobius == [1, -1]
    assert p.char_poly == [0, 0, 0, 0]
    assert (p.graded, p.rank) == (True, 1)


def test_arms_and_odd_facet_poset_structure():
    p = build_poset(build_complex(ZsfParams(6, 5)))
    supports = {p.element_support(i) for i in range(1, len(p.mobius))}
    assert supports == {(1, 4), (2, 5), (1, 3, 5), (1,), (5,), ()}
    assert sorted(p.atoms()) == [(1, 3, 5), (1, 4), (2, 5)]
    assert (p.graded, p.rank) == (True, 3)
    mob = {p.element_support(i): p.mobius[i] for i in range(len(p.mobius))}
    assert mob[(1, 4)] == mob[(2, 5)] == mob[(1, 3, 5)] == -1
    assert mob[(1,)] == mob[(5,)] == 1
    assert mob[()] == 0
    assert p.char_poly == [0, 2, -2, -1, 0, 1]


def test_void_complex_is_rejected():
    with pytest.raises(ValueError):
        build_poset(SimplicialComplex([0, 1], [fs()]))


def test_poset_of_a_non_complex_is_rejected():
    for bad in (42, None, [fs(1, 2)]):
        with pytest.raises(ValueError):
            build_poset(bad)


def test_closure_capacity_cap(monkeypatch):
    monkeypatch.setattr(arr, "POSET_ELEMENT_CAP", 3)
    with pytest.raises(CapacityError):
        build_poset(build_complex(ZsfParams(9, 8)))


def test_closure_cap_admits_its_bound_and_refuses_one_more(monkeypatch):
    # the pairs the warm-cache benchmark runs `compute --arrangement` on
    pairs = [(n, ell) for n in range(8, 17) for ell in range(1, n) if n <= 12 or ell >= 6]
    complexes = [build_complex(ZsfParams(n, ell)) for n, ell in pairs]
    sizes = [len(build_poset(c).support_masks) for c in complexes]
    for c, size in zip(complexes, sizes):
        monkeypatch.setattr(arr, "POSET_ELEMENT_CAP", size)
        assert len(build_poset(c).support_masks) == size
        monkeypatch.setattr(arr, "POSET_ELEMENT_CAP", size - 1)
        with pytest.raises(CapacityError, match=rf"^intersection closure exceeds {size - 1} subspaces$"):
            build_poset(c)


def strictly_below(p, i, j) -> bool:
    """The poset's order from its definition: the ambient space (element 0)
    lies below every other element, and a support below its proper subsets."""
    if j == 0 or i == j:
        return False
    if i == 0:
        return True
    a, b = p.support_masks[i - 1], p.support_masks[j - 1]
    return a & b == b and a != b


def test_mobius_defining_relation_on_corpus():
    for c in poset_corpus():
        p = build_poset(c)
        size = len(p.mobius)
        for t in range(1, size):
            below = [z for z in range(size) if strictly_below(p, z, t)]
            assert p.mobius[t] + sum(p.mobius[z] for z in below) == 0, c.facets


def test_atoms_are_facet_supports():
    for c in poset_corpus():
        if len(c.facets) < 2:
            continue
        p = build_poset(c)
        assert sorted(p.atoms()) == sorted(tuple(sorted(f)) for f in c.facets), c.facets


# ---------------------------------------------------------------------------
# characteristic polynomials


def test_char_poly_examples():
    assert build_poset(build_complex(ZsfParams(12, 6))).char_poly == [
        1, 0, 0, -2, 0, 0, 1,
    ]
    assert build_poset(build_complex(ZsfParams(6, 3))).char_poly == [
        0, 0, 0, 0,
    ]
    # six disjoint arm edges: Möbius forces x^12 - 6x^2 + 5
    assert build_poset(build_complex(ZsfParams(14, 12))).char_poly == [
        5, 0, -6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
    ]


def test_disjoint_union_formula_on_disjoint_corpus():
    for c in poset_corpus():
        parts = decompose_disjoint_simplices(c)
        if parts is None:
            continue
        poset = build_poset(c)
        assert poset.char_poly == disjoint_union_char_poly(poset.n_vertices, parts), c.facets


def test_disjoint_union_formula_values():
    c = build_complex(ZsfParams(9, 8))
    assert decompose_disjoint_simplices(c) == (3, 3, 1, 1)
    assert build_poset(c).char_poly == [3, -2, 0, -2, 0, 0, 0, 0, 1] == disjoint_union_char_poly(8, (3, 3, 1, 1))
    c = build_complex(ZsfParams(12, 9))
    assert decompose_disjoint_simplices(c) == (6, 3)
    assert build_poset(c).char_poly == [1, 0, 0, -1, 0, 0, -1, 0, 0, 1] == disjoint_union_char_poly(9, (6, 3))


def test_disjoint_union_formula_rejects_overlap():
    c = SimplicialComplex(range(4), [fs(1, 2), fs(2, 3)])
    assert decompose_disjoint_simplices(c) is None
    # overlapping facets' sizes pass the supported vertex count, so the
    # closed form refuses them
    with pytest.raises(ValueError):
        disjoint_union_char_poly(len(c.supported_vertices()), [len(f) for f in c.facets])


def test_disjoint_union_char_poly_closed_form():
    assert disjoint_union_char_poly(6, (3, 3)) == [1, 0, 0, -2, 0, 0, 1]
    assert disjoint_union_char_poly(8, (3, 3, 1, 1)) == [3, -2, 0, -2, 0, 0, 0, 0, 1]
    assert disjoint_union_char_poly(9, (6, 3)) == [1, 0, 0, -1, 0, 0, -1, 0, 0, 1]


@pytest.mark.parametrize(
    "n_vertices, parts",
    [
        (3, (-1,)),      # a part below 1 would cancel x^3
        (3, (5,)),       # parts past |V|
        (-1, ()),
        (3, (1.5,)),     # a float part
        (True, (1,)),    # a bool is no int
        (3, (True, 2)),
        (3, (0, 3)),
        (6, (3, 2)),     # parts short of |V|
    ],
)
def test_disjoint_union_char_poly_refuses_bad_arguments(n_vertices, parts):
    with pytest.raises(ValueError):
        disjoint_union_char_poly(n_vertices, parts)


def f_vector_char_poly(c) -> list[int]:
    """χ(x) = x^|V| - Σ_k f_k (x-1)^k, with f_k the number of faces with k
    vertices and V the supported vertices (the crosscut theorem)."""
    size = len(c.supported_vertices())
    coeffs = [0] * (size + 1)
    coeffs[size] = 1
    for k, count in enumerate(faces_by_dimension(c)):
        for i in range(k + 1):
            coeffs[i] -= count * comb(k, i) * (-1) ** (k - i)
    return coeffs


def test_char_poly_matches_the_f_vector():
    complexes = [build_complex(ZsfParams(n, ell)) for n in range(2, 17) for ell in range(1, n)]
    complexes += [c for c in hand_fixtures() if c.dim() >= 0]
    built = 0
    for c in complexes:
        try:
            p = build_poset(c)
        except CapacityError:
            continue
        built += 1
        assert p.char_poly == f_vector_char_poly(c), c
    assert built == 115 + len(hand_fixtures()) - 1


def test_equal_size_parts_closed_form():
    # α facets of equal size δ+1: x^{α(δ+1)} - α x^{δ+1} + (α-1)
    for alpha in range(2, 6):
        for size in range(1, 5):
            got = disjoint_union_char_poly(alpha * size, (size,) * alpha)
            expected = [0] * (alpha * size + 1)
            expected[alpha * size] += 1
            expected[size] -= alpha
            expected[0] += alpha - 1
            assert got == expected, (alpha, size)


# ---------------------------------------------------------------------------
# rank and gradedness


def test_rank_examples():
    p = build_poset(build_complex(ZsfParams(12, 6)))
    assert (p.graded, p.rank) == (True, 2)
    p = build_poset(build_complex(ZsfParams(10, 9)))
    assert (p.graded, p.rank) == (True, 3)


NON_GRADED = SimplicialComplex(range(1, 7), [fs(1, 2, 3), fs(3, 4), fs(5, 6)])


def test_non_graded_fixture():
    p = build_poset(NON_GRADED)
    assert (p.graded, p.rank) == (False, None)


def test_grading_from_every_maximal_chain():
    """Graded means every maximal chain from element 0 has one length, the rank.

    The rank is read at the last element, the intersection of all facets, so
    that element must be the only one with no upper cover."""
    for c in poset_corpus() + [NON_GRADED]:
        p = build_poset(c)
        ups = [[] for _ in p.mobius]
        for i, j in p.covers:
            ups[i].append(j)
        assert [i for i, up in enumerate(ups) if not up] == [len(ups) - 1], c
        lengths = set()
        stack = [(0, 0)]
        while stack:
            i, length = stack.pop()
            if ups[i]:
                stack += [(j, length + 1) for j in ups[i]]
            else:
                lengths.add(length)
        graded = len(lengths) == 1
        assert (p.graded, p.rank) == (graded, min(lengths) if graded else None), c


def test_disjoint_union_posets_have_rank_two():
    for c in poset_corpus():
        parts = decompose_disjoint_simplices(c)
        if parts is None or len(parts) < 2:
            continue
        p = build_poset(c)
        assert (p.graded, p.rank) == (True, 2), c.facets


# ---------------------------------------------------------------------------
# serialization


def test_poset_json_schema_and_determinism():
    p = build_poset(build_complex(ZsfParams(12, 6)))
    blob = p.to_json()
    assert set(blob) == {"elements", "hasse", "graded", "rank", "char_poly"}
    assert blob["elements"][0] == {"support": "ambient", "dim": 6, "mobius": 1}
    assert blob["graded"] is True and blob["rank"] == 2
    assert blob["char_poly"] == [1, 0, 0, -2, 0, 0, 1]
    assert all(isinstance(e, list) and len(e) == 2 for e in blob["hasse"])
    assert blob == build_poset(build_complex(ZsfParams(12, 6))).to_json()


def test_hasse_edges_are_covers():
    """i ⋖ j iff i < j and no k has i < k < j: with the elements above i and
    the elements below j as bitsets from `strictly_below`, iff they are
    disjoint.  Quadratic, so it runs on every corpus poset."""
    for c in poset_corpus():
        p = build_poset(c)
        size = len(p.mobius)
        above = [0] * size
        below = [0] * size
        for i in range(size):
            for j in range(size):
                if strictly_below(p, i, j):
                    above[i] |= 1 << j
                    below[j] |= 1 << i
        expected = [
            (i, j)
            for i in range(size)
            for j in range(size)
            if above[i] >> j & 1 and not above[i] & below[j]
        ]
        assert [tuple(e) for e in p.to_json()["hasse"]] == expected, c.facets
