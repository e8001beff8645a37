"""Intersection posets, Möbius values, characteristic polynomials."""

from __future__ import annotations

import pytest

import zsumfree.arrangements as arr
from conftest import corpus_complexes
from zsumfree.arrangements import (
    IntersectionPoset,
    build_poset,
    disjoint_union_char_poly,
    verify_disjoint_union_char_poly,
)
from zsumfree.complexes import CapacityError, SimplicialComplex, decompose_disjoint_simplices
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


def test_closure_capacity_cap(monkeypatch):
    monkeypatch.setattr(arr, "POSET_ELEMENT_CAP", 3)
    with pytest.raises(CapacityError):
        build_poset(build_complex(ZsfParams(9, 8)))


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
        assert verify_disjoint_union_char_poly(c), c.facets


def test_disjoint_union_formula_values():
    c = build_complex(ZsfParams(9, 8))
    assert build_poset(c).char_poly == [3, -2, 0, -2, 0, 0, 0, 0, 1]
    assert verify_disjoint_union_char_poly(c)
    c = build_complex(ZsfParams(12, 9))
    assert build_poset(c).char_poly == [1, 0, 0, -1, 0, 0, -1, 0, 0, 1]
    assert verify_disjoint_union_char_poly(c)


def test_disjoint_union_formula_rejects_overlap():
    c = SimplicialComplex(range(4), [fs(1, 2), fs(2, 3)])
    with pytest.raises(ValueError):
        verify_disjoint_union_char_poly(c)


def test_disjoint_union_char_poly_closed_form():
    assert disjoint_union_char_poly(6, (3, 3)) == [1, 0, 0, -2, 0, 0, 1]
    assert disjoint_union_char_poly(8, (3, 3, 1, 1)) == [3, -2, 0, -2, 0, 0, 0, 0, 1]
    assert disjoint_union_char_poly(9, (6, 3)) == [1, 0, 0, -1, 0, 0, -1, 0, 0, 1]


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


def test_non_graded_fixture():
    c = SimplicialComplex(range(1, 7), [fs(1, 2, 3), fs(3, 4), fs(5, 6)])
    p = build_poset(c)
    assert (p.graded, p.rank) == (False, None)


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
    for c in poset_corpus():
        p = build_poset(c)
        size = len(p.mobius)
        if size > 60:  # the cubic reference below stays fast
            continue
        lt = [[strictly_below(p, i, j) for j in range(size)] for i in range(size)]
        expected = sorted(
            (i, j)
            for i in range(size)
            for j in range(size)
            if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(size))
        )
        assert [tuple(e) for e in p.to_json()["hasse"]] == expected, c.facets
