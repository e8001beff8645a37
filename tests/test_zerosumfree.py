"""The two Δ_{n,ℓ} constructions and their face oracle."""

from __future__ import annotations

import itertools
import math

import pytest

import zsumfree.zerosumfree as zsf
from conftest import decoded
from zsumfree.complexes import (
    CapacityError,
    _mask_of,
    _vertices_of,
    faces_by_dimension,
    minimal_nonfaces_of_complex,
)
from zsumfree.zerosumfree import (
    ZsfParams,
    brute_force_complex,
    build_complex,
    enumerate_nlc,
    is_face,
    minimal_nonfaces,
)


def fs(*xs):
    return frozenset(xs)


def multiset_is_face(n: int, ell: int, members) -> bool:
    """Oracle: try literally every ℓ-multiset over the members."""
    for combo in itertools.combinations_with_replacement(sorted(members), ell):
        if sum(combo) % n == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# face oracle


def test_is_face_examples():
    p = ZsfParams(6, 3)
    assert is_face(p, {1, 3, 5})
    assert not is_face(p, {0})
    assert not is_face(p, {2})
    p = ZsfParams(9, 8)
    assert not is_face(p, {3, 6})
    assert is_face(p, {3})


def test_is_face_rejects_out_of_range_members():
    try:
        is_face(ZsfParams(6, 3), {7})
    except ValueError:
        return
    raise AssertionError("accepted a member outside 0..n-1")


def test_is_face_rejects_non_int_members():
    for members in ([1.5], [1.0], [True], ["1"], [2, 3.0], [1, True]):
        with pytest.raises(ValueError, match="must be ints"):
            is_face(ZsfParams(6, 3), members)
    for members in (5, [[1]]):  # not iterable; an unhashable member
        with pytest.raises(ValueError, match="members must be an iterable of residues"):
            is_face(ZsfParams(6, 3), members)


def test_is_face_matches_multiset_oracle():
    for n in range(2, 10):
        for ell in range(1, n):
            vertices = list(range(n))
            for r in range(0, min(n, 4) + 1):
                for combo in itertools.combinations(vertices, r):
                    expected = multiset_is_face(n, ell, combo)
                    assert is_face(ZsfParams(n, ell), combo) == expected, (n, ell, combo)


def test_empty_set_is_always_a_face():
    for n in range(2, 12):
        for ell in range(1, n):
            assert is_face(ZsfParams(n, ell), ())


def test_params_validation():
    for n, ell in [(1, 1), (0, 0), (5, 0), (5, 5), (5, 7), (6, -1)]:
        with pytest.raises(ValueError):
            ZsfParams(n, ell)


def test_params_reject_non_int():
    for n, ell in [(12.5, 6), (12, 6.0), ("12", 6), (12, None), (True, 1), (12, True)]:
        with pytest.raises(ValueError, match="must be an int"):
            ZsfParams(n, ell)


# ---------------------------------------------------------------------------
# NLC pipeline


def test_enumerate_nlc_6_3_exact():
    expected = {
        fs(0), fs(2), fs(4), fs(4, 1), fs(3, 0), fs(3, 2, 1),
        fs(5, 4, 3), fs(5, 2), fs(5, 1, 0), fs(4, 2, 0),
    }
    assert set(enumerate_nlc(ZsfParams(6, 3))) == expected


def test_enumerate_nlc_ell_1_and_4_2():
    for n in range(2, 9):
        assert enumerate_nlc(ZsfParams(n, 1)) == [fs(0)]
    got = set(enumerate_nlc(ZsfParams(4, 2)))
    assert {fs(0), fs(2), fs(3, 1)} <= got


def test_minimal_nonfaces_examples():
    assert set(decoded(minimal_nonfaces(ZsfParams(6, 3)))) == {fs(0), fs(2), fs(4)}
    assert set(decoded(minimal_nonfaces(ZsfParams(4, 2)))) == {fs(0), fs(2), fs(1, 3)}
    for n in range(2, 9):
        assert decoded(minimal_nonfaces(ZsfParams(n, 1))) == [fs(0)]


def test_minimal_nonfaces_equal_minimalized_nlc():
    for n in range(2, 13):
        for ell in range(1, n):
            sets = enumerate_nlc(ZsfParams(n, ell))
            minimal = {s for s in sets if not any(t < s for t in sets)}
            assert set(decoded(minimal_nonfaces(ZsfParams(n, ell)))) == minimal, (n, ell)


def test_walk_matches_nonfaces_of_built_complex_at_high_ell():
    # the high-ℓ region of the cold benchmark workload, n ≤ 24
    for n in range(20, 25):
        for ell in ((n + 1) // 2 + 1, n - 2):
            p = ZsfParams(n, ell)
            # both are masks in one order, so they compare as lists
            assert minimal_nonfaces(p) == minimal_nonfaces_of_complex(build_complex(p)), (n, ell)


def test_walk_matches_nonfaces_of_oracle_complex():
    # the oracle's facets dualized: no partition walk on this side
    for n in range(13, 21):
        for ell in range(1, n):
            p = ZsfParams(n, ell)
            assert minimal_nonfaces(p) == minimal_nonfaces_of_complex(brute_force_complex(p)), (n, ell)


def test_minimal_nonfaces_are_nonfaces_with_face_proper_subsets():
    for n in range(2, 13):
        for ell in range(1, n):
            p = ZsfParams(n, ell)
            for s in decoded(minimal_nonfaces(p)):
                assert len(s) <= ell, (n, ell, s)
                assert not is_face(p, s), (n, ell, s)
                for v in s:
                    assert is_face(p, s - {v}), (n, ell, s, v)


# ---------------------------------------------------------------------------
# complexes


def test_build_complex_known_figures():
    assert set(build_complex(ZsfParams(6, 3)).facets) == {fs(1, 3, 5)}
    assert set(build_complex(ZsfParams(12, 6)).facets) == {fs(1, 5, 9), fs(3, 7, 11)}
    assert set(build_complex(ZsfParams(9, 8)).facets) == {
        fs(1, 4, 7), fs(2, 5, 8), fs(3), fs(6),
    }
    assert set(build_complex(ZsfParams(24, 12)).facets) == {
        fs(1, 9, 17), fs(3, 11, 19), fs(5, 13, 21), fs(7, 15, 23),
    }


def test_brute_force_examples():
    c = brute_force_complex(ZsfParams(12, 9))
    assert sorted(len(f) for f in c.facets) == [3, 6]
    assert set(brute_force_complex(ZsfParams(4, 2)).facets) == {fs(1), fs(3)}


def test_oracle_equivalence_small_sweep():
    for n in range(2, 13):
        for ell in range(1, n):
            p = ZsfParams(n, ell)
            assert set(build_complex(p).facets) == set(brute_force_complex(p).facets), (n, ell)


# past the full sweep: both ends of n = 23 and 24, the middle of n = 24, and
# Δ_{24,2}, whose 2048 facets exercise the oracle's facet decoder
PAST_N22 = [(23, 2), (23, 22), (24, 2), (24, 12), (24, 23)]


def test_oracle_equivalence_n13_to_n22():
    for n, ell in [(n, ell) for n in range(13, 23) for ell in range(1, n)] + PAST_N22:
        p = ZsfParams(n, ell)
        assert set(build_complex(p).facets) == set(brute_force_complex(p).facets), (n, ell)


def test_oracle_matches_its_definition():
    # plain 2^n enumeration: the maximal subsets of range(n) that pass is_face
    for n in range(2, 13):
        for ell in range(1, n):
            p = ZsfParams(n, ell)
            faces = {m for m in range(1 << n) if is_face(p, [v for v in range(n) if m >> v & 1])}
            maximal = {
                frozenset(v for v in range(n) if m >> v & 1)
                for m in faces
                if all(m | 1 << v not in faces for v in range(n) if not m >> v & 1)
            }
            assert set(brute_force_complex(p).facets) == maximal, (n, ell)


def test_units_of_zn_map_the_complex_onto_itself():
    # u·s ≡ 0 iff s ≡ 0 for a unit u, so x -> u·x permutes faces and non-faces
    for n in range(2, 25):
        for ell in sorted({2, (n + 1) // 2, (n + 1) // 2 + 1, n - 1} & set(range(1, n))):
            p = ZsfParams(n, ell)
            mnf = set(decoded(minimal_nonfaces(p)))
            facets = set(build_complex(p).facets)
            for u in range(2, n):
                if math.gcd(u, n) != 1:
                    continue
                assert {frozenset(u * x % n for x in s) for s in mnf} == mnf, (n, ell, u)
                assert {frozenset(u * x % n for x in f) for f in facets} == facets, (n, ell, u)


def test_facets_are_downward_closed_and_maximal():
    for n, ell in [(6, 3), (9, 8), (12, 6), (12, 9), (11, 5), (14, 13), (10, 7)]:
        p = ZsfParams(n, ell)
        for facet in build_complex(p).facets:
            assert is_face(p, facet)
            for v in facet:
                assert is_face(p, facet - {v})
            for v in set(range(n)) - facet:
                assert not is_face(p, facet | {v}), (n, ell, facet, v)


def test_vertex_zero_is_never_supported():
    for n in range(2, 15):
        for ell in range(1, n):
            c = build_complex(ZsfParams(n, ell))
            assert 0 not in c.supported_vertices()


def test_half_modulus_supports_odd_residues():
    for ell in range(1, 13):
        c = build_complex(ZsfParams(2 * ell, ell))
        assert c.supported_vertices() == frozenset(range(1, 2 * ell, 2))


def test_capacity_caps():
    with pytest.raises(CapacityError):
        build_complex(ZsfParams(65, 3))
    with pytest.raises(CapacityError):
        brute_force_complex(ZsfParams(25, 3))


def test_facet_count_cap(monkeypatch):
    monkeypatch.setattr(zsf, "FACET_COUNT_CAP", 3)
    with pytest.raises(CapacityError):
        build_complex(ZsfParams(9, 8))  # has four facets
    monkeypatch.setattr(zsf, "FACET_COUNT_CAP", 4)
    assert len(build_complex(ZsfParams(9, 8)).facets) == 4
    monkeypatch.setattr(zsf, "FACET_COUNT_CAP", 1023)
    with pytest.raises(CapacityError, match="more than 1023 facets"):
        build_complex(ZsfParams(22, 2))  # has 1024 facets
    monkeypatch.setattr(zsf, "FACET_COUNT_CAP", 1024)
    assert len(build_complex(ZsfParams(22, 2)).facets) == 1024
    # 786 facets in several unit orbits: the cap counts whole orbits
    monkeypatch.setattr(zsf, "FACET_COUNT_CAP", 785)
    with pytest.raises(CapacityError, match="more than 785 facets"):
        build_complex(ZsfParams(22, 3))
    monkeypatch.setattr(zsf, "FACET_COUNT_CAP", 786)
    assert len(build_complex(ZsfParams(22, 3)).facets) == 786


def test_facets_past_the_oracle_are_maximal_faces_closed_under_units():
    # 23 ≤ n ≤ 26 lies past the brute-force oracle; check the facets directly.
    # A unit maps faces to faces, so one maximality check per orbit suffices.
    for n in range(23, 27):
        units = [u for u in range(2, n) if math.gcd(u, n) == 1]
        for ell in range(1, n):
            p = ZsfParams(n, ell)
            c = build_complex(p)
            facets = set(c.facets)
            supported = c.supported_vertices()
            seen: set[frozenset] = set()
            for facet in facets:
                if facet in seen:
                    continue
                orbit = {facet} | {frozenset(u * x % n for x in facet) for u in units}
                assert orbit <= facets, (n, ell, facet)
                seen |= orbit
                assert is_face(p, facet), (n, ell, facet)
                for v in supported - facet:
                    assert not is_face(p, facet | {v}), (n, ell, facet, v)


def test_packed_unit_images_at_their_widest(monkeypatch):
    # A prime n has n - 2 units u ≠ 1, so the packed images of the walk and
    # the facet search carry the most fields.  Δ_{29,3} and Δ_{31,3} have
    # 4561 and 7935 facets, more than the default cap of 4096.
    monkeypatch.setattr(zsf, "FACET_COUNT_CAP", 10_000)
    for n in (29, 31):
        units = range(2, n)
        for ell in (3, (n + 1) // 2, n - 2):
            p = ZsfParams(n, ell)
            mnf = set(decoded(minimal_nonfaces(p)))
            facets = set(build_complex(p).facets)
            for s in mnf:
                assert not is_face(p, s), (n, ell, s)
                assert all(is_face(p, s - {v}) for v in s), (n, ell, s)
            for family in (mnf, facets):
                seen: set[frozenset] = set()
                for s in family:
                    if s in seen:
                        continue
                    orbit = {s} | {frozenset(u * x % n for x in s) for u in units}
                    assert orbit <= family, (n, ell, s)
                    seen |= orbit
                    if family is facets:  # one maximality check per orbit
                        assert is_face(p, s), (n, ell, s)
                        assert not any(is_face(p, s | {v}) for v in range(1, n) if v not in s), (n, ell, s)


@pytest.mark.parametrize("n, ell", [(61, 60), (64, 3), (36, 35), (33, 32)])
def test_packed_reach_layers_at_their_widest(n, ell):
    # The walk packs ℓ + 1 reach layers of 2n bits in one int: Δ_{61,60}
    # has 61 fields of 122 bits and Δ_{64,3} the widest field.
    p = ZsfParams(n, ell)
    mnf = minimal_nonfaces(p)
    assert mnf == sorted(mnf, key=lambda m: (m.bit_count(), _vertices_of(m))), (n, ell)
    found = set(mnf)
    assert len(found) == len(mnf), (n, ell)
    units = [u for u in range(2, n) if math.gcd(u, n) == 1]
    for s in decoded(mnf):
        assert not is_face(p, s), (n, ell, s)
        assert all(is_face(p, s - {v}) for v in s), (n, ell, s)
        assert all(_mask_of(u * x % n for x in s) in found for u in units), (n, ell, s)


# ---------------------------------------------------------------------------
# f-vector from the minimal non-faces


def test_unit_table_is_built_once_per_n_and_immutable():
    table = zsf._unit_table(24)
    assert zsf._unit_table(24) is table
    img, self_bits, _, offsets = table
    assert type(img) is tuple and type(self_bits) is tuple
    assert len(img) == len(self_bits) == 24 and len(offsets) == 7  # units 5, 7, ..., 23


def test_f_vector_matches_the_recursion_up_to_n24():
    # `None` forces the orbit count where the selection would fall back
    for n in range(2, 25):
        for ell in range(1, n):
            p = ZsfParams(n, ell)
            c = build_complex(p)
            mnf = minimal_nonfaces(p)
            f = faces_by_dimension(c)
            assert zsf._f_vector(p, mnf, c) == f, (n, ell)
            assert zsf._f_vector(p, mnf, None) == f, (n, ell)


def test_f_vector_matches_the_recursion_past_the_oracle(monkeypatch):
    # every uncapped Δ_{n,ℓ} with 25 ≤ n ≤ 32 and ℓ ≤ 8 (about 3 s), where both
    # sides of the selection occur: the orbit count on Δ_{28,3}, the
    # recursion on Δ_{32,7}; larger ℓ would add mostly walk time
    fell_back = []

    def recursion(c):
        fell_back.append(c)
        return faces_by_dimension(c)

    monkeypatch.setattr(zsf, "faces_by_dimension", recursion)
    for n in range(25, 33):
        for ell in range(1, 9):
            p = ZsfParams(n, ell)
            try:
                c = build_complex(p)
            except CapacityError:
                continue
            fell_back.clear()
            assert zsf._f_vector(p, minimal_nonfaces(p), c) == faces_by_dimension(c), (n, ell)
            if (n, ell) in ((28, 3), (32, 7)):
                assert fell_back == ([c] if ell == 7 else []), (n, ell)


def test_f_vector_closed_forms_past_the_facet_cap(monkeypatch):
    # Δ_{n,1} is the simplex on 1..n-1 and Δ_{n,2} the join of the pairs
    # {a, -a}: the non-faces alone give them, with no complex and no orbit
    # search (so no unit table), up to n = 64
    cases = [(ZsfParams(n, ell), minimal_nonfaces(ZsfParams(n, ell))) for n in range(3, 65) for ell in (1, 2)]
    monkeypatch.setattr(zsf, "_unit_table", None)
    for p, mnf in cases:
        if p.ell == 1:
            expected = [math.comb(p.n - 1, k) for k in range(p.n)]
        else:
            pairs = (p.n - 1) // 2
            expected = [math.comb(pairs, k) << k for k in range(pairs + 1)]
        assert zsf._f_vector(p, mnf, None) == expected, (p.n, p.ell)


@pytest.mark.parametrize("n", [24, 29, 30, 31])
def test_orbit_weights_with_nontrivial_stabilizers(n):
    # At odd ℓ the face {1, n-1} is fixed by the unit -1, so the orbit count
    # weighs faces with non-trivial stabilizers (the empty face aside).
    for ell in (5, 7, 9, 13):
        p = ZsfParams(n, ell)
        c = build_complex(p)
        assert is_face(p, {1, n - 1}), (n, ell)
        assert zsf._f_vector(p, minimal_nonfaces(p), None) == faces_by_dimension(c), (n, ell)
