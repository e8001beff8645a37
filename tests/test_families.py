"""Closed-form facet families and their verification reports."""

from __future__ import annotations

import pytest

import zsumfree.arrangements as arrangements
from conftest import fs
from zsumfree.complexes import (
    CapacityError,
    SimplicialComplex,
    alexander_dual,
    decompose_disjoint_simplices,
    faces_by_dimension,
    is_connected,
    is_pure,
    isolated_vertices,
    minimal_nonfaces_of_complex,
)
from zsumfree.conjectures import scan_connectivity, scan_log_concavity
from zsumfree.families import (
    FamilySpec,
    closed_form_char_poly,
    expected_char_poly_discrepancies,
    expected_rank,
    family_facets,
    family_report_ok,
    is_prime,
    verify_family,
)
from zsumfree.zerosumfree import (
    ZsfParams,
    brute_force_complex,
    build_complex,
    enumerate_nlc,
    is_face,
    minimal_nonfaces,
)


# ---------------------------------------------------------------------------
# family specs


def test_is_prime():
    primes = [x for x in range(60) if is_prime(x)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_spec_parameters():
    d = FamilySpec.doubling(3, 1)
    assert (d.n, d.ell) == (12, 6)
    assert d.to_json() == {"kind": "doubling", "rho": 3, "m": 1}
    q = FamilySpec.prime_power(3, 2)
    assert (q.n, q.ell) == (9, 8)
    assert q.to_json() == {"kind": "prime-power", "p": 3, "e": 2}
    a = FamilySpec.arms_legs(5, 3)
    assert (a.n, a.ell) == (10, 7)
    assert a.to_json() == {"kind": "arms-legs", "p": 5, "s": 3}
    assert (d, q, a) == tuple(FamilySpec(**spec.to_json()) for spec in (d, q, a))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"kind": "doubling", "rho": 3}, "m must be an int, got None"),
        ({"kind": "bogus"}, "kind must be one of doubling, prime-power, arms-legs, got 'bogus'"),
        ({"kind": "prime-power", "p": 4, "e": 1}, "p must be prime, got 4"),
        ({"kind": "doubling", "rho": 3, "m": 0, "p": 5}, "family 'doubling' takes no p"),
    ],
    ids=["missing-field", "unknown-kind", "not-prime", "stray-field"],
)
def test_constructor_refuses_what_the_classmethods_refuse(fields, message):
    with pytest.raises(ValueError) as exc:
        FamilySpec(**fields)
    assert str(exc.value) == message


def test_spec_validation():
    for bad in [
        lambda: FamilySpec.doubling(4, 1),
        lambda: FamilySpec.doubling(-3, 1),
        lambda: FamilySpec.doubling(3, -1),
        lambda: FamilySpec.prime_power(6, 1),
        lambda: FamilySpec.prime_power(3, 0),
        lambda: FamilySpec.arms_legs(2, 1),
        lambda: FamilySpec.arms_legs(9, 1),
        lambda: FamilySpec.arms_legs(5, 4),
        lambda: FamilySpec.arms_legs(3, 3),
    ]:
        with pytest.raises(ValueError):
            bad()


@pytest.mark.parametrize(
    "call",
    [
        lambda: FamilySpec.doubling(True, 0),
        lambda: FamilySpec.doubling("3", 0),
        lambda: FamilySpec.prime_power(3, 2.0),
        lambda: FamilySpec.arms_legs(5, True),
        lambda: scan_connectivity("5"),
        lambda: scan_connectivity(2.5),
        lambda: scan_log_concavity(None),
    ],
    ids=["doubling-bool-rho", "doubling-str-rho", "prime-power-float-e", "arms-legs-bool-s",
         "connectivity-str", "connectivity-float", "log-concavity-none"],
)
def test_library_arguments_must_be_ints(call):
    with pytest.raises(ValueError, match="must be an int"):
        call()


SPEC = FamilySpec.doubling(3, 1)
COMPLEX = SimplicialComplex(range(3), [{1, 2}])
PARAMS = ZsfParams(6, 3)


def is_face_of_1(params):
    return is_face(params, {1})


def family_report_ok_of_nothing(spec):
    return family_report_ok(spec, {})


# per function that takes a complex, a ZsfParams or a FamilySpec: an argument of another type
WRONG_TYPES = [
    (faces_by_dimension, PARAMS, "SimplicialComplex"),
    (is_pure, None, "SimplicialComplex"),
    (is_connected, [[1, 2]], "SimplicialComplex"),
    (isolated_vertices, SPEC, "SimplicialComplex"),
    (decompose_disjoint_simplices, "c", "SimplicialComplex"),
    (alexander_dual, PARAMS, "SimplicialComplex"),
    (minimal_nonfaces_of_complex, (3, 1), "SimplicialComplex"),
    (arrangements.IntersectionPoset, PARAMS, "SimplicialComplex"),
    (build_complex, (6, 3), "ZsfParams"),
    (minimal_nonfaces, COMPLEX, "ZsfParams"),
    (brute_force_complex, SPEC, "ZsfParams"),
    (enumerate_nlc, None, "ZsfParams"),
    (is_face_of_1, 6, "ZsfParams"),
    (verify_family, PARAMS, "FamilySpec"),
    (family_facets, {"kind": "doubling", "rho": 3, "m": 1}, "FamilySpec"),
    (closed_form_char_poly, "doubling", "FamilySpec"),
    (expected_rank, "doubling", "FamilySpec"),
    (expected_char_poly_discrepancies, "doubling", "FamilySpec"),
    (family_report_ok_of_nothing, "doubling", "FamilySpec"),
]


@pytest.mark.parametrize("function, argument, expected", WRONG_TYPES, ids=[f.__name__ for f, _, _ in WRONG_TYPES])
def test_library_arguments_must_have_their_type(function, argument, expected):
    with pytest.raises(ValueError) as exc:
        function(argument)
    assert str(exc.value) == f"expected a {expected}, got {type(argument).__name__}"


@pytest.mark.parametrize("value", ["no", 1, 0], ids=["str", "one", "zero"])
@pytest.mark.parametrize("call", [
    lambda value: verify_family(SPEC, oracle=value),
    lambda value: scan_log_concavity(5, include_repeated=value),
], ids=["oracle", "include-repeated"])
def test_library_flags_must_be_bools(call, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == f"expected a bool, got {type(value).__name__}"


def test_spec_capacity():
    for bad in [
        lambda: FamilySpec.doubling(5, 3),
        lambda: FamilySpec.prime_power(2, 7),
        lambda: FamilySpec.arms_legs(37, 1),
    ]:
        with pytest.raises(CapacityError):
            bad()


# ---------------------------------------------------------------------------
# facet constructors


def test_doubling_facets_examples():
    assert set(family_facets(FamilySpec.doubling(3, 0)).facets) == {fs(1, 3, 5)}
    assert set(family_facets(FamilySpec.doubling(3, 1)).facets) == {fs(1, 5, 9), fs(3, 7, 11)}
    assert set(family_facets(FamilySpec.doubling(3, 2)).facets) == {
        fs(1, 9, 17), fs(3, 11, 19), fs(5, 13, 21), fs(7, 15, 23),
    }
    assert set(family_facets(FamilySpec.doubling(5, 0)).facets) == {fs(1, 3, 5, 7, 9)}
    assert set(family_facets(FamilySpec.doubling(1, 2)).facets) == {fs(1), fs(3), fs(5), fs(7)}


def test_doubling_facets_shape():
    for rho in (1, 3, 5, 7):
        for m in range(4):
            if 2 ** (m + 1) * rho > 64:
                continue
            c = family_facets(FamilySpec.doubling(rho, m))
            assert len(c.facets) == 2**m
            assert all(len(f) == rho for f in c.facets)
            assert all(all(v % 2 == 1 for v in f) for f in c.facets)
            classes = {min(f) % 2 ** (m + 1) for f in c.facets}
            assert classes == set(range(1, 2 ** (m + 1), 2))


def test_prime_power_facets_examples():
    assert set(family_facets(FamilySpec.prime_power(2, 2)).facets) == {fs(1, 3), fs(2)}
    assert set(family_facets(FamilySpec.prime_power(2, 3)).facets) == {fs(1, 3, 5, 7), fs(2, 6), fs(4)}
    assert set(family_facets(FamilySpec.prime_power(3, 2)).facets) == {
        fs(1, 4, 7), fs(2, 5, 8), fs(3), fs(6),
    }
    assert set(family_facets(FamilySpec.prime_power(5, 1)).facets) == {fs(1), fs(2), fs(3), fs(4)}


def test_prime_power_facets_shape():
    for p, e in [(2, 4), (2, 5), (3, 3), (5, 2), (7, 2), (13, 1)]:
        c = family_facets(FamilySpec.prime_power(p, e))
        assert len(c.facets) == e * (p - 1)
        sizes = sorted((len(f) for f in c.facets), reverse=True)
        assert sizes == sorted(
            (p ** (e - j) for j in range(1, e + 1) for _ in range(p - 1)), reverse=True
        )
        # facets partition {1, ..., n-1} by p-adic valuation and leading digit
        seen = [v for f in c.facets for v in f]
        assert sorted(seen) == list(range(1, p**e))


def test_arms_legs_facets_examples():
    assert set(family_facets(FamilySpec.arms_legs(5, 2)).facets) == {fs(1, 6), fs(2, 7), fs(3, 8), fs(4, 9)}
    assert set(family_facets(FamilySpec.arms_legs(3, 1)).facets) == {fs(1, 4), fs(2, 5), fs(1, 3, 5)}
    assert set(family_facets(FamilySpec.arms_legs(5, 3)).facets) == {
        fs(1, 6), fs(2, 7), fs(3, 8), fs(4, 9),
        fs(1, 3, 5, 7, 9),
        fs(1, 8), fs(3, 4), fs(6, 7), fs(2, 9),
    }


def test_arms_legs_facet_counts():
    for p in (3, 5, 7, 11, 13):
        assert len(family_facets(FamilySpec.arms_legs(p, 2)).facets) == p - 1
        assert len(family_facets(FamilySpec.arms_legs(p, 1)).facets) == p
        if p >= 5:
            assert len(family_facets(FamilySpec.arms_legs(p, 3)).facets) == 2 * p - 1


def test_doubling_pairs_across_residue_classes_are_nonfaces():
    # vertices in distinct odd residue classes mod 2^(m+1) never share a face
    for rho, m in [(3, 1), (5, 1), (3, 2)]:
        spec = FamilySpec.doubling(rho, m)
        params = ZsfParams(spec.n, spec.ell)
        modulus = 2 ** (m + 1)
        odds = range(1, spec.n, 2)
        for v in odds:
            for w in odds:
                if v < w:
                    same = v % modulus == w % modulus
                    assert is_face(params, {v, w}) == same, (rho, m, v, w)


# ---------------------------------------------------------------------------
# closed-form polynomials and expectations


def test_closed_form_char_poly_examples():
    assert closed_form_char_poly(FamilySpec.doubling(3, 1)) == [1, 0, 0, -2, 0, 0, 1]
    assert closed_form_char_poly(FamilySpec.prime_power(3, 2)) == [
        0, -2, 0, -2, 0, 0, 0, 0, 1,
    ]
    assert closed_form_char_poly(FamilySpec.arms_legs(7, 2)) == [
        6, 0, -7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
    ]
    assert closed_form_char_poly(FamilySpec.arms_legs(5, 1)) == [
        0, 4, -4, 0, 0, -1, 0, 0, 0, 1,
    ]
    assert closed_form_char_poly(FamilySpec.arms_legs(5, 3)) == [
        0, 8, -8, 0, 0, -1, 0, 0, 0, 1,
    ]


def test_expected_discrepancies_table():
    assert expected_char_poly_discrepancies(FamilySpec.doubling(3, 1)) == ()
    assert expected_char_poly_discrepancies(FamilySpec.doubling(1, 3)) == ()
    assert expected_char_poly_discrepancies(FamilySpec.prime_power(2, 1)) == ()
    assert expected_char_poly_discrepancies(FamilySpec.prime_power(2, 2)) == (0,)
    assert expected_char_poly_discrepancies(FamilySpec.prime_power(3, 2)) == (0,)
    assert expected_char_poly_discrepancies(FamilySpec.arms_legs(5, 1)) == ()
    assert expected_char_poly_discrepancies(FamilySpec.arms_legs(5, 2)) == (0, 2)
    assert expected_char_poly_discrepancies(FamilySpec.arms_legs(5, 3)) == (0, 1)


def test_expected_rank_table():
    assert expected_rank(FamilySpec.doubling(3, 0)) == 1
    assert expected_rank(FamilySpec.doubling(3, 1)) == 2
    assert expected_rank(FamilySpec.prime_power(2, 1)) == 1
    assert expected_rank(FamilySpec.prime_power(3, 1)) == 2
    assert expected_rank(FamilySpec.arms_legs(3, 1)) == 3
    assert expected_rank(FamilySpec.arms_legs(5, 2)) == 2
    assert expected_rank(FamilySpec.arms_legs(5, 3)) == 3


# ---------------------------------------------------------------------------
# verification reports


REPORT_KEYS = {
    "spec", "n", "ell", "facets_match", "oracle_match", "pure", "connected",
    "decomposition", "graded", "rank", "char_poly", "char_poly_closed_form",
    "char_poly_discrepancies", "disjoint_union_formula_ok", "notes",
}


def test_report_shape_and_values():
    spec = FamilySpec.doubling(3, 1)
    rep = verify_family(spec)
    assert set(rep) == REPORT_KEYS
    assert rep["spec"] == {"kind": "doubling", "rho": 3, "m": 1}
    assert (rep["n"], rep["ell"]) == (12, 6)
    assert rep["facets_match"] and rep["oracle_match"]
    assert rep["pure"] and not rep["connected"]
    assert rep["decomposition"] == [3, 3]
    assert (rep["graded"], rep["rank"]) == (True, 2)
    assert rep["char_poly"] == rep["char_poly_closed_form"] == [1, 0, 0, -2, 0, 0, 1]
    assert rep["char_poly_discrepancies"] == []
    assert rep["disjoint_union_formula_ok"] is True
    assert family_report_ok(spec, rep)


def test_report_discrepancy_values():
    rep = verify_family(FamilySpec.arms_legs(5, 3))
    assert rep["char_poly"] == [-4, 12, -8, 0, 0, -1, 0, 0, 0, 1]
    assert rep["char_poly_closed_form"] == [0, 8, -8, 0, 0, -1, 0, 0, 0, 1]
    assert rep["char_poly_discrepancies"] == [0, 1]
    assert rep["rank"] == 3 and rep["graded"]
    assert rep["decomposition"] is None and rep["disjoint_union_formula_ok"] is None
    assert any("differs from the quoted closed form" in note for note in rep["notes"])
    assert family_report_ok(FamilySpec.arms_legs(5, 3), rep)


def test_report_degenerate_single_facet():
    rep = verify_family(FamilySpec.doubling(5, 0))
    assert rep["char_poly"] == [0] * 6
    assert (rep["graded"], rep["rank"]) == (True, 1)
    assert rep["connected"] and rep["pure"]
    assert rep["decomposition"] == [5]
    assert any("degenerate arrangement" in note for note in rep["notes"])
    assert family_report_ok(FamilySpec.doubling(5, 0), rep)


def test_oracle_flag_control():
    spec = FamilySpec.prime_power(3, 2)
    assert verify_family(spec, oracle=False)["oracle_match"] is None
    assert verify_family(spec, oracle=True)["oracle_match"] is True


def test_verify_family_builds_one_poset(monkeypatch):
    # counts every poset built, whichever module's `build_poset` builds it
    calls = []

    class CountingPoset(arrangements.IntersectionPoset):
        def __init__(self, c):
            calls.append(c)
            super().__init__(c)

    monkeypatch.setattr(arrangements, "IntersectionPoset", CountingPoset)
    for spec in [FamilySpec.doubling(3, 1), FamilySpec.prime_power(3, 2), FamilySpec.arms_legs(5, 2)]:
        calls.clear()
        rep = verify_family(spec, oracle=False)
        assert rep["disjoint_union_formula_ok"] is True, spec
        assert len(calls) == 1, spec


def all_specs(n_cap: int) -> list[FamilySpec]:
    specs = []
    for rho in (1, 3, 5, 7, 9):
        for m in range(4):
            if 2 ** (m + 1) * rho <= 64:
                specs.append(FamilySpec.doubling(rho, m))
    for p in (2, 3, 5, 7, 11, 13):
        e = 1
        while p**e <= 64:
            specs.append(FamilySpec.prime_power(p, e))
            e += 1
    for p in (3, 5, 7, 11, 13):
        for s in (1, 2, 3):
            if not (s == 3 and p < 5):
                specs.append(FamilySpec.arms_legs(p, s))
    return [s for s in specs if s.n <= n_cap]


def test_families_verify_with_oracle_up_to_20():
    for spec in all_specs(20):
        rep = verify_family(spec)
        assert rep["oracle_match"] is True
        assert family_report_ok(spec, rep), (spec, rep)


def test_families_verify_large_instances():
    # every instance with n ≤ 24 also gets the brute-force oracle; beyond
    # that the closed form is checked against the partition pipeline only
    for spec in all_specs(26):
        if spec.n <= 20:
            continue
        rep = verify_family(spec)
        assert rep["oracle_match"] is (True if spec.n <= 24 else None), spec
        assert family_report_ok(spec, rep), (spec, rep)

