"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion is exact (integer/set/byte equality); the only tolerances are
the stated wall-clock budgets, asserted with time.perf_counter.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import conftest
from zsumfree.arrangements import (
    build_poset,
    disjoint_union_char_poly,
)
from zsumfree.cli import main
from zsumfree.complexes import (
    SimplicialComplex,
    f_to_h,
    f_vector_disjoint_simplices,
    faces_by_dimension,
    h_vector_disjoint_simplices,
    is_connected,
)
from zsumfree.conjectures import (
    scan_connectivity,
    scan_hvector_purity,
    scan_log_concavity,
    scan_purity_prime,
)
from zsumfree.families import (
    FamilySpec,
    expected_char_poly_discrepancies,
    family_facets,
    verify_family,
)
from zsumfree.partitions import (
    alternating_binomial_sum,
    binomial,
    enumerate_partitions,
)
from zsumfree.zerosumfree import ZsfParams, brute_force_complex, build_complex


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        conftest.acceptance_lines.append(f"criterion {number} ({description}): FAIL")
        raise
    conftest.acceptance_lines.append(f"criterion {number} ({description}): PASS")


DOUBLING = [(3, 0), (3, 1), (3, 2), (5, 0), (5, 1), (7, 0)]
PRIME_POWERS = [(2, 2), (2, 3), (2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1), (5, 2)]
ARMS_LEGS = [(p, s) for p in (3, 5, 7, 11) for s in (1, 2, 3) if not (p == 3 and s == 3)]


def family_instances() -> list[FamilySpec]:
    return (
        [FamilySpec.doubling(rho, m) for rho, m in DOUBLING]
        + [FamilySpec.prime_power(p, e) for p, e in PRIME_POWERS]
        + [FamilySpec.arms_legs(p, s) for p, s in ARMS_LEGS]
    )


def facet_tuples(c: SimplicialComplex) -> set[tuple[int, ...]]:
    return {tuple(sorted(f)) for f in c.facets}


def test_criterion_1_figure_regressions():
    figures = {
        (6, 3): {(1, 3, 5)},
        (12, 6): {(1, 5, 9), (3, 7, 11)},
        (24, 12): {(1, 9, 17), (3, 11, 19), (5, 13, 21), (7, 15, 23)},
        (9, 8): {(1, 4, 7), (2, 5, 8), (3,), (6,)},
    }
    with criterion(1, "figure regressions, exact facets, < 1 s each"):
        for (n, ell), want in figures.items():
            start = time.perf_counter()
            c = build_complex(ZsfParams(n, ell))
            elapsed = time.perf_counter() - start
            assert facet_tuples(c) == want, (n, ell)
            assert elapsed < 1.0, (n, ell, elapsed)


def test_criterion_2_oracle_equivalence():
    with criterion(2, "pipeline = brute force for all n <= 16, < 5 min"):
        start = time.perf_counter()
        for n in range(2, 17):
            for ell in range(1, n):
                params = ZsfParams(n, ell)
                assert facet_tuples(build_complex(params)) == facet_tuples(
                    brute_force_complex(params)
                ), (n, ell)
        assert time.perf_counter() - start < 300


def test_criterion_3_family_facets():
    with criterion(3, "closed-form family facets = computed facets, < 2 min"):
        start = time.perf_counter()
        for spec in family_instances():
            computed = build_complex(ZsfParams(spec.n, spec.ell))
            assert facet_tuples(family_facets(spec)) == facet_tuples(computed), spec
        assert time.perf_counter() - start < 120


def test_criterion_4_characteristic_polynomials():
    with criterion(4, "Möbius char polys, discrepancy reports exact"):
        for spec in family_instances():
            rep = verify_family(spec, oracle=False)
            assert rep["facets_match"], spec
            actual = rep["char_poly"]
            quoted = rep["char_poly_closed_form"]
            width = max(len(actual), len(quoted))
            actual_p = actual + [0] * (width - len(actual))
            quoted_p = quoted + [0] * (width - len(quoted))
            mismatch = [d for d in range(width) if actual_p[d] != quoted_p[d]]
            expected = sorted(expected_char_poly_discrepancies(spec))
            assert mismatch == expected, (spec, actual, quoted)
            assert rep["char_poly_discrepancies"] == expected, spec
            if spec.kind == "doubling":
                # exact closed form x^ell - 2^m x^rho + (2^m - 1)
                form = [0] * (spec.ell + 1)
                form[spec.ell] += 1
                form[spec.rho] -= 2**spec.m
                form[0] += 2**spec.m - 1
                assert actual == form, spec
            if rep["decomposition"] is not None:
                # disjoint-union formula applies and must hold
                assert rep["disjoint_union_formula_ok"] is True, spec
                poset = build_poset(build_complex(ZsfParams(spec.n, spec.ell)))
                assert poset.char_poly == disjoint_union_char_poly(poset.n_vertices, rep["decomposition"]), spec


def test_criterion_5_gradedness_and_rank():
    with criterion(5, "poset rank: 2 for disjoint unions, 3 for arms+odd facet"):
        rank2 = (
            [FamilySpec.doubling(rho, m) for rho, m in DOUBLING if m >= 1]
            + [FamilySpec.prime_power(p, e) for p, e in PRIME_POWERS]
            + [FamilySpec.arms_legs(p, 2) for p in (3, 5, 7, 11)]
        )
        for spec in rank2:
            poset = build_poset(build_complex(ZsfParams(spec.n, spec.ell)))
            assert (poset.graded, poset.rank) == (True, 2), spec
        for p in (5, 7, 11):
            for s in (1, 3):
                spec = FamilySpec.arms_legs(p, s)
                poset = build_poset(build_complex(ZsfParams(spec.n, spec.ell)))
                assert (poset.graded, poset.rank) == (True, 3), spec
        # single-facet instances are degenerate: rank 1, not 2
        for rho, m in DOUBLING:
            if m == 0:
                spec = FamilySpec.doubling(rho, m)
                poset = build_poset(build_complex(ZsfParams(spec.n, spec.ell)))
                assert (poset.graded, poset.rank) == (True, 1), spec


def explicit_disjoint_union(parts) -> SimplicialComplex:
    facets = []
    base = 0
    for size in parts:
        facets.append(frozenset(range(base, base + size)))
        base += size
    return SimplicialComplex(range(base), facets)


def test_criterion_6_formula_suite():
    with criterion(6, "f/h formulas vs direct counts (sum <= 25); identity grid"):
        for total in range(1, 26):
            for lam in enumerate_partitions(total, total, total):
                f = faces_by_dimension(explicit_disjoint_union(lam))
                assert f_vector_disjoint_simplices(lam) == f, lam
                assert h_vector_disjoint_simplices(lam) == f_to_h(f), lam
        # equal-dimension shortcut h_k = (-1)^(k+1) (alpha-1) C(d+1, k)
        for alpha in range(1, 26):
            for d in range(0, 25):
                if alpha * (d + 1) > 25:
                    continue
                lam = (d + 1,) * alpha
                want = [1] + [
                    (-1) ** (k + 1) * (alpha - 1) * binomial(d + 1, k)
                    for k in range(1, d + 2)
                ]
                assert h_vector_disjoint_simplices(lam) == want, lam
        for a in range(13):
            for b in range(13):
                for k in range(13):
                    assert alternating_binomial_sum(a, b, k) == binomial(a, k), (a, b, k)


def test_criterion_7_conjecture_scans():
    with criterion(7, "scans: zero counterexamples in checked ranges, < 10 min each"):
        scans = [
            (scan_purity_prime, 19, 9),
            (scan_hvector_purity, 19, 171),
            (scan_connectivity, 16, 56),
            (scan_log_concavity, 30, 2034),
        ]
        for scanner, bound, expected_checked in scans:
            rep = scanner(bound)
            assert rep.counterexamples == [], rep.conjecture
            assert rep.status == "confirmed-in-range", rep.conjecture
            assert rep.checked == expected_checked, rep.conjecture
            assert rep.elapsed_ms < 600_000, rep.conjecture


def test_criterion_8_connectivity_sharpness():
    with criterion(8, "n = 2l boundary: connected iff l odd, l <= 12"):
        for ell in range(1, 13):
            c = build_complex(ZsfParams(2 * ell, ell))
            assert is_connected(c) == (ell % 2 == 1), ell


def test_criterion_9_deterministic_output(capsys, tmp_path, monkeypatch):
    def run(argv, cache):
        monkeypatch.setenv("ZSF_CACHE_DIR", str(cache))
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        return out

    with criterion(9, "byte-identical repeated runs of compute/family/table"):
        # same cache: second run is a cache hit
        warm = [
            run(["compute", "12", "6", "--arrangement"], tmp_path / "w")
            for _ in range(2)
        ]
        assert warm[0] == warm[1]
        # fresh caches: both runs recompute
        cold = [
            run(["compute", "9", "8", "--arrangement"], tmp_path / f"c{i}")
            for i in range(2)
        ]
        assert cold[0] == cold[1]
        json.loads(cold[0])  # the artifact is well-formed JSON

        fam = [
            run(["family", "arms-legs", "--p", "5", "--s", "3"], tmp_path / "f")
            for _ in range(2)
        ]
        assert fam[0] == fam[1]

        tab = [run(["table", "--n-max", "12"], tmp_path / "t") for _ in range(2)]
        assert tab[0] == tab[1]
