"""Closed-form facet families of Δ_{n,ℓ} and their verification.

Three families with known facet structure are provided:

* doubling:     n = 2^(m+1)·ρ (ρ odd), ℓ = n/2 — a disjoint union of 2^m
                (ρ-1)-simplices, one on each residue class 2t+1 mod 2^(m+1);
* prime-power:  n = p^e, ℓ = n-1 — the e·(p-1) sets V_{i,j} of residues with
                p-adic shape i·p^(j-1) mod p^j;
* arms-legs:    n = 2p (p odd prime), ℓ = 2p-s for s ∈ {1,2,3} — the p-1
                "arm" edges {i, i+p}, plus the odd facet when s is odd, plus
                the p-1 "leg" edges {i, -2i mod 2p} when s = 3 (p ≥ 5).

`verify_family` rebuilds the complex through the partition pipeline (and
optionally the brute-force oracle) and compares facets, purity, connectivity,
decomposition, poset rank, and characteristic polynomial.  Each family also
carries the closed-form polynomial traditionally quoted for it; the Möbius
computation is authoritative, and the degrees where the quoted form is known
to be off (miscounted facets or dropped constants) are frozen in
`expected_char_poly_discrepancies`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import zip_longest

from .arrangements import build_poset, disjoint_union_char_poly
from .complexes import (
    CapacityError,
    SimplicialComplex,
    decompose_disjoint_simplices,
    is_connected,
    is_pure,
)
from .partitions import check_ints
from .zerosumfree import (
    BRUTE_FORCE_CAP,
    BUILD_CAP,
    ZsfParams,
    brute_force_complex,
    build_complex,
    check_oracle_capacity,
)


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True


def _n_text(base: int, exp: int, factor: int = 1) -> str:
    """n = base^exp·factor for a capacity message: in decimal, or as that
    product where n would take more than 2^16 bits to build or more digits
    than `str` prints."""
    if exp * base.bit_length() + factor.bit_length() <= 1 << 16:
        try:
            return str(base**exp * factor)
        except ValueError:  # the interpreter's int-to-str digit limit
            pass
    return f"{base}^{exp}" if factor == 1 else f"{base}^{exp}·{factor}"


# the fields each kind of family instance takes, in the order they are checked
FAMILY_FIELDS = {"doubling": ("rho", "m"), "prime-power": ("p", "e"), "arms-legs": ("p", "s")}


@dataclass(frozen=True)
class FamilySpec:
    """One family instance; exactly the fields for its kind are set.  The
    constructor refuses an unknown kind, a field the kind does not take, a
    non-int field (a missing one is None), an n past BUILD_CAP
    (CapacityError) and a value out of range."""

    kind: str
    rho: int | None = None
    m: int | None = None
    p: int | None = None
    e: int | None = None
    s: int | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in FAMILY_FIELDS:
            raise ValueError(f"kind must be one of {', '.join(FAMILY_FIELDS)}, got {self.kind!r}")
        takes = FAMILY_FIELDS[self.kind]
        for name in ("rho", "m", "p", "e", "s"):
            if name not in takes and getattr(self, name) is not None:
                raise ValueError(f"family '{self.kind}' takes no {name}")
        check_ints(**{name: getattr(self, name) for name in takes})
        if self.kind == "doubling":
            rho, m = self.rho, self.m
            if rho < 1 or rho % 2 == 0:
                raise ValueError(f"rho must be a positive odd integer, got {rho}")
            if m < 0:
                raise ValueError(f"m must be nonnegative, got {m}")
            # 2^(m+1) > BUILD_CAP once m + 1 ≥ BUILD_CAP.bit_length(), so n is built only below that
            if m + 1 >= BUILD_CAP.bit_length() or 2 ** (m + 1) * rho > BUILD_CAP:
                raise CapacityError(f"doubling({rho},{m}) needs n = {_n_text(2, m + 1, rho)} > {BUILD_CAP}")
        elif self.kind == "prime-power":
            p, e = self.p, self.e
            # the cap is checked before the primality test, whose trial division
            # grinds on a large p; for p ≥ 2, p^e passes the cap once p does or
            # e ≥ BUILD_CAP.bit_length()
            if p > 1 and e > 0 and (p > BUILD_CAP or e >= BUILD_CAP.bit_length() or p**e > BUILD_CAP):
                raise CapacityError(f"prime_power({p},{e}) needs n = {_n_text(p, e)} > {BUILD_CAP}")
            if not is_prime(p):
                raise ValueError(f"p must be prime, got {p}")
            if e < 1:
                raise ValueError(f"e must be positive, got {e}")
        else:
            p, s = self.p, self.s
            if 2 * p > BUILD_CAP:  # before the primality test, as for prime-power
                raise CapacityError(f"arms_legs({p},{s}) needs n = {_n_text(2, 1, p)} > {BUILD_CAP}")
            if not is_prime(p) or p == 2:
                raise ValueError(f"p must be an odd prime, got {p}")
            if s not in (1, 2, 3):
                raise ValueError(f"s must be 1, 2 or 3, got {s}")
            if s == 3 and p < 5:
                raise ValueError("s = 3 requires p >= 5")

    @classmethod
    def doubling(cls, rho: int, m: int) -> "FamilySpec":
        return cls("doubling", rho=rho, m=m)

    @classmethod
    def prime_power(cls, p: int, e: int) -> "FamilySpec":
        return cls("prime-power", p=p, e=e)

    @classmethod
    def arms_legs(cls, p: int, s: int) -> "FamilySpec":
        return cls("arms-legs", p=p, s=s)

    @property
    def n(self) -> int:
        if self.kind == "doubling":
            return 2 ** (self.m + 1) * self.rho
        if self.kind == "prime-power":
            return self.p**self.e
        return 2 * self.p

    @property
    def ell(self) -> int:
        if self.kind == "doubling":
            return 2**self.m * self.rho
        if self.kind == "prime-power":
            return self.n - 1
        return 2 * self.p - self.s

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def check_spec(spec) -> None:
    """Raise ValueError unless `spec` is a FamilySpec."""
    if not isinstance(spec, FamilySpec):
        raise ValueError(f"expected a FamilySpec, got {type(spec).__name__}")


def family_facets(spec: FamilySpec) -> SimplicialComplex:
    """The closed-form facets of `spec` (see the module docstring) on the ground set 0..n-1."""
    check_spec(spec)
    n = spec.n
    if spec.kind == "doubling":
        modulus = 2 ** (spec.m + 1)
        facets = [frozenset(range(2 * t + 1, n, modulus)) for t in range(2**spec.m)]
    elif spec.kind == "prime-power":
        p = spec.p
        facets = [frozenset(range(i * p ** (j - 1), n, p**j)) for j in range(1, spec.e + 1) for i in range(1, p)]
    else:
        p, s = spec.p, spec.s
        facets = [frozenset({i, i + p}) for i in range(1, p)]
        if s in (1, 3):
            facets.append(frozenset(range(1, n, 2)))
        if s == 3:
            facets.extend(frozenset({i, (-2 * i) % n}) for i in range(1, n, 2) if i != p)
    return SimplicialComplex(range(n), facets)


def closed_form_char_poly(spec: FamilySpec) -> list[int]:
    """The closed-form characteristic polynomial quoted for the family.

    Ascending coefficients, degree = number of supported vertices.  See
    `expected_char_poly_discrepancies` for the degrees where this form is
    known to deviate from the Möbius computation.
    """
    check_spec(spec)
    if spec.kind == "doubling":
        return disjoint_union_char_poly(spec.ell, (spec.rho,) * 2**spec.m)
    if spec.kind == "prime-power":
        p, e = spec.p, spec.e
        coeffs = [0] * spec.n
        coeffs[spec.n - 1] += 1
        for j in range(e):
            coeffs[p**j] -= p - 1
        return coeffs
    p, s = spec.p, spec.s
    if s == 2:
        coeffs = [0] * (2 * p - 1)
        coeffs[2 * p - 2] += 1
        coeffs[2] -= p
        coeffs[0] += p - 1
        return coeffs
    coeffs = [0] * (2 * p)
    coeffs[2 * p - 1] += 1
    coeffs[p] -= 1
    coeffs[2] -= (p - 1) * (1 if s == 1 else 2)
    coeffs[1] += (p - 1) * (1 if s == 1 else 2)
    return coeffs


def expected_char_poly_discrepancies(spec: FamilySpec) -> tuple[int, ...]:
    """Degrees where the quoted closed form is known to differ from the Möbius χ.

    * doubling — exact at every degree;
    * prime-power — constant term: the arrangement has e(p-1) atoms meeting in
      the origin, forcing constant e(p-1)-1, while the quoted form has 0
      (no deviation in the trivial case e(p-1) = 1);
    * arms-legs s=1 — exact (μ(0̂,1̂) = 0, so the missing constant is truly 0);
    * arms-legs s=2 — degrees 2 and 0: there are p-1 edges, not p;
    * arms-legs s=3 — degrees 1 and 0: the leg/arm singleton intersections
      push μ(0̂,1̂) to -(p-1) and the degree-1 coefficient to 3(p-1).
    """
    check_spec(spec)
    if spec.kind == "doubling":
        return ()
    if spec.kind == "prime-power":
        return () if spec.e * (spec.p - 1) == 1 else (0,)
    if spec.s == 1:
        return ()
    return (0, 2) if spec.s == 2 else (0, 1)


def expected_rank(spec: FamilySpec) -> int:
    """Poset rank the family is expected to have (1 for a lone facet), from
    the closed-form facet counts: 2^m, e(p-1), and at least the p-1 ≥ 2 arms."""
    check_spec(spec)
    if spec.kind == "arms-legs":
        return 3 if spec.s in (1, 3) else 2
    facets = 2**spec.m if spec.kind == "doubling" else spec.e * (spec.p - 1)
    return 1 if facets == 1 else 2


def verify_family(spec: FamilySpec, oracle: bool | None = None) -> dict:
    """Check a family's closed-form facets and arrangement claims.

    `oracle=None` runs the brute-force cross-check whenever n ≤ 24;
    True forces it (capacity error beyond 24, raised before any build),
    False skips it.
    """
    check_spec(spec)
    if oracle:
        check_oracle_capacity(spec.n)
    params = ZsfParams(spec.n, spec.ell)
    closed = family_facets(spec)
    computed = build_complex(params)
    facets_match = closed == computed
    notes: list[str] = []

    if oracle is None:
        oracle = spec.n <= BRUTE_FORCE_CAP
    oracle_match = None
    if oracle:
        oracle_match = brute_force_complex(params) == computed
        agreement = "agrees with" if oracle_match else "DISAGREES with"
        notes.append(f"brute-force oracle {agreement} the pipeline")

    decomposition = decompose_disjoint_simplices(computed)
    poset = build_poset(computed)
    claimed = closed_form_char_poly(spec)
    actual = list(poset.char_poly)
    discrepancies = [d for d, (a, b) in enumerate(zip_longest(actual, claimed, fillvalue=0)) if a != b]

    disjoint_ok = None
    if decomposition:
        disjoint_ok = actual == disjoint_union_char_poly(poset.n_vertices, decomposition)

    if poset.degenerate:
        notes.append(
            "degenerate arrangement: the single facet spans all supported "
            "vertices, so the characteristic polynomial is identically zero"
        )
    if spec.kind == "doubling" and spec.rho == 1:
        notes.append("rho = 1 is degenerate: every facet is a single vertex")
    if discrepancies:
        notes.append(
            "Möbius characteristic polynomial differs from the quoted closed "
            "form at degrees " + ", ".join(map(str, discrepancies))
        )

    return {
        "spec": spec.to_json(),
        "n": spec.n,
        "ell": spec.ell,
        "facets_match": facets_match,
        "oracle_match": oracle_match,
        "pure": is_pure(computed),
        "connected": is_connected(computed),
        "decomposition": list(decomposition) if decomposition is not None else None,
        "graded": poset.graded,
        "rank": poset.rank,
        "char_poly": actual,
        "char_poly_closed_form": claimed,
        "char_poly_discrepancies": discrepancies,
        "disjoint_union_formula_ok": disjoint_ok,
        "notes": notes,
    }


def family_report_ok(spec: FamilySpec, report: dict) -> bool:
    """True when facets match and every arrangement claim holds or is an expected deviation."""
    check_spec(spec)
    return (
        report["facets_match"]
        and report["oracle_match"] is not False
        and report["graded"] is True
        and report["rank"] == expected_rank(spec)
        and tuple(report["char_poly_discrepancies"]) == tuple(sorted(expected_char_poly_discrepancies(spec)))
        and report["disjoint_union_formula_ok"] is not False
    )
