"""Empirical scanners for five open conjectures about Δ_{n,ℓ}.

Each scanner sweeps a deterministic parameter range, rebuilds the relevant
complexes through the pipeline, and reports every violation it finds.  A scan
never asserts a conjecture: its report says "confirmed-in-range" or
"counterexample-found" and nothing stronger.

The five conjectures:

* isolated      — for prime p and even ℓ with (p-1)/2 ≤ ℓ < p, the complex
                  Δ_{2p,ℓ} has no isolated vertices (facets of dimension 0);
* purity-prime  — for odd n, Δ_{n,(n-1)/2} and Δ_{n,(n+1)/2} are pure exactly
                  when n is prime;
* hvec-purity   — if h_i ≥ 0 for all 1 ≤ i ≤ d then Δ_{n,ℓ} is pure;
* connectivity  — Δ_{n,ℓ} is connected whenever n > 2ℓ;
* log-concavity — for a disjoint union of simplices with distinct vertex
                  counts, the unsigned h-vector (|h_1|, ..., |h_{λ_1}|) is
                  log-concave.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from .complexes import (
    CapacityError,
    f_to_h,
    h_vector_disjoint_simplices,
    is_connected,
    is_pure,
    isolated_vertices,
)
from .families import is_prime
from .partitions import check_ints, check_type, enumerate_partitions
from .zerosumfree import ZsfParams, _f_vector, _maximal_nonface_free, build_complex, minimal_nonfaces

N_MAX_CAP = 24  # the sweep limit on n for `table` and the scans (isolated: n = 2p)
MAX_SUM_CAP = 40  # log-concavity: 8,696 partitions with distinct parts, 215,307 in all


@dataclass
class ScanReport:
    """Outcome of one conjecture scan over a parameter range."""

    conjecture: str
    range: dict
    checked: int
    counterexamples: list = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def status(self) -> str:
        return "counterexample-found" if self.counterexamples else "confirmed-in-range"

    def to_json(self) -> dict:
        return asdict(self) | {"status": self.status}


def _scan(conjecture: str, rng: dict, cap: int, instances, check) -> ScanReport:
    """Run `check` on every instance of `instances()` and report.

    The first value of `rng` is refused past `cap` before any instance is
    made, and a range with no instance is refused.  `check(instance)` yields
    that instance's counterexamples, and the report counts the instances.
    """
    flag, value = next(iter(rng.items()))
    check_ints(**{flag: value})
    if value > cap:
        raise CapacityError(f"{flag} must be at most {cap}, got {value}")
    start = time.perf_counter()
    todo = instances()
    if not todo:
        raise ValueError(f"{flag} = {value} leaves no instance to check")
    counterexamples = [ce for instance in todo for ce in check(instance)]
    elapsed = int(round((time.perf_counter() - start) * 1000))
    return ScanReport(conjecture, rng, len(todo), counterexamples, elapsed)


def isolated_instances(p_max: int) -> list[tuple[int, int]]:
    """All (p, ℓ) with p ≤ p_max prime and ℓ even, (p-1)/2 ≤ ℓ < p."""
    out = []
    for p in range(2, p_max + 1):
        if not is_prime(p):
            continue
        lo = -(-(p - 1) // 2)
        out.extend((p, ell) for ell in range(lo, p) if ell % 2 == 0 and ell > 0)
    return out


def scan_no_isolated_vertices(p_max: int) -> ScanReport:
    """Scan Δ_{2p,ℓ} for isolated vertices over the conjectured range."""

    def check(instance):
        p, ell = instance
        lone = isolated_vertices(build_complex(ZsfParams(2 * p, ell)))
        if lone:
            yield {"params": {"p": p, "n": 2 * p, "ell": ell}, "witness": {"isolated_vertices": lone}}

    return _scan("isolated", {"p_max": p_max}, N_MAX_CAP // 2, lambda: isolated_instances(p_max), check)


def scan_purity_prime(n_max: int) -> ScanReport:
    """For odd n ≤ n_max, check purity of Δ_{n,(n∓1)/2} against primality of n."""

    def check(n):
        prime = is_prime(n)
        for ell in ((n - 1) // 2, (n + 1) // 2):
            pure = is_pure(build_complex(ZsfParams(n, ell)))
            if pure != prime:
                yield {"params": {"n": n, "ell": ell}, "witness": {"pure": pure, "prime": prime}}

    return _scan("purity-prime", {"n_max": n_max}, N_MAX_CAP, lambda: range(3, n_max + 1, 2), check)


def scan_hvector_purity(n_max: int) -> ScanReport:
    """Check that nonnegative h_1..h_d forces purity, for all (n,ℓ) with n ≤ n_max."""

    def check(params):
        p = ZsfParams(**params)
        mnf = minimal_nonfaces(p)  # one walk, read by the facet search and the f-vector
        c = _maximal_nonface_free(p.n, mnf)
        h = f_to_h(_f_vector(p, mnf, c))
        if all(x >= 0 for x in h[1:]) and not is_pure(c):
            yield {"params": params, "witness": {"h_vector": h, "pure": False}}

    def grid():
        return [{"n": n, "ell": ell} for n in range(2, n_max + 1) for ell in range(1, n)]

    return _scan("hvec-purity", {"n_max": n_max}, N_MAX_CAP, grid, check)


def scan_connectivity(n_max: int) -> ScanReport:
    """Check that Δ_{n,ℓ} is connected for all n ≤ n_max with n > 2ℓ."""

    def check(params):
        if not is_connected(build_complex(ZsfParams(**params))):
            yield {"params": params, "witness": {"connected": False}}

    def grid():
        return [{"n": n, "ell": ell} for n in range(3, n_max + 1) for ell in range(1, (n - 1) // 2 + 1)]

    return _scan("connectivity", {"n_max": n_max}, N_MAX_CAP, grid, check)


def log_concavity_instances(max_sum: int, include_repeated: bool = False) -> list[tuple[int, ...]]:
    """Partitions λ with Σλ ≤ max_sum and distinct parts (all parts if the flag is set)."""
    out = []
    for total in range(1, max_sum + 1):
        for lam in enumerate_partitions(total, total, total):
            if include_repeated or len(set(lam)) == len(lam):
                out.append(lam)
    return out


def scan_log_concavity(max_sum: int, include_repeated: bool = False) -> ScanReport:
    """Check log-concavity of the unsigned h-vector of Γ_λ for Σλ ≤ max_sum.

    The conjecture hypothesizes distinct parts; `include_repeated=True` is an
    exploratory mode that scans every partition.  Each partition reports its
    first failing k only.
    """

    def check(lam):
        h = [abs(x) for x in h_vector_disjoint_simplices(lam)]
        for k in range(2, lam[0]):
            if h[k] ** 2 < h[k - 1] * h[k + 1]:
                yield {"params": {"lambda": list(lam)}, "witness": {"k": k, "unsigned_h": h[1:]}}
                return

    check_type(include_repeated, bool)
    rng = {"max_sum": max_sum, "include_repeated": include_repeated}
    return _scan("log-concavity", rng, MAX_SUM_CAP,
                 lambda: log_concavity_instances(max_sum, include_repeated), check)


SCANNERS = {
    "isolated": (scan_no_isolated_vertices, "p_max"),
    "purity-prime": (scan_purity_prime, "n_max"),
    "hvec-purity": (scan_hvector_purity, "n_max"),
    "connectivity": (scan_connectivity, "n_max"),
    "log-concavity": (scan_log_concavity, "max_sum"),
}
