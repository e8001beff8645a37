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
from dataclasses import dataclass, field

from .complexes import (
    CapacityError,
    f_to_h,
    faces_by_dimension,
    h_vector_disjoint_simplices,
    is_connected,
    is_pure,
    isolated_vertices,
)
from .families import is_prime
from .partitions import enumerate_partitions
from .zerosumfree import ZsfParams, build_complex

P_MAX_CAP = 12
N_MAX_CAP = 24
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
        return {
            "conjecture": self.conjecture,
            "range": self.range,
            "checked": self.checked,
            "counterexamples": self.counterexamples,
            "elapsed_ms": self.elapsed_ms,
            "status": self.status,
        }


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
    if p_max > P_MAX_CAP:
        raise CapacityError(f"p_max must be at most {P_MAX_CAP}, got {p_max}")
    start = time.perf_counter()
    counterexamples = []
    instances = isolated_instances(p_max)
    for p, ell in instances:
        c = build_complex(ZsfParams(2 * p, ell))
        lone = sorted(isolated_vertices(c))
        if lone:
            counterexamples.append(
                {"params": {"p": p, "n": 2 * p, "ell": ell}, "witness": {"isolated_vertices": lone}}
            )
    elapsed = int(round((time.perf_counter() - start) * 1000))
    return ScanReport("isolated", {"p_max": p_max}, len(instances), counterexamples, elapsed)


def scan_purity_prime(n_max: int) -> ScanReport:
    """For odd n ≤ n_max, check purity of Δ_{n,(n∓1)/2} against primality of n."""
    if n_max > N_MAX_CAP:
        raise CapacityError(f"n_max must be at most {N_MAX_CAP}, got {n_max}")
    start = time.perf_counter()
    counterexamples = []
    instances = list(range(3, n_max + 1, 2))
    for n in instances:
        prime = is_prime(n)
        for ell in ((n - 1) // 2, (n + 1) // 2):
            pure = is_pure(build_complex(ZsfParams(n, ell)))
            if pure != prime:
                counterexamples.append(
                    {"params": {"n": n, "ell": ell}, "witness": {"pure": pure, "prime": prime}}
                )
    elapsed = int(round((time.perf_counter() - start) * 1000))
    return ScanReport("purity-prime", {"n_max": n_max}, len(instances), counterexamples, elapsed)


def scan_hvector_purity(n_max: int) -> ScanReport:
    """Check that nonnegative h_1..h_d forces purity, for all (n,ℓ) with n ≤ n_max."""
    if n_max > N_MAX_CAP:
        raise CapacityError(f"n_max must be at most {N_MAX_CAP}, got {n_max}")
    start = time.perf_counter()
    counterexamples = []
    checked = 0
    for n in range(2, n_max + 1):
        for ell in range(1, n):
            checked += 1
            c = build_complex(ZsfParams(n, ell))
            h = f_to_h(faces_by_dimension(c))
            if all(x >= 0 for x in h[1:]) and not is_pure(c):
                counterexamples.append(
                    {"params": {"n": n, "ell": ell}, "witness": {"h_vector": h, "pure": False}}
                )
    elapsed = int(round((time.perf_counter() - start) * 1000))
    return ScanReport("hvec-purity", {"n_max": n_max}, checked, counterexamples, elapsed)


def scan_connectivity(n_max: int) -> ScanReport:
    """Check that Δ_{n,ℓ} is connected for all n ≤ n_max with n > 2ℓ."""
    if n_max > N_MAX_CAP:
        raise CapacityError(f"n_max must be at most {N_MAX_CAP}, got {n_max}")
    start = time.perf_counter()
    counterexamples = []
    checked = 0
    for n in range(3, n_max + 1):
        for ell in range(1, (n - 1) // 2 + 1):
            checked += 1
            c = build_complex(ZsfParams(n, ell))
            if not is_connected(c):
                counterexamples.append(
                    {"params": {"n": n, "ell": ell}, "witness": {"connected": False}}
                )
    elapsed = int(round((time.perf_counter() - start) * 1000))
    return ScanReport("connectivity", {"n_max": n_max}, checked, counterexamples, elapsed)


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
    exploratory mode that scans every partition.
    """
    if max_sum > MAX_SUM_CAP:
        raise CapacityError(f"max_sum must be at most {MAX_SUM_CAP}, got {max_sum}")
    start = time.perf_counter()
    counterexamples = []
    instances = log_concavity_instances(max_sum, include_repeated)
    for lam in instances:
        h = [abs(x) for x in h_vector_disjoint_simplices(lam)]
        for k in range(2, lam[0]):
            if h[k] ** 2 < h[k - 1] * h[k + 1]:
                counterexamples.append(
                    {
                        "params": {"lambda": list(lam)},
                        "witness": {"k": k, "unsigned_h": h[1:]},
                    }
                )
                break
    elapsed = int(round((time.perf_counter() - start) * 1000))
    rng = {"max_sum": max_sum, "include_repeated": include_repeated}
    return ScanReport("log-concavity", rng, len(instances), counterexamples, elapsed)


SCANNERS = {
    "isolated": (scan_no_isolated_vertices, "p_max"),
    "purity-prime": (scan_purity_prime, "n_max"),
    "hvec-purity": (scan_hvector_purity, "n_max"),
    "connectivity": (scan_connectivity, "n_max"),
    "log-concavity": (scan_log_concavity, "max_sum"),
}
