"""The benchmark's workloads: fixed decks of CLI ops, issued in a seeded order.

Each workload is a deck, a fixed list of `zsumfree` argv lists drawn from
parameter regions.  The seed fixes the order in which the closed-loop client
issues the deck; the deck's content does not depend on the seed, so runs on
different seeds do the same work and their figures can be compared.  A run
repeats the deck in that order, each pass from the same cache state, until
the measured time is used up.

Every region respects the program's caps at the commit that defined the
benchmark, so a later change that raises a cap does not change the traffic:
facet count 4096 (`FACET_COUNT_CAP`), intersection-poset elements 600
(`POSET_ELEMENT_CAP`), brute-force oracle n ≤ 24 (`BRUTE_FORCE_CAP`).
"""

from __future__ import annotations

import random

WORKLOADS = ("cold", "warm-cache")


def _ceil_half(n: int) -> int:
    return (n + 1) // 2


def _compute(n: int, ell: int, *flags: str) -> list[str]:
    return ["compute", str(n), str(ell), *flags]


def cold_deck() -> list[list[str]]:
    """Cold builds of Δ_{n,ℓ} in three regions, each pass from an empty cache.

    High ℓ: `compute n ℓ --no-cache`, 20 ≤ n ≤ 27, ℓ ∈ {⌈n/2⌉+1, n-2}.  The
    minimal-non-face walk dominates (it runs twice per op), and its cost
    depends on the arithmetic of n: Δ_{24,13} and Δ_{20,11} cost ten times
    their neighbours or more.  Heavier instances (Δ_{28,27}: about 5 s,
    Δ_{26,25}: about 2 s) are left out so that a pass stays short and a run
    repeats every op many times.

    Low ℓ: `compute n ℓ` with the cache on, even n with 14 ≤ n ≤ 22,
    1 ≤ ℓ ≤ 4, so every op is a miss followed by an atomic write.  The facet
    search and the f-vector dominate: Δ_{22,2} (1024 facets) shows the
    facet search's quadratic scan over found facets, and Δ_{22,1} the
    f-vector's subset table.  Odd n and n ≥ 23 are left out to keep a pass
    short: Δ_{23,2} and Δ_{24,2} (2048 facets) cost 2-3 s each, and n = 24
    adds 2^23-entry subset tables.

    Oracle: `oracle_ops`, where the 2^n brute-force scan dominates.
    """
    high = [
        _compute(n, ell, "--no-cache")
        for n in range(20, 28)
        for ell in (_ceil_half(n) + 1, n - 2)
    ]
    low = [_compute(n, ell) for n in range(14, 23, 2) for ell in range(1, 5)]
    return high + low + oracle_ops()


FAMILY_SPECS = (
    ("doubling", "--rho", "3", "--m", "0"),
    ("doubling", "--rho", "5", "--m", "0"),
    ("doubling", "--rho", "7", "--m", "0"),
    ("doubling", "--rho", "9", "--m", "0"),
    ("doubling", "--rho", "3", "--m", "1"),
    ("doubling", "--rho", "1", "--m", "3"),
    ("prime-power", "--p", "2", "--e", "4"),
    ("prime-power", "--p", "3", "--e", "2"),
    ("prime-power", "--p", "13", "--e", "1"),
    ("prime-power", "--p", "17", "--e", "1"),
    ("arms-legs", "--p", "5", "--s", "1"),
    ("arms-legs", "--p", "5", "--s", "2"),
    ("arms-legs", "--p", "5", "--s", "3"),
    ("arms-legs", "--p", "7", "--s", "1"),
    ("arms-legs", "--p", "7", "--s", "2"),
    ("arms-legs", "--p", "7", "--s", "3"),
)


def oracle_ops() -> list[list[str]]:
    """`compute n ℓ --oracle --no-cache` for 14 ≤ n ≤ 18, ℓ ∈ {1, 2, ⌈n/2⌉},
    plus `family` specs with n ≤ 18, where the oracle is on by default.

    The 2^n oracle scan dominates; the family ops add the intersection poset.
    n ≥ 19 is left out so that a pass stays short.
    """
    ops = [
        _compute(n, ell, "--oracle", "--no-cache")
        for n in range(14, 19)
        for ell in sorted({1, 2, _ceil_half(n)})
    ]
    ops.extend(["family", *spec] for spec in FAMILY_SPECS)
    return ops


def warm_pairs() -> list[tuple[int, int]]:
    """Pairs prefilled into the warm-cache workload's cache.

    Only pairs with n ≤ 12 or ℓ ≥ 6, whose posets stay within the 600-element
    cap, so `--arrangement` succeeds on every one.
    """
    return [
        (n, ell)
        for n in range(8, 17)
        for ell in range(1, n)
        if n <= 12 or ell >= 6
    ]


def warm_cache_deck() -> list[list[str]]:
    """Two plain `compute n ℓ` (read-only hits) and two `compute n ℓ
    --arrangement` for every prefilled pair.

    Each pass starts from a copy of the prefilled cache, so the first
    `--arrangement` of a pair in a pass builds the poset and rewrites the
    entry, and the second is a hit.  Poset builds are a quarter of the ops,
    so the median op is a hit.
    """
    ops = []
    for n, ell in warm_pairs():
        ops += [_compute(n, ell)] * 2 + [_compute(n, ell, "--arrangement")] * 2
    return ops


DECKS = {
    "cold": cold_deck,
    "warm-cache": warm_cache_deck,
}


def deck(workload: str) -> list[list[str]]:
    return DECKS[workload]()


def op_order(workload: str, seed: int) -> list[list[str]]:
    """The deck in the order the client issues it, on every pass of a run."""
    ops = deck(workload)
    random.Random(f"{workload}/{seed}").shuffle(ops)
    return ops
