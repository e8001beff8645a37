"""Bounded integer partitions and binomial helpers.

Partitions are tuples of weakly decreasing positive integers; the empty
partition is ``()``.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from math import comb


def check_ints(**values) -> None:
    """Raise ValueError unless every value is an int; a bool or an IntEnum is not one."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")


def check_partition(parts) -> tuple[int, ...]:
    """Validate a partition given as an iterable of ints; return it as a tuple."""
    parts = tuple(parts)
    check_ints(**{f"part {i}": p for i, p in enumerate(parts)})
    if any(p <= 0 for p in parts):
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return parts


def enumerate_partitions(total: int, max_parts: int, max_part: int) -> list[tuple[int, ...]]:
    """All partitions of `total` into at most `max_parts` parts, each at most `max_part`.

    Results are in lexicographically decreasing order; `total == 0` yields the
    single empty partition.
    """
    check_ints(total=total, max_parts=max_parts, max_part=max_part)
    if total < 0 or max_parts < 0 or max_part < 0:
        raise ValueError("enumerate_partitions arguments must be nonnegative")
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def extend(remaining: int, slots: int, cap: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if slots == 0 or cap == 0 or remaining > slots * cap:
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            extend(remaining - part, slots - 1, part)
            prefix.pop()

    extend(total, max_parts, max_part)
    return out


def count_partitions(total: int, max_parts: int, max_part: int) -> int:
    """Number of partitions of `total` into at most `max_parts` parts, each at most `max_part`.

    Memoized recurrence, independent of the enumerator: either no part equals
    the cap (lower the cap) or one does (remove it and spend a slot).
    """
    check_ints(total=total, max_parts=max_parts, max_part=max_part)
    if total < 0 or max_parts < 0 or max_part < 0:
        raise ValueError("count_partitions arguments must be nonnegative")
    memo: dict[tuple[int, int, int], int] = {}

    def rec(s: int, slots: int, cap: int) -> int:
        if s == 0:
            return 1
        if slots == 0 or cap == 0 or s > slots * cap:
            return 0
        key = (s, slots, cap)
        if key not in memo:
            memo[key] = rec(s, slots, cap - 1) + rec(s - cap, slots - 1, cap)
        return memo[key]

    return rec(total, max_parts, max_part)


def conjugate(parts) -> tuple[int, ...]:
    """Conjugate (transpose) of a partition: entry m counts parts >= m."""
    parts = check_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= m) for m in range(1, parts[0] + 1))


def binomial(a: int, k: int) -> int:
    """Binomial coefficient C(a, k), zero when k < 0 or k > a."""
    if k < 0 or k > a:
        return 0
    return comb(a, k)


def alternating_binomial_sum(a: int, b: int, k: int) -> int:
    """Evaluate sum_{i=0}^{k} (-1)^i C(a+b-i, k-i) C(b, i) term by term.

    Closed form: C(a, k).  The literal sum is kept as an independent check.
    """
    return sum((-1) ** i * binomial(a + b - i, k - i) * binomial(b, i) for i in range(k + 1))
