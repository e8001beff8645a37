"""Bounded integer partitions and binomial helpers.

Partitions are tuples of weakly decreasing positive integers; the empty
partition is ``()``.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import sub


def check_ints(**values) -> None:
    """Raise ValueError unless every value is an int; a bool or an IntEnum is not one."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")


def check_type(value, cls: type) -> None:
    """Raise ValueError unless `value` is a `cls`."""
    if not isinstance(value, cls):
        raise ValueError(f"expected a {cls.__name__}, got {type(value).__name__}")


def as_tuple(values, name: str) -> tuple:
    """`values`, meant to be ints, as a tuple; ValueError naming their type
    when they are not iterable (the entries are left to the caller)."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be an iterable of ints, got {type(values).__name__}") from None


def check_partition(parts) -> tuple[int, ...]:
    """Validate a partition given as an iterable of ints; return it as a tuple."""
    parts = as_tuple(parts, "a partition")
    check_ints(**{f"part {i}": p for i, p in enumerate(parts)})
    if any(p <= 0 for p in parts):
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return parts


def enumerate_partitions(total: int, max_parts: int, max_part: int) -> list[tuple[int, ...]]:
    """All partitions of `total` into at most `max_parts` parts, each at most `max_part`.

    Results are in lexicographically decreasing order; `total == 0` yields the
    single empty partition.  The first is the greedy one (parts of the cap
    and a remainder); each next one lowers by one the last part that can be
    lowered with the parts after it refilled greedily within the slots left.
    """
    check_ints(total=total, max_parts=max_parts, max_part=max_part)
    if total < 0 or max_parts < 0 or max_part < 0:
        raise ValueError("enumerate_partitions arguments must be nonnegative")
    if total > max_parts * max_part:
        return []
    out: list[tuple[int, ...]] = []
    parts: list[int] = []
    rest, cap = total, max_part
    while True:
        q, r = divmod(rest, cap or 1)  # the cap is 0 only when nothing is left
        parts += [cap] * q + [r] * (r > 0)
        out.append(tuple(parts))
        rest = 0
        for i in range(len(parts) - 1, -1, -1):
            rest += parts[i]
            cap = parts[i] - 1
            if rest <= (max_parts - i) * cap:
                break
        else:
            return out
        del parts[i:]


def count_partitions(total: int, max_parts: int, max_part: int) -> int:
    """Number of partitions of `total` into at most `max_parts` parts, each at most `max_part`.

    The coefficient of q^total in the Gaussian binomial
    Π_{i=1}^{k} (1 − q^{m+i}) / (1 − q^i), k and m the slot count and the
    cap (swapped freely, as conjugation swaps them), by exact power-series
    arithmetic cut past q^total; independent of the enumerator.  It keeps
    total + 1 coefficients and makes min(k, m) passes over them.
    """
    check_ints(total=total, max_parts=max_parts, max_part=max_part)
    if total < 0 or max_parts < 0 or max_part < 0:
        raise ValueError("count_partitions arguments must be nonnegative")
    k, m = sorted((min(max_parts, total), min(max_part, total)))
    coeffs = [1] + [0] * total
    for i in range(1, k + 1):
        d = m + i  # times 1 - q^d, then over 1 - q^i: a prefix sum along each residue mod i
        coeffs[d:] = map(sub, coeffs[d:], coeffs[: total + 1 - d])
        for r in range(min(i, total + 1 - i)):  # the residues with two or more terms
            coeffs[r::i] = accumulate(coeffs[r::i])
    return coeffs[total]


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
