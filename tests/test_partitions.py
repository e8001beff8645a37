"""Partition enumeration, conjugation, and binomial identities."""

from __future__ import annotations

import itertools
from enum import IntEnum

import pytest

from zsumfree.partitions import (
    alternating_binomial_sum,
    binomial,
    check_partition,
    conjugate,
    count_partitions,
    enumerate_partitions,
)


def ascending_partitions(total: int) -> list[tuple[int, ...]]:
    """All partitions of `total` via accelerated ascending composition (oracle)."""
    if total == 0:
        return [()]
    a = [0] * (total + 1)
    k = 1
    a[1] = total
    out = []
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        out.append(tuple(a[: k + 1]))
    return out


def brute_partitions(total: int, max_parts: int, max_part: int) -> set[tuple[int, ...]]:
    """Bounded partitions by filtering the unbounded oracle list."""
    return {
        tuple(reversed(p))
        for p in ascending_partitions(total)
        if len(p) <= max_parts and (not p or p[-1] <= max_part)
    }


def test_check_partition_accepts_and_normalizes():
    assert check_partition([3, 2, 2]) == (3, 2, 2)
    assert check_partition(()) == ()
    assert check_partition((5,)) == (5,)


def test_check_partition_rejects_bad_shapes():
    for bad in [(1, 2), (3, 0), (2, -1), (2, 3, 1)]:
        try:
            check_partition(bad)
        except ValueError:
            continue
        raise AssertionError(f"accepted {bad}")


class Size(IntEnum):
    THREE = 3


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_partition([2.5]), "part 0 must be an int, got 2.5"),
        (lambda: check_partition([3, 2.7]), "part 1 must be an int, got 2.7"),
        (lambda: check_partition(["3"]), "part 0 must be an int, got '3'"),
        (lambda: check_partition([Size.THREE]), "part 0 must be an int, got <Size.THREE: 3>"),
        (lambda: conjugate([True]), "part 0 must be an int, got True"),
        (lambda: check_partition(None), "a partition must be an iterable of ints, got NoneType"),
        (lambda: conjugate(5), "a partition must be an iterable of ints, got int"),
        (lambda: enumerate_partitions(True, 2, 2), "total must be an int, got True"),
        (lambda: enumerate_partitions(4, 2.0, 2), "max_parts must be an int, got 2.0"),
        (lambda: count_partitions(4.0, 2, 2), "total must be an int, got 4.0"),
        (lambda: count_partitions("4", 2, 2), "total must be an int, got '4'"),
        (lambda: count_partitions(4, 2, Size.THREE), "max_part must be an int, got <Size.THREE: 3>"),
    ],
)
def test_partition_arguments_must_be_ints(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("fn", [enumerate_partitions, count_partitions])
@pytest.mark.parametrize("args", [(-1, 2, 2), (4, -1, 2), (4, 2, -1)])
def test_partition_counters_refuse_negative_arguments(fn, args):
    with pytest.raises(ValueError) as exc:
        fn(*args)
    assert str(exc.value) == f"{fn.__name__} arguments must be nonnegative"


def test_enumeration_examples():
    assert enumerate_partitions(6, 3, 5) == [
        (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (2, 2, 2),
    ]
    assert enumerate_partitions(0, 3, 5) == [()]
    assert enumerate_partitions(12, 3, 5) == [(5, 5, 2), (5, 4, 3), (4, 4, 4)]
    assert enumerate_partitions(7, 2, 3) == []


def test_enumeration_order_is_lexicographically_decreasing():
    for total, parts, part in [(9, 4, 6), (12, 5, 7), (10, 10, 10)]:
        seq = enumerate_partitions(total, parts, part)
        assert seq == sorted(seq, reverse=True)
        assert len(seq) == len(set(seq))


def test_enumeration_matches_brute_force_grid():
    for total in range(0, 15):
        for max_parts in range(0, total + 2):
            for max_part in range(0, total + 2):
                got = enumerate_partitions(total, max_parts, max_part)
                assert got == sorted(brute_partitions(total, max_parts, max_part), reverse=True), (
                    total, max_parts, max_part,
                )


def test_enumeration_matches_multiset_filter_spot_checks():
    # second oracle with a different shape: filter fixed-size multisets
    for total, max_parts, max_part in [(8, 3, 6), (9, 9, 4), (7, 5, 7), (10, 4, 5)]:
        expected = {()} if total == 0 else set()
        for k in range(1, max_parts + 1):
            for combo in itertools.combinations_with_replacement(range(1, max_part + 1), k):
                if sum(combo) == total:
                    expected.add(tuple(sorted(combo, reverse=True)))
        assert set(enumerate_partitions(total, max_parts, max_part)) == expected


def test_enumeration_count_matches_recurrence_on_larger_inputs():
    for total, max_parts, max_part in [
        (30, 6, 12), (40, 8, 9), (50, 5, 20), (60, 10, 10), (45, 45, 45),
    ]:
        got = enumerate_partitions(total, max_parts, max_part)
        assert len(got) == count_partitions(total, max_parts, max_part)
        assert all(
            sum(p) == total and len(p) <= max_parts and (not p or p[0] <= max_part)
            for p in got
        )


def test_large_arguments_need_no_recursion():
    assert enumerate_partitions(1200, 1200, 1) == [(1,) * 1200]
    assert enumerate_partitions(1200, 1, 1200) == [(1200,)]
    # p(1500) by the textbook O(n^2) dynamic program over the largest part
    p = [1] + [0] * 1500
    for part in range(1, 1501):
        for s in range(part, 1501):
            p[s] += p[s - part]
    assert count_partitions(1500, 1500, 1500) == p[1500]
    assert count_partitions(1500, 1500, 3000) == p[1500]
    assert count_partitions(10**6, 2, 10**6) == 500001


def test_conjugate_examples_and_involution():
    assert conjugate((5, 4, 1, 1)) == (4, 2, 2, 2, 1)
    assert conjugate(()) == ()
    assert conjugate((3, 3)) == (2, 2, 2)
    for total in range(0, 13):
        for lam in enumerate_partitions(total, total, total):
            assert conjugate(conjugate(lam)) == lam


def test_conjugate_involution_on_wide_partitions():
    for lam in [(20,) * 20, (20, 19, 3, 1), (13, 11, 7, 5, 3, 2, 1)]:
        assert conjugate(conjugate(lam)) == lam


def test_binomial_conventions():
    assert binomial(5, 2) == 10
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1
    assert binomial(7, -1) == 0
    assert binomial(64, 32) == 1832624140942590534


def test_alternating_binomial_sum_examples():
    assert alternating_binomial_sum(2, 3, 2) == 1
    assert alternating_binomial_sum(4, 4, 3) == 4
    for a in range(8):
        for k in range(8):
            assert alternating_binomial_sum(a, 0, k) == binomial(a, k)


def test_alternating_binomial_sum_identity_full_grid():
    for a in range(13):
        for b in range(13):
            for k in range(13):
                assert alternating_binomial_sum(a, b, k) == binomial(a, k), (a, b, k)
