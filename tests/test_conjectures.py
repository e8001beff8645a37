"""Conjecture scanners: instance ranges, reports, counterexample plumbing."""

from __future__ import annotations

import pytest

import zsumfree.conjectures as conj
from zsumfree.complexes import (
    CapacityError,
    f_to_h,
    faces_by_dimension,
    h_vector_disjoint_simplices,
    is_connected,
    is_pure,
)
from zsumfree.conjectures import (
    SCANNERS,
    ScanReport,
    isolated_instances,
    log_concavity_instances,
    scan_connectivity,
    scan_hvector_purity,
    scan_log_concavity,
    scan_no_isolated_vertices,
    scan_purity_prime,
)
from zsumfree.zerosumfree import ZsfParams, build_complex


REPORT_KEYS = {"conjecture", "range", "checked", "counterexamples", "elapsed_ms", "status"}


# ---------------------------------------------------------------------------
# instance ranges


def test_isolated_instances():
    assert isolated_instances(2) == []
    assert isolated_instances(3) == [(3, 2)]
    assert isolated_instances(11) == [
        (3, 2), (5, 2), (5, 4), (7, 4), (7, 6), (11, 6), (11, 8), (11, 10),
    ]


def test_log_concavity_instances():
    distinct = log_concavity_instances(10)
    assert len(distinct) == 42
    assert all(len(set(lam)) == len(lam) for lam in distinct)
    assert (3, 1) in distinct and (2, 2) not in distinct
    everything = log_concavity_instances(10, include_repeated=True)
    assert len(everything) == 138
    assert (2, 2) in everything
    assert set(distinct) <= set(everything)


# ---------------------------------------------------------------------------
# scans at their acceptance ranges


def test_scan_isolated():
    rep = scan_no_isolated_vertices(11)
    assert rep.conjecture == "isolated"
    assert rep.range == {"p_max": 11}
    assert rep.checked == 8
    assert rep.counterexamples == []
    assert rep.status == "confirmed-in-range"


def test_scan_purity_prime():
    rep = scan_purity_prime(19)
    assert rep.checked == 9
    assert rep.counterexamples == []
    assert rep.status == "confirmed-in-range"
    # the predicate under scan, spot-checked both ways
    assert is_pure(build_complex(ZsfParams(7, 3)))
    assert is_pure(build_complex(ZsfParams(7, 4)))
    assert not is_pure(build_complex(ZsfParams(9, 4)))
    assert not is_pure(build_complex(ZsfParams(9, 5)))


def test_scan_hvector_purity():
    rep = scan_hvector_purity(19)
    assert rep.checked == 171
    assert rep.counterexamples == []
    # pure with a negative h entry: hypothesis fails, so not a counterexample
    c = build_complex(ZsfParams(12, 6))
    assert f_to_h(faces_by_dimension(c)) == [1, 3, -3, 1]
    assert is_pure(c)
    # pure with nonnegative h: conjecture instance that holds
    c = build_complex(ZsfParams(6, 3))
    assert f_to_h(faces_by_dimension(c)) == [1, 0, 0, 0]
    assert is_pure(c)


def test_scan_connectivity():
    rep = scan_connectivity(16)
    assert rep.checked == 56
    assert rep.counterexamples == []
    # boundary: n = 2ℓ is excluded by the strict inequality, and indeed
    # Δ_{12,6} is disconnected
    assert not is_connected(build_complex(ZsfParams(12, 6)))


def test_scan_log_concavity():
    rep = scan_log_concavity(30)
    assert rep.checked == 2034
    assert rep.counterexamples == []
    assert rep.range == {"max_sum": 30, "include_repeated": False}
    assert h_vector_disjoint_simplices((3, 1)) == [1, 1, -2, 1]
    assert h_vector_disjoint_simplices((2,)) == [1, 0, 0]


def test_scan_log_concavity_repeated_parts():
    rep = scan_log_concavity(12, include_repeated=True)
    assert rep.range == {"max_sum": 12, "include_repeated": True}
    assert rep.checked == sum(
        1 for _ in log_concavity_instances(12, include_repeated=True)
    )
    assert rep.counterexamples == []


# ---------------------------------------------------------------------------
# counterexample plumbing


def test_counterexample_recording_purity(monkeypatch):
    monkeypatch.setattr(conj, "is_prime", lambda x: True)
    rep = scan_purity_prime(9)
    assert rep.status == "counterexample-found"
    assert {"params": {"n": 9, "ell": 4}, "witness": {"pure": False, "prime": True}} in rep.counterexamples
    assert all(ce["params"]["n"] == 9 for ce in rep.counterexamples)


def test_counterexample_recording_isolated(monkeypatch):
    monkeypatch.setattr(conj, "isolated_vertices", lambda c: [1])
    rep = scan_no_isolated_vertices(3)
    assert rep.status == "counterexample-found"
    assert rep.counterexamples == [
        {"params": {"p": 3, "n": 6, "ell": 2}, "witness": {"isolated_vertices": [1]}}
    ]


def test_report_json_shape():
    rep = scan_purity_prime(9)
    blob = rep.to_json()
    assert set(blob) == REPORT_KEYS
    assert blob["status"] == "confirmed-in-range"
    assert isinstance(blob["elapsed_ms"], int)
    flagged = ScanReport("x", {}, 1, counterexamples=[{"params": {}, "witness": {}}])
    assert flagged.status == "counterexample-found"


def test_scan_determinism():
    a = scan_connectivity(12).to_json()
    b = scan_connectivity(12).to_json()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


# ---------------------------------------------------------------------------
# caps and registry


def test_scan_caps():
    with pytest.raises(CapacityError):
        scan_no_isolated_vertices(13)
    with pytest.raises(CapacityError):
        scan_purity_prime(25)
    with pytest.raises(CapacityError):
        scan_hvector_purity(25)
    with pytest.raises(CapacityError):
        scan_connectivity(25)
    with pytest.raises(CapacityError):
        scan_log_concavity(conj.MAX_SUM_CAP + 1)


def test_scanner_registry():
    assert sorted(SCANNERS) == [
        "connectivity", "hvec-purity", "isolated", "log-concavity", "purity-prime",
    ]
    assert SCANNERS["isolated"] == (scan_no_isolated_vertices, "p_max")
    assert SCANNERS["log-concavity"] == (scan_log_concavity, "max_sum")
    assert all(callable(fn) for fn, _ in SCANNERS.values())
