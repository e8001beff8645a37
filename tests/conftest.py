"""Shared fixtures: a corpus of small complexes and acceptance reporting."""

from __future__ import annotations

from zsumfree import SimplicialComplex, ZsfParams, build_complex
from zsumfree.complexes import _vertices_of

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def decoded(masks) -> list[frozenset]:
    """Vertex bit masks (bit v for vertex v) as frozensets, in order."""
    return [frozenset(_vertices_of(m)) for m in masks]


def hand_fixtures() -> list[SimplicialComplex]:
    """Assorted small complexes exercising edge shapes."""
    return [
        SimplicialComplex([0, 1], [frozenset()]),                       # void
        SimplicialComplex(range(3), [frozenset({0})]),                  # point
        SimplicialComplex(range(4), [frozenset({1, 2}), frozenset({2, 3})]),
        SimplicialComplex(range(6), [frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({5})]),
        SimplicialComplex(range(7), [frozenset({1, 2, 3}), frozenset({3, 4}), frozenset({5, 6})]),
        SimplicialComplex(range(5), [frozenset({0, 2, 4}), frozenset({1, 3})]),
        SimplicialComplex(range(8), [frozenset(range(7))]),             # near-full simplex
    ]


def corpus_complexes() -> list[SimplicialComplex]:
    """Every Δ_{n,ℓ} with n ≤ 12 plus the hand fixtures."""
    out = []
    for n in range(2, 13):
        for ell in range(1, n):
            out.append(build_complex(ZsfParams(n, ell)))
    out.extend(hand_fixtures())
    return out
