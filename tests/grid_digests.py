"""Record what `compute` prints over a small grid of (n, ℓ).

    PYTHONPATH=src python3 tests/grid_digests.py

Run from the root of a source tree.  Writes `tests/grid_digests.json`: for
every `compute n ℓ --no-cache` with n ≤ 24 and every
`compute n ℓ --arrangement --no-cache` with n ≤ 16 (1 ≤ ℓ < n, capacity
errors included), the exit code and the sha256 of stdout and of stderr.
`test_cli.py::test_compute_matches_the_grid_digests` replays them, so a
change meant to keep the output byte-identical is checked over the whole
grid.  Record again only when the output is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

GRID_PATH = Path(__file__).resolve().with_name("grid_digests.json")


def grid() -> list[str]:
    """The ops, each without its `--no-cache`."""
    ops = [f"compute {n} {ell}" for n in range(2, 25) for ell in range(1, n)]
    return ops + [f"compute {n} {ell} --arrangement" for n in range(2, 17) for ell in range(1, n)]


def outcome(op: str) -> list:
    """[exit code, sha256 of stdout, sha256 of stderr] of `op --no-cache` run in process."""
    from zsumfree.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*op.split(), "--no-cache"])
    return [code, *(hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))]


def main() -> int:
    digests = {op: outcome(op) for op in grid()}
    rows = (f"  {json.dumps(op)}: {json.dumps(digests[op])}" for op in digests)
    GRID_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"recorded {len(digests)} outcomes in {GRID_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
