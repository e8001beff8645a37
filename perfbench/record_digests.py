"""Record the stdout digest of every op in every workload's deck.

    python3 perfbench/record_digests.py

Run from the root of a source tree.  Writes `perfbench/digests.json`, which
the benchmark's output checks compare against.  Run it only when the decks
change: the digests pin the output of the commit that recorded them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import workloads
from checks import DIGESTS_PATH, digest, op_key

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    from zsumfree import cli

    keys = {op_key(argv): argv for w in workloads.WORKLOADS for argv in workloads.deck(w)}
    digests = {}
    with tempfile.TemporaryDirectory() as cache:
        os.environ["ZSF_CACHE_DIR"] = cache
        for key, argv in sorted(keys.items()):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([*argv, "--no-cache"] if argv[0] == "compute" and "--no-cache" not in argv else argv)
            if code != 0:
                print(f"{key}: exit code {code}", file=sys.stderr)
                return 1
            digests[key] = digest(out.getvalue())
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
