"""Output checks for benchmark ops, run outside the timed region.

An op passes when its exit code is 0 and its stdout
* matches the digest recorded for it (`digests.json`, written by
  `record_digests.py` at the commit that defined the benchmark),
* matches the reference stdout captured for it during set-up, if any
  (warm-cache ops are compared byte for byte with their cold output), and
* for `compute`: every facet is a face that no single vertex extends, every
  minimal non-face is a non-face whose one-smaller subsets are all faces, and
  the h-vector is the transform of the f-vector;
* for `family`: the facets and the oracle both agree with the pipeline.

A stdout already verified for the same op is not checked again.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def op_key(argv: list[str]) -> str:
    """The op without `--no-cache`, which does not change stdout."""
    return " ".join(a for a in argv if a != "--no-cache")


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def _compute_errors(argv: list[str], out: dict) -> list[str]:
    from zsumfree.complexes import f_to_h
    from zsumfree.zerosumfree import ZsfParams, is_face

    n, ell = int(argv[1]), int(argv[2])
    if (out.get("n"), out.get("ell")) != (n, ell):
        return [f"wrong parameters {out.get('n')}, {out.get('ell')}"]
    params = ZsfParams(n, ell)
    errors = []
    for facet in out["facets"]:
        if not is_face(params, facet):
            errors.append(f"facet {facet} is not a face")
        elif any(is_face(params, facet + [v]) for v in range(n) if v not in facet):
            errors.append(f"facet {facet} is not maximal")
    for s in out["min_nonfaces"]:
        if is_face(params, s):
            errors.append(f"minimal non-face {s} is a face")
        elif not all(is_face(params, s[:i] + s[i + 1:]) for i in range(len(s))):
            errors.append(f"minimal non-face {s} is not minimal")
    if out["h_vector"] != f_to_h(out["f_vector"]):
        errors.append("h_vector is not f_to_h(f_vector)")
    return errors


class Checker:
    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self.reference: dict[str, str] = {}   # op key -> expected stdout
        self._verified: dict[str, str] = {}   # op key -> digest of checked stdout

    def errors(self, argv: list[str], code, stdout: str) -> list[str]:
        """Why the op failed; empty when it passed."""
        if code != 0:
            return [f"exit code {code}"]
        key, sha = op_key(argv), digest(stdout)
        if self._verified.get(key) == sha:
            return []
        if key not in self.digests:
            return ["no recorded digest"]
        errors = []
        if self.digests[key] != sha:
            errors.append("stdout differs from the recorded digest")
        if key in self.reference and self.reference[key] != stdout:
            errors.append("stdout differs from the cold stdout captured in set-up")
        try:
            out = json.loads(stdout)
            if argv[0] == "compute":
                errors += _compute_errors(argv, out)
            elif not (out["facets_match"] is True and out["oracle_match"] is True):
                errors.append("family facets or oracle disagree with the pipeline")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            errors.append(f"malformed stdout: {exc!r}")
        if not errors:
            self._verified[key] = sha
        return errors
