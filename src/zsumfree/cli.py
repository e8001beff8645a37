"""Command-line front-end for the zsumfree library.

Commands:

* compute n ell   — build Δ_{n,ℓ}, print complex JSON (facets, minimal
                    non-faces, f/h-vectors, purity, connectivity,
                    decomposition); `--arrangement` adds the intersection
                    poset and characteristic polynomial, `--oracle` (n ≤ 24)
                    cross-checks against brute force, `--no-cache` bypasses
                    the artifact cache;
* family ...      — verify a closed-form family against the pipeline;
* scan ...        — run a conjecture scanner;
* table --n-max N — one text row per (n,ℓ);
* cache-clear     — delete cached artifacts.

Exit codes: 0 ok, 2 invalid parameters, 3 oracle or family mismatch,
4 capacity exceeded, 5 conjecture counterexample found.

Artifacts are cached under $ZSF_CACHE_DIR (default ~/.cache/zsumfree), keyed
by (n, ℓ, artifact version); cached payloads are byte-stable.  An entry
holds the complex only: `--arrangement` builds the poset on every call and
never writes.  Bumping the artifact version invalidates old entries.  A
cache that cannot be read or written never fails a command: an unreadable
entry is a miss, a failed write prints a one-line warning to stderr and
leaves stdout and the exit code as with --no-cache, and `cache-clear` warns
about each entry it cannot remove and goes on.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .arrangements import build_poset
from .complexes import (
    CapacityError,
    SimplicialComplex,
    _mask_of,
    _vertices_of,
    decompose_disjoint_simplices,
    f_to_h,
    is_connected,
    is_pure,
)
from .conjectures import N_MAX_CAP, SCANNERS
from .families import FamilySpec, family_report_ok, verify_family
from .zerosumfree import (
    BRUTE_FORCE_CAP,
    ZsfParams,
    _f_vector,
    brute_force_complex,
    build_complex,
    minimal_nonfaces,
)

ARTIFACT_VERSION = "1"
# the keys `_complex_payload` writes; a cached complex with any other set is a miss
COMPLEX_KEYS = {"facets", "min_nonfaces", "f_vector", "h_vector", "pure", "connected", "decomposition"}
# `scan`'s range flags and their defaults; `SCANNERS` names the flag each scanner takes
SCAN_DEFAULTS = {"p_max": 11, "n_max": 19, "max_sum": 30}

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_CAPACITY = 4
EXIT_COUNTEREXAMPLE = 5


def _dump(obj) -> str:
    """The text of `json.dumps(obj, indent=2, sort_keys=True)`, built with one
    join per container: CPython's C encoder does not do indented output."""
    return _encode(obj, "\n")


def _encode(obj, newline: str) -> str:
    # keys must be strings; floats and int subclasses go through json.dumps
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if type(obj) is int:
        return str(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [str(x) if type(x) is int else _encode(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            _quote(k) + ": " + (str(v) if type(v) is int else _encode(v, inner))
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# cache


def cache_dir() -> Path:
    env = os.environ.get("ZSF_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "zsumfree"


def _cache_path(n: int, ell: int) -> Path:
    return cache_dir() / f"complex-n{n}-l{ell}-v{ARTIFACT_VERSION}.json"


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        os.write(fd, data)
        os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.close(fd)
        except OSError:
            pass
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_cached_payload(n: int, ell: int) -> dict | None:
    """The cached payload for (n, ℓ), or None when the entry is missing, stale
    or malformed; None means recompute.  Only the shape and the types are
    checked: the payload must hold the one key `complex` (an entry that also
    holds a `poset`, as older versions wrote, is a miss and gets rewritten
    without it), and `complex` exactly the keys `_complex_payload` writes,
    with `facets` and `min_nonfaces` lists of lists of ints in 0..n-1,
    `f_vector` and `h_vector` lists of ints, `pure` and `connected` bools and
    `decomposition` null or a list of ints."""
    path = _cache_path(n, ell)
    try:
        entry = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    key = {"n": n, "ell": ell, "version": ARTIFACT_VERSION}
    if not isinstance(entry, dict) or entry.get("key") != key:
        return None
    payload = entry.get("payload")
    if not isinstance(payload, dict) or payload.keys() != {"complex"}:
        return None
    complex_ = payload["complex"]
    if not isinstance(complex_, dict) or complex_.keys() != COMPLEX_KEYS:
        return None
    if {type(complex_["pure"]), type(complex_["connected"])} != {bool}:
        return None
    decomposition = complex_["decomposition"]
    counts = [complex_["f_vector"], complex_["h_vector"], [] if decomposition is None else decomposition]
    if set(map(type, counts)) != {list}:
        return None
    vertices = []
    for key in ("facets", "min_nonfaces"):
        sets = complex_[key]
        if not isinstance(sets, list) or set(map(type, sets)) - {list}:
            return None
        vertices += chain.from_iterable(sets)
    # one C-level pass over the types (a bool or float is no vertex and no
    # count), then the range of the vertices
    if set(map(type, chain(vertices, *counts))) - {int} or (vertices and not 0 <= min(vertices) <= max(vertices) < n):
        return None
    return payload


def store_payload(n: int, ell: int, payload: dict) -> None:
    entry = {
        "key": {"n": n, "ell": ell, "version": ARTIFACT_VERSION},
        "payload": payload,
    }
    data = json.dumps(entry, sort_keys=True, separators=(",", ":")).encode()
    _atomic_write(_cache_path(n, ell), data)


# ---------------------------------------------------------------------------
# commands


def _complex_payload(params: ZsfParams) -> dict:
    c = build_complex(params)
    mnf = minimal_nonfaces(params)
    f = _f_vector(params, mnf, c)
    decomposition = decompose_disjoint_simplices(c)
    return {
        "facets": [list(_vertices_of(m)) for m in c._facet_masks],
        "min_nonfaces": [list(_vertices_of(m)) for m in mnf],
        "f_vector": f,
        "h_vector": f_to_h(f),
        "pure": is_pure(c),
        "connected": is_connected(c),
        "decomposition": list(decomposition) if decomposition is not None else None,
    }


def cmd_compute(args) -> int:
    params = ZsfParams(args.n, args.ell)
    use_cache = not args.no_cache
    # n alone decides the oracle's cap, so refuse before any cache or build work
    if args.oracle and params.n > BRUTE_FORCE_CAP:
        raise CapacityError(f"brute_force_complex supports n ≤ {BRUTE_FORCE_CAP}, got {params.n}")

    payload = load_cached_payload(params.n, params.ell) if use_cache else None
    if payload is None:
        payload = {"complex": _complex_payload(params)}
        if use_cache:
            try:
                store_payload(params.n, params.ell, payload)
            except OSError as exc:
                print(f"warning: cache entry not written: {exc}", file=sys.stderr)
    complex_ = payload["complex"]

    # the poset and the oracle run before anything is printed, so a capacity
    # error leaves stdout empty; the poset is never cached
    if args.arrangement:
        facets = [_mask_of(f) for f in complex_["facets"]]
        poset = build_poset(SimplicialComplex.from_masks((1 << params.n) - 1, facets)).to_json()
    agrees = True
    if args.oracle:
        oracle_facets = set(brute_force_complex(params)._facet_masks)
        agrees = oracle_facets == set(map(_mask_of, complex_["facets"]))

    out = {"n": params.n, "ell": params.ell}
    out.update(complex_)
    if args.arrangement:
        out["poset"] = poset
        out["char_poly"] = poset["char_poly"]
    print(_dump(out))

    if not agrees:
        print(f"oracle mismatch for n={params.n} ell={params.ell}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _family_spec(args) -> FamilySpec:
    def need(name):
        value = getattr(args, name)
        if value is None:
            raise ValueError(f"family '{args.kind}' requires --{name}")
        return value

    if args.kind == "doubling":
        return FamilySpec.doubling(need("rho"), need("m"))
    if args.kind == "prime-power":
        return FamilySpec.prime_power(need("p"), need("e"))
    return FamilySpec.arms_legs(need("p"), need("s"))


def cmd_family(args) -> int:
    spec = _family_spec(args)
    oracle = None
    if args.oracle:
        oracle = True
    elif args.no_oracle:
        oracle = False
    report = verify_family(spec, oracle=oracle)
    print(_dump(report))
    if not family_report_ok(spec, report):
        print("family verification found an unexpected mismatch", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_scan(args) -> int:
    scanner, flag = SCANNERS[args.conjecture]
    stray = [other for other in SCAN_DEFAULTS if other != flag and getattr(args, other) is not None]
    if args.include_repeated and args.conjecture != "log-concavity":
        stray.append("include_repeated")
    if stray:
        raise ValueError(f"--{stray[0].replace('_', '-')} does not apply to scan {args.conjecture}")
    value = getattr(args, flag)
    if value is None:
        value = SCAN_DEFAULTS[flag]
    if args.include_repeated:
        report = scanner(value, include_repeated=True)
    else:
        report = scanner(value)
    print(_dump(report.to_json()))
    return EXIT_COUNTEREXAMPLE if report.counterexamples else EXIT_OK


def _decomposition_text(parts) -> str:
    if parts is None:
        return "-"
    return "(" + ",".join(str(x) for x in parts) + ")"


def table_rows(n_max: int) -> list[str]:
    rows = []
    for n in range(2, n_max + 1):
        for ell in range(1, n):
            c = build_complex(ZsfParams(n, ell))
            pure = "yes" if is_pure(c) else "no"
            conn = "yes" if is_connected(c) else "no"
            count = len(c._facet_masks)
            noun = "facet" if count == 1 else "facets"
            dec = _decomposition_text(decompose_disjoint_simplices(c))
            rows.append(
                f"{n} {ell} | {count} {noun} | dim {c.dim()} | pure={pure} | conn={conn} | {dec}"
            )
    return rows


def cmd_table(args) -> int:
    if args.n_max > N_MAX_CAP:
        raise CapacityError(f"table supports n_max up to {N_MAX_CAP}, got {args.n_max}")
    rows = table_rows(args.n_max)
    if args.json:
        print(_dump(rows))
    else:
        for row in rows:
            print(row)
    return EXIT_OK


def cmd_cache_clear(args) -> int:
    directory = cache_dir()
    removed = 0
    if directory.is_dir():
        for path in sorted(directory.glob("complex-n*-l*-v*.json")):
            try:
                path.unlink()
            except OSError as exc:
                print(f"warning: cache entry not removed: {exc}", file=sys.stderr)
            else:
                removed += 1
    print(f"removed {removed} cached artifact(s) from {directory}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later `main`
    call in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="zsumfree",
        description="ℓ-zero-sumfree complexes of Z/nZ: build, verify, scan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="build Δ_{n,ℓ} and print its JSON artifact")
    p.add_argument("n", type=int)
    p.add_argument("ell", type=int)
    p.add_argument("--arrangement", action="store_true", help="add intersection poset + char poly")
    p.add_argument("--oracle", action="store_true", help="cross-check against brute force (n ≤ 24)")
    p.add_argument("--no-cache", action="store_true", help="bypass the artifact cache")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("family", help="verify a closed-form facet family")
    p.add_argument("kind", choices=["doubling", "prime-power", "arms-legs"])
    p.add_argument("--rho", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--s", type=int)
    oracle = p.add_mutually_exclusive_group()
    oracle.add_argument("--oracle", action="store_true", help="force the brute-force cross-check")
    oracle.add_argument("--no-oracle", action="store_true", help="skip the brute-force cross-check")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("scan", help="run a conjecture scanner")
    p.add_argument("conjecture", choices=sorted(SCANNERS))
    for flag, default in SCAN_DEFAULTS.items():
        takers = ", ".join(name for name, (_, taken) in SCANNERS.items() if taken == flag)
        p.add_argument("--" + flag.replace("_", "-"), dest=flag, type=int,
                       help=f"{takers} only (default {default})")
    p.add_argument("--include-repeated", action="store_true",
                   help="log-concavity only: also scan partitions with repeated parts")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("table", help="survey all (n,ℓ) up to n-max, one text row each")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--json", action="store_true", help="emit the rows as a JSON array")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("cache-clear", help="delete cached artifacts")
    p.set_defaults(func=cmd_cache_clear)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
