"""Command-line front-end for the zsumfree library.

Commands:

* compute n ell   — build Δ_{n,ℓ}, print complex JSON (facets, minimal
                    non-faces, f/h-vectors, purity, connectivity,
                    decomposition); `--arrangement` adds the intersection
                    poset and characteristic polynomial, `--oracle` (n ≤ 24)
                    cross-checks against brute force, `--no-cache` bypasses
                    the artifact cache;
* family KIND ... — verify a closed-form family against the pipeline;
* scan CONJECTURE — run a conjecture scanner; each family kind and conjecture
                    is a subcommand that takes its own flags and no other;
* table --n-max N — one text row per (n,ℓ);
* cache-clear     — delete cached artifacts.

Exit codes: 0 ok, 2 invalid parameters, 3 oracle or family mismatch,
4 capacity exceeded (a size cap, or the interpreter out of memory),
5 conjecture counterexample found, 141 stdout closed before the output was
written (128 + SIGPIPE).

JSON output is the text of `json.dumps(..., indent=2, sort_keys=True)`: `compute`
writes it from vertex masks (`_COMPLEX`, `_poset_text`), the rest call `json.dumps`.

Artifacts are cached under $ZSF_CACHE_DIR (default ~/.cache/zsumfree), one
file per (n, ℓ) whose name carries the artifact version.  An entry is the
text `compute n ℓ` prints, without its final newline: a hit that passes the
checks of `load_cached_payload` prints it as stored.  `--arrangement`
builds the poset on every call, never writes it, and prints the entry's
text with two keys inserted: "char_poly" right after the opening brace and
"poset" just before "pure", which keeps the keys of the output sorted.
Bumping the artifact version invalidates old entries.  A cache that cannot
be read or written never fails a command: an unreadable entry is a miss, a
failed write prints a one-line warning to stderr and leaves stdout and the
exit code as with --no-cache, and `cache-clear` warns about each entry it
cannot remove and goes on.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from itertools import chain, repeat
from pathlib import Path

from .arrangements import IntersectionPoset, build_poset
from .complexes import (
    _BYTE_STRINGS,
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
from .families import FAMILY_FIELDS, FamilySpec, family_report_ok, verify_family
from .zerosumfree import (
    ZsfParams,
    _f_vector,
    brute_force_complex,
    build_complex,
    check_oracle_capacity,
    minimal_nonfaces,
)

ARTIFACT_VERSION = "1"
# `json.dumps(..., indent=2, sort_keys=True)` of `compute`'s output, keys in sorted order
_COMPLEX = (
    '{\n  "connected": %s,\n  "decomposition": %s,\n  "ell": %d,\n  "f_vector": %s,\n  "facets": %s,'
    '\n  "h_vector": %s,\n  "min_nonfaces": %s,\n  "n": %d,\n  "pure": %s\n}'
)
# the keys of `_COMPLEX`, the text `compute` prints; a cache entry with any other set is a miss
ENTRY_KEYS = set(_COMPLEX.split('"')[1::2])
# `scan`'s range flags and their defaults; `SCANNERS` names the flag each scanner takes
SCAN_DEFAULTS = {"p_max": 11, "n_max": 19, "max_sum": 30}

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_CAPACITY = 4
EXIT_COUNTEREXAMPLE = 5
EXIT_BROKEN_PIPE = 141


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
        view = memoryview(data)
        while view:  # os.write may write fewer bytes than it is given
            view = view[os.write(fd, view):]
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


def load_cached_payload(n: int, ell: int) -> tuple[str, SimplicialComplex] | None:
    """The cached entry for (n, ℓ) as (its text, the complex of its facets),
    or None when the entry is missing or malformed; None means recompute.
    The entry is the text `compute n ℓ` prints, so it must hold exactly the
    keys `compute` prints (`ENTRY_KEYS`): `n` and `ell` the ints asked for,
    `facets` and `min_nonfaces` lists of lists of ints in 0..n-1, `f_vector`
    and `h_vector` lists of ints, `pure` and `connected` bools and
    `decomposition` null or a list of ints.  The facets must make a complex
    that `SimplicialComplex.from_masks` accepts, listed as it lists them:
    each facet's vertices ascending, the facets in its order.  The text must
    hold the literal `"pure"` exactly once: no value is a string, so that
    literal is the key, and `--arrangement` inserts the poset before it."""
    try:
        text = _cache_path(n, ell).read_text()
        entry = json.loads(text)
    except (OSError, ValueError, RecursionError):  # json.loads: RecursionError when nested too deep
        return None
    if not isinstance(entry, dict) or entry.keys() != ENTRY_KEYS or text.count('"pure"') != 1:
        return None
    if {type(entry["pure"]), type(entry["connected"])} != {bool}:
        return None
    decomposition = entry["decomposition"]
    counts = [entry["f_vector"], entry["h_vector"], [] if decomposition is None else decomposition]
    if set(map(type, counts)) != {list}:
        return None
    vertices = []
    for key in ("facets", "min_nonfaces"):
        sets = entry[key]
        if not isinstance(sets, list) or set(map(type, sets)) - {list}:
            return None
        vertices += chain.from_iterable(sets)
    # one C-level pass over the types (a bool or float is no vertex, no
    # count and no parameter), then the parameters and the vertex range
    parameters = [entry["n"], entry["ell"]]
    if set(map(type, chain(parameters, vertices, *counts))) - {int} or parameters != [n, ell]:
        return None
    if vertices and not 0 <= min(vertices) <= max(vertices) < n:
        return None
    facets = entry["facets"]
    try:
        c = SimplicialComplex.from_masks((1 << n) - 1, [_mask_of(f) for f in facets])
    except ValueError:
        return None
    if [list(_vertices_of(m)) for m in c._facet_masks] != facets:
        return None
    return text, c


def store_payload(n: int, ell: int, text: str) -> None:
    _atomic_write(_cache_path(n, ell), text.encode())


# ---------------------------------------------------------------------------
# commands


def _ints(values, newline: str) -> str:
    """The text of `json.dumps(values, indent=2)` for a list of ints or None,
    each line break followed by `newline`'s indent: `[]` and `null` included."""
    if values is None:
        return "null"
    if not values:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(str, values)) + newline + "]"


def _rows(masks, newline: str) -> str:
    """The text of `json.dumps([list(_vertices_of(m)) for m in masks], indent=2)`,
    each line break followed by `newline`'s indent: one join over the rows'
    vertex strings, read off `_BYTE_STRINGS`.  A 0 mask is the row `[]`."""
    if not masks:
        return "[]"
    inner, deep = newline + "  ", newline + "    "
    rows = map(("," + deep).join, map(_vertices_of, masks, repeat(_BYTE_STRINGS)))
    text = "[" + inner + "[" + deep + (inner + "]," + inner + "[" + deep).join(rows) + inner + "]" + newline + "]"
    return text.replace("[" + deep + inner + "]", "[]") if 0 in masks else text


def _complex_text(params: ZsfParams, c: SimplicialComplex, mnf: list[int], f: list[int]) -> str:
    """The text `compute` prints for the complex `c` of `params`, its minimal
    non-face masks `mnf` and its f-vector `f`, without its final newline."""
    return _COMPLEX % (
        "true" if is_connected(c) else "false", _ints(decompose_disjoint_simplices(c), "\n  "), params.ell,
        _ints(f, "\n  "), _rows(c._facet_masks, "\n  "), _ints(f_to_h(f), "\n  "), _rows(mnf, "\n  "),
        params.n, "true" if is_pure(c) else "false",
    )


def _poset_text(poset: IntersectionPoset) -> str:
    """The text of `json.dumps(poset.to_json(), indent=2, sort_keys=True)`
    indented by two spaces, the poset's value in the output of
    `compute --arrangement`, read off the poset's fields.  The element rows
    are one `%` template, made by one join over the supports' vertex strings,
    that one `%` fills with the dimensions and Möbius values: no call per
    element.  Some support is not empty, as the void complex has no poset.
    χ is written by `_ints`, and each Hasse pair by one `%` on `pair`."""
    masks = poset.support_masks
    empty = masks[-1] == 0  # the empty support is the smallest, so last
    element = '{\n        "dim": %d,\n        "mobius": %d,\n        "support": '
    between = "\n      },\n      " + element
    pair = "[\n        %d,\n        %d\n      ]"
    supports = map(",\n          ".join, map(_vertices_of, masks[:-1] if empty else masks, repeat(_BYTE_STRINGS)))
    rows = "".join((
        element, '"ambient"', between, "[\n          ",
        ("\n        ]" + between + "[\n          ").join(supports), "\n        ]",
        between + "[]" if empty else "",
    )) % tuple(chain.from_iterable(zip(chain([poset.n_vertices], map(int.bit_count, masks)), poset.mobius)))
    return "".join((
        '{\n    "char_poly": ', _ints(poset.char_poly, "\n    "),
        ',\n    "elements": [\n      ', rows,
        '\n      }\n    ],\n    "graded": ', "true" if poset.graded else "false",
        ',\n    "hasse": [\n      ', ",\n      ".join(map(pair.__mod__, poset.covers)),
        '\n    ],\n    "rank": ', "null" if poset.rank is None else str(poset.rank), "\n  }",
    ))


def cmd_compute(args) -> int:
    params = ZsfParams(args.n, args.ell)
    use_cache = not args.no_cache
    # n alone decides the oracle's cap, so refuse before any cache or build work
    if args.oracle:
        check_oracle_capacity(params.n)

    entry = load_cached_payload(params.n, params.ell) if use_cache else None
    if entry is not None:
        text, c = entry
    else:
        c = build_complex(params)
        mnf = minimal_nonfaces(params)
        text = _complex_text(params, c, mnf, _f_vector(params, mnf, c))
        if use_cache:
            try:
                store_payload(params.n, params.ell, text)
            except OSError as exc:
                print(f"warning: cache entry not written: {exc}", file=sys.stderr)

    # the poset and the oracle run before anything is printed, so a capacity
    # error leaves stdout empty; the poset is never cached.  Its two keys go
    # into the entry's text: "char_poly" first, "poset" just before "pure"
    if args.arrangement:
        poset = build_poset(c)
        start = text.index("{") + 1
        pure = text.index('"pure"')
        text = "".join((
            text[:start], '\n  "char_poly": ', _ints(poset.char_poly, "\n  "), ",",
            text[start:pure], '"poset": ', _poset_text(poset), ",\n  ", text[pure:],
        ))
    agrees = not args.oracle or brute_force_complex(params) == c
    print(text)

    if not agrees:
        print(f"oracle mismatch for n={params.n} ell={params.ell}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_family(args) -> int:
    spec = FamilySpec(args.kind, **{name: getattr(args, name) for name in FAMILY_FIELDS[args.kind]})
    report = verify_family(spec, oracle=args.oracle)
    print(json.dumps(report, indent=2, sort_keys=True))
    if not family_report_ok(spec, report):
        print("family verification found an unexpected mismatch", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_scan(args) -> int:
    scanner, flag = SCANNERS[args.conjecture]
    if args.include_repeated:
        report = scanner(getattr(args, flag), include_repeated=True)
    else:
        report = scanner(getattr(args, flag))
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return EXIT_COUNTEREXAMPLE if report.counterexamples else EXIT_OK


def table_rows(n_max: int) -> list[str]:
    rows = []
    for n in range(2, n_max + 1):
        for ell in range(1, n):
            c = build_complex(ZsfParams(n, ell))
            pure = "yes" if is_pure(c) else "no"
            conn = "yes" if is_connected(c) else "no"
            count = len(c._facet_masks)
            noun = "facet" if count == 1 else "facets"
            parts = decompose_disjoint_simplices(c)
            dec = "-" if parts is None else "(" + ",".join(map(str, parts)) + ")"
            rows.append(
                f"{n} {ell} | {count} {noun} | dim {c.dim()} | pure={pure} | conn={conn} | {dec}"
            )
    return rows


def cmd_table(args) -> int:
    if args.n_max < 2:
        raise ValueError(f"table needs n_max at least 2, got {args.n_max}")
    if args.n_max > N_MAX_CAP:
        raise CapacityError(f"table supports n_max up to {N_MAX_CAP}, got {args.n_max}")
    rows = table_rows(args.n_max)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
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
    p.set_defaults(func=cmd_family)
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, fields in FAMILY_FIELDS.items():
        p = kinds.add_parser(kind)
        for name in fields:
            p.add_argument("--" + name, type=int, required=True)
        oracle = p.add_mutually_exclusive_group()
        oracle.add_argument("--oracle", action="store_const", const=True, help="force the brute-force cross-check")
        oracle.add_argument("--no-oracle", dest="oracle", action="store_const", const=False,
                            help="skip the brute-force cross-check")

    p = sub.add_parser("scan", help="run a conjecture scanner")
    p.set_defaults(func=cmd_scan, include_repeated=False)  # set by the log-concavity subcommand alone
    conjectures = p.add_subparsers(dest="conjecture", required=True)
    for conjecture, (_, flag) in sorted(SCANNERS.items()):
        p = conjectures.add_parser(conjecture)
        p.add_argument("--" + flag.replace("_", "-"), type=int, default=SCAN_DEFAULTS[flag],
                       help="default %(default)s")
        if conjecture == "log-concavity":
            p.add_argument("--include-repeated", action="store_true",
                           help="also scan partitions with repeated parts")

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
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: let that write go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        print("capacity exceeded: out of memory", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
