"""CLI surface: commands, exit codes, cache behavior, output stability."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zsumfree.arrangements as arr
import zsumfree.cli as cli
import zsumfree.conjectures as conj
import zsumfree.families as fam
from zsumfree.cli import main, table_rows
from zsumfree.complexes import (
    MAX_VERTICES,
    CapacityError,
    SimplicialComplex,
    decompose_disjoint_simplices,
    f_to_h,
    faces_by_dimension,
    is_connected,
    is_pure,
)
from zsumfree.conjectures import ScanReport
from zsumfree.zerosumfree import ZsfParams, build_complex, minimal_nonfaces

from conftest import corpus_complexes
from grid_digests import GRID_PATH, grid, outcome


@pytest.fixture(autouse=True)
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("ZSF_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute


def test_compute_basic(capsys):
    code, out, _ = run_cli(capsys, "compute", "6", "3")
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {
        "n", "ell", "facets", "min_nonfaces", "f_vector", "h_vector",
        "pure", "connected", "decomposition",
    }
    assert (blob["n"], blob["ell"]) == (6, 3)
    assert blob["facets"] == [[1, 3, 5]]
    assert blob["min_nonfaces"] == [[0], [2], [4]]
    assert blob["f_vector"] == [1, 3, 3, 1]
    assert blob["h_vector"] == [1, 0, 0, 0]
    assert blob["pure"] is True and blob["connected"] is True
    assert blob["decomposition"] == [3]


def test_compute_arrangement(capsys):
    code, out, _ = run_cli(capsys, "compute", "12", "6", "--arrangement")
    assert code == 0
    blob = json.loads(out)
    assert blob["char_poly"] == [1, 0, 0, -2, 0, 0, 1]
    assert set(blob["poset"]) == {"elements", "hasse", "graded", "rank", "char_poly"}
    assert blob["poset"]["rank"] == 2


def test_compute_oracle_agrees(capsys):
    code, _, err = run_cli(capsys, "compute", "6", "3", "--oracle")
    assert code == 0 and err == ""


def test_compute_oracle_mismatch_exit(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "brute_force_complex",
        lambda params: SimplicialComplex(range(params.n), [frozenset({1})]),
    )
    code, _, err = run_cli(capsys, "compute", "6", "3", "--oracle")
    assert code == 3
    assert "oracle mismatch" in err


def test_compute_invalid_parameters(capsys):
    for argv in [["compute", "6", "9"], ["compute", "6", "0"], ["compute", "1", "1"]]:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "invalid parameters" in err


def test_compute_capacity_exits(capsys, monkeypatch, tmp_cache):
    # brute-force oracle beyond its n ≤ 24 range: refused before any build,
    # so no artifact is printed and no cache entry is written
    def no_build(params):
        raise AssertionError("built a complex the oracle cannot check")

    with monkeypatch.context() as m:
        m.setattr(cli, "build_complex", no_build)
        code, out, err = run_cli(capsys, "compute", "25", "24", "--oracle")
    assert (code, out, err) == (4, "", "capacity exceeded: brute_force_complex supports n ≤ 24, got 25\n")
    assert not tmp_cache.exists() or not any(tmp_cache.iterdir())
    # intersection closure beyond the poset element cap
    monkeypatch.setattr(arr, "POSET_ELEMENT_CAP", 2)
    code, _, err = run_cli(capsys, "compute", "9", "8", "--arrangement")
    assert code == 4 and "capacity exceeded" in err


def test_compute_single_facet_top_of_range(capsys):
    code, out, _ = run_cli(capsys, "compute", "64", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["facets"] == [list(range(1, 64))]
    assert blob["min_nonfaces"] == [[0]]
    assert blob["decomposition"] == [63]


@pytest.mark.parametrize("n, ell, flags", [
    (64, 1, []), (64, 32, []), (40, 20, []), (33, 32, []), (40, 20, ["--arrangement"]),
])
def test_compute_past_32_vertices_is_byte_exact(capsys, n, ell, flags):
    # vertices past 31 are read off the upper four bytes of the vertex tables
    code, out, err = run_cli(capsys, "compute", str(n), str(ell), *flags, "--no-cache")
    assert (code, out, err) == (0, _reference(n, ell, arrangement=bool(flags)), "")


# ---------------------------------------------------------------------------
# cache


def _envelope(n, ell, printed):
    """The entry an earlier version wrote for the printed `compute n ℓ`: the
    complex, compact, in a {key, payload} envelope."""
    complex_ = {k: v for k, v in json.loads(printed).items() if k not in ("n", "ell")}
    entry = {"key": {"n": n, "ell": ell, "version": "1"}, "payload": {"complex": complex_}}
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def test_cache_roundtrip_byte_identical(capsys, tmp_cache):
    code, first, _ = run_cli(capsys, "compute", "9", "8")
    assert code == 0
    files = sorted(p.name for p in tmp_cache.iterdir())
    assert files == ["complex-n9-l8-v1.json"]
    path = tmp_cache / files[0]
    before = path.read_bytes()
    assert before.decode() + "\n" == first  # the entry is the printed text

    code, second, _ = run_cli(capsys, "compute", "9", "8")
    assert code == 0
    assert second == first
    assert path.read_bytes() == before  # hit does not rewrite

    # an entry whose whitespace was edited by hand passes the checks and is
    # printed as stored
    edited = json.dumps(json.loads(before))
    path.write_text(edited)
    code, third, _ = run_cli(capsys, "compute", "9", "8")
    assert (code, third) == (0, edited + "\n")
    assert json.loads(third) == json.loads(first)
    assert path.read_text() == edited


def test_entry_is_the_plain_stdout_for_every_small_pair(capsys, tmp_cache, monkeypatch):
    stores = []
    store = cli.store_payload

    def counted(n, ell, text):
        stores.append((n, ell))
        store(n, ell, text)

    monkeypatch.setattr(cli, "store_payload", counted)
    for n in range(2, 11):
        for ell in range(1, n):
            argv = ["compute", str(n), str(ell)]
            plain = run_cli(capsys, *argv, "--no-cache")
            arranged = run_cli(capsys, *argv, "--no-cache", "--arrangement")
            assert plain[0] == arranged[0] == 0
            path = tmp_cache / f"complex-n{n}-l{ell}-v1.json"
            for flags, reference in [([], plain), (["--arrangement"], arranged)]:
                for stale in (None, _envelope(n, ell, plain[1])):
                    if stale is None:
                        path.unlink(missing_ok=True)
                    else:
                        path.write_text(stale)
                    del stores[:]
                    assert run_cli(capsys, *argv, *flags) == reference  # a miss
                    assert stores == [(n, ell)]
                    stored = path.read_bytes()
                    assert stored.decode() == plain[1][:-1]
                    assert run_cli(capsys, *argv, *flags) == reference  # a hit
                    assert stores == [(n, ell)] and path.read_bytes() == stored


def test_arrangement_hit_writes_nothing(capsys, tmp_cache):
    code, reference, _ = run_cli(capsys, "compute", "12", "6", "--no-cache", "--arrangement")
    assert code == 0
    plain = run_cli(capsys, "compute", "12", "6")[1]
    path = tmp_cache / "complex-n12-l6-v1.json"
    stored = path.read_bytes()
    assert stored.decode() + "\n" == plain

    # the poset is built on every --arrangement, from the cached complex, and never stored
    for _ in range(2):
        assert run_cli(capsys, "compute", "12", "6", "--arrangement") == (0, reference, "")
        assert path.read_bytes() == stored
    assert [p.name for p in tmp_cache.iterdir()] == [path.name]


def test_arrangement_miss_stores_the_complex_before_the_poset(capsys, tmp_cache, monkeypatch):
    code, reference, _ = run_cli(capsys, "compute", "9", "8", "--no-cache")
    assert code == 0
    with monkeypatch.context() as m:
        m.setattr(arr, "POSET_ELEMENT_CAP", 2)
        code, out, err = run_cli(capsys, "compute", "9", "8", "--arrangement")
    assert code == 4 and out == "" and err.startswith("capacity exceeded")
    path = tmp_cache / "complex-n9-l8-v1.json"
    stored = path.read_bytes()
    assert stored.decode() + "\n" == reference
    assert run_cli(capsys, "compute", "9", "8") == (0, reference, "")  # a hit
    assert path.read_bytes() == stored


def test_short_writes_still_store_the_whole_entry(capsys, tmp_cache, monkeypatch):
    code, reference, _ = run_cli(capsys, "compute", "12", "6", "--no-cache")
    assert code == 0
    write = os.write
    with monkeypatch.context() as m:
        m.setattr(os, "write", lambda fd, data: write(fd, data[:100]))
        assert run_cli(capsys, "compute", "12", "6") == (0, reference, "")
    path = tmp_cache / "complex-n12-l6-v1.json"
    assert path.read_text() + "\n" == reference
    inode = path.stat().st_ino
    assert run_cli(capsys, "compute", "12", "6") == (0, reference, "")
    assert path.stat().st_ino == inode  # a hit: a rewrite would replace the file


def test_no_cache_flag_writes_nothing(capsys, tmp_cache):
    code, _, _ = run_cli(capsys, "compute", "9", "8", "--no-cache")
    assert code == 0
    assert not tmp_cache.exists() or list(tmp_cache.iterdir()) == []


def test_corrupt_and_mismatched_cache_entries_are_ignored(capsys, tmp_cache):
    run_cli(capsys, "compute", "6", "3")
    path = tmp_cache / "complex-n6-l3-v1.json"
    reference = run_cli(capsys, "compute", "6", "3")[1]

    path.write_text("{ not json")
    assert run_cli(capsys, "compute", "6", "3") == (0, reference, "")

    # the entry of another (n, ℓ), and one with ℓ = 1 as a bool
    other = run_cli(capsys, "compute", "7", "3", "--no-cache")[1]
    path.write_text(other)
    assert run_cli(capsys, "compute", "6", "3") == (0, reference, "")
    reference = run_cli(capsys, "compute", "6", "1")[1]
    path = tmp_cache / "complex-n6-l1-v1.json"
    path.write_text(json.dumps(dict(json.loads(reference), ell=True)))
    assert run_cli(capsys, "compute", "6", "1") == (0, reference, "")
    assert path.read_text() + "\n" == reference


@pytest.mark.parametrize(
    "entry",
    [
        {"n": 12, "ell": 6},
        {"n": 12, "ell": 6, "facets": [[1, 5, 9]]},
        [],
        # nested past the JSON parser's recursion limit: RecursionError, not ValueError
        pytest.param("[" * 100000 + "]" * 100000, id="deeply-nested"),
    ],
)
def test_malformed_cache_entry_is_recomputed(capsys, tmp_cache, entry):
    code, reference, _ = run_cli(capsys, "compute", "12", "6", "--no-cache")
    assert code == 0
    path = tmp_cache / "complex-n12-l6-v1.json"
    tmp_cache.mkdir(parents=True)
    text = entry if isinstance(entry, str) else json.dumps(entry)
    path.write_text(text)

    code, out, err = run_cli(capsys, "compute", "12", "6")
    assert code == 0, err
    assert out == reference
    assert path.read_text() + "\n" == reference  # rewritten

    path.write_text(text)
    expected = run_cli(capsys, "compute", "12", "6", "--arrangement", "--no-cache")
    assert run_cli(capsys, "compute", "12", "6", "--arrangement") == expected
    assert path.read_text() + "\n" == reference


def _empty_complex(entry):
    """Damage: keep only `n` and `ell`."""
    for key in cli.ENTRY_KEYS - {"n", "ell"}:
        del entry[key]


def _set_vertex(key, value):
    """Damage: overwrite the first vertex of the first set under `entry[key]`."""
    return lambda entry: entry[key][0].__setitem__(0, value)


def _set_value(key, value, index=None):
    """Damage: overwrite `entry[key]`, or its item at `index`."""
    if index is None:
        return lambda entry: entry.__setitem__(key, value)
    return lambda entry: entry[key].__setitem__(index, value)


def _set_poset(drop=None, **fields):
    """Damage: add a poset of Δ_{12,6} that is well formed but for `fields`,
    and lacks the key `drop`."""

    def damage(entry):
        poset = arr.build_poset(build_complex(ZsfParams(12, 6))).to_json()
        poset.update(fields)
        poset.pop(drop, None)
        entry["poset"] = poset

    return damage


@pytest.mark.parametrize(
    "damage, flags",
    [
        (_empty_complex, []),
        (_empty_complex, ["--oracle"]),
        (lambda entry: entry.update(poset=[]), ["--arrangement"]),
        (_set_vertex("facets", 1.5), []),  # [1.5, 5, 9]
        (_set_vertex("facets", 1.5), ["--arrangement"]),
        (_set_vertex("facets", True), []),
        (_set_vertex("facets", 12), ["--arrangement"]),
        (_set_vertex("min_nonfaces", -1), []),
        (_set_vertex("min_nonfaces", "0"), ["--arrangement"]),
        (lambda entry: entry["min_nonfaces"].append(3), []),
        (_set_value("f_vector", 6.5, 1), []),
        (_set_value("f_vector", "1,6,6,2"), []),
        (_set_value("h_vector", True, 0), ["--arrangement"]),
        (_set_value("h_vector", None), []),
        (_set_value("pure", "yes"), []),
        (_set_value("connected", 0), ["--arrangement"]),
        (_set_value("decomposition", 3.0, 0), []),
        (_set_value("decomposition", "(3,3)"), []),
        (_set_value("decomposition", False), []),
        (lambda entry: entry.update(poset={"char_poly": "bogus"}), ["--arrangement"]),
        (lambda entry: entry.update(poset={"char_poly": "bogus"}), []),
        (_set_poset(drop="rank"), ["--arrangement"]),
        (_set_poset(extra=1), ["--arrangement"]),
        (_set_poset(char_poly="bogus"), ["--arrangement"]),
        (_set_poset(char_poly=[1, 0.5]), ["--arrangement"]),
        (_set_poset(graded="yes"), ["--arrangement"]),
        (_set_poset(graded=1), ["--arrangement"]),
        (_set_poset(rank=2.0), ["--arrangement"]),
        (_set_poset(rank="2"), ["--arrangement"]),
        (_set_poset(hasse=[[0, 1, 2]]), ["--arrangement"]),
        (_set_poset(hasse=[[0, "1"]]), ["--arrangement"]),
        (_set_poset(hasse=[0, 1]), ["--arrangement"]),
        (_set_poset(elements=[["ambient", 6, 1]]), ["--arrangement"]),
        (_set_poset(elements={}), ["--arrangement"]),
        (_set_value("n", 13), []),
        (_set_value("ell", 6.0), ["--arrangement"]),
        (_set_value("ell", "6"), []),
        (lambda entry: entry.pop("n"), []),
        (_set_value("facets", [[1], [1, 5, 9]]), []),
        (_set_value("facets", [[1], [1, 5, 9]]), ["--arrangement"]),
        (_set_value("facets", [[1, 5, 9], [1, 5, 9]]), ["--oracle"]),
        (_set_value("facets", []), []),
        (_set_value("facets", [[3, 7, 11], [1, 5, 9]]), []),
        (_set_value("facets", [[9, 5, 1], [3, 7, 11]]), ["--oracle"]),
        (_set_value("facets", [[1, 1, 5, 9], [3, 7, 11]]), ["--arrangement"]),
    ],
    ids=[
        "empty-complex", "empty-complex-oracle", "list-poset",
        "float-facet-vertex", "float-facet-vertex-arrangement", "bool-facet-vertex",
        "facet-vertex-past-n-arrangement", "negative-nonface-vertex",
        "str-nonface-vertex-arrangement", "int-nonface",
        "float-f-vector-entry", "str-f-vector", "bool-h-vector-entry-arrangement",
        "null-h-vector", "str-pure", "int-connected-arrangement",
        "float-decomposition-part", "str-decomposition", "false-decomposition",
        "bogus-poset-arrangement", "bogus-poset", "poset-without-rank", "poset-extra-key",
        "str-char-poly", "float-char-poly-entry", "str-graded", "int-graded",
        "float-rank", "str-rank", "hasse-triple", "str-hasse-entry", "hasse-of-ints",
        "elements-of-lists", "dict-elements",
        "other-n", "float-ell-arrangement", "str-ell", "no-n",
        "nested-facets", "nested-facets-arrangement", "repeated-facet-oracle", "no-facets",
        "facets-out-of-order", "unsorted-facet-oracle", "repeated-vertex-arrangement",
    ],
)
def test_misshapen_cache_payload_is_a_miss(capsys, tmp_cache, damage, flags):
    code, reference, _ = run_cli(capsys, "compute", "12", "6", "--no-cache", *flags)
    assert code == 0
    plain = run_cli(capsys, "compute", "12", "6")[1]
    path = tmp_cache / "complex-n12-l6-v1.json"
    entry = json.loads(path.read_bytes())
    damage(entry)
    path.write_text(json.dumps(entry))

    code, out, err = run_cli(capsys, "compute", "12", "6", *flags)
    assert code == 0, err
    assert out == reference
    assert path.read_text() + "\n" == plain  # rewritten


def test_inclusion_comparable_cached_facets_are_a_miss(capsys, tmp_cache):
    # every flag reads the cached facets through one complex, so a plain hit
    # refuses what --arrangement would refuse
    reference = run_cli(capsys, "compute", "6", "3", "--no-cache")[1]
    path = tmp_cache / "complex-n6-l3-v1.json"
    for flags in ([], ["--arrangement"], ["--oracle"]):
        run_cli(capsys, "compute", "6", "3")
        path.write_text(json.dumps(dict(json.loads(reference), facets=[[1], [1, 2]])))
        code, out, err = run_cli(capsys, "compute", "6", "3", *flags)
        assert (code, err) == (0, "")
        assert json.loads(out)["facets"] == [[1, 3, 5]]
        assert path.read_text() + "\n" == reference


@pytest.mark.parametrize(
    "poset",
    [
        None,  # the --arrangement output of Δ_{12,6}, poset and char_poly included
        {"char_poly": "bogus"},
        {"elements": [{"bogus": True}], "hasse": [[0, 99]]},
    ],
    ids=["well-formed", "bogus-char-poly", "bogus-elements"],
)
@pytest.mark.parametrize("flags", [[], ["--arrangement"]], ids=["plain", "arrangement"])
def test_cached_poset_is_a_miss(capsys, tmp_cache, poset, flags):
    code, reference, _ = run_cli(capsys, "compute", "12", "6", "--no-cache", *flags)
    assert code == 0
    plain = run_cli(capsys, "compute", "12", "6")[1]
    arranged = json.loads(run_cli(capsys, "compute", "12", "6", "--no-cache", "--arrangement")[1])
    path = tmp_cache / "complex-n12-l6-v1.json"
    if poset is not None:
        arranged["poset"] = dict(arranged["poset"], **poset)
    path.write_text(json.dumps(arranged))

    assert run_cli(capsys, "compute", "12", "6", *flags) == (0, reference, "")
    assert path.read_text() + "\n" == plain  # rewritten


def _decoded(masks, n):
    return [[v for v in range(n) if m >> v & 1] for m in masks]


def _reference(n, ell, arrangement=False):
    """The stdout of `compute n ℓ` (with `--arrangement`) as `json.dumps`
    writes it, from library calls and with the masks decoded here."""
    params = ZsfParams(n, ell)
    c = build_complex(params)
    f = faces_by_dimension(c)
    decomposition = decompose_disjoint_simplices(c)
    out = {
        "n": n, "ell": ell,
        "facets": _decoded(c._facet_masks, n), "min_nonfaces": _decoded(minimal_nonfaces(params), n),
        "f_vector": f, "h_vector": f_to_h(f), "pure": is_pure(c), "connected": is_connected(c),
        "decomposition": None if decomposition is None else list(decomposition),
    }
    if arrangement:
        poset = arr.build_poset(c).to_json()
        out.update(poset=poset, char_poly=poset["char_poly"])
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def test_arrangement_output_is_the_dump_of_payload_and_poset(capsys, tmp_cache):
    for n in range(2, 13):
        for ell in range(1, n):
            expected = _reference(n, ell, arrangement=True)
            argv = ["compute", str(n), str(ell), "--arrangement"]
            for flags in (["--no-cache"], [], []):  # no cache, a miss, a hit
                assert run_cli(capsys, *argv, *flags) == (0, expected, ""), (n, ell, flags)
            assert (tmp_cache / f"complex-n{n}-l{ell}-v1.json").is_file()


def test_poset_writer_matches_to_json():
    seen = set()
    for c in corpus_complexes():
        try:
            poset = arr.build_poset(c)
        except ValueError:  # the void complex
            continue
        text = cli._poset_text(poset)
        assert "{\n  \"poset\": " + text + "\n}" == json.dumps({"poset": poset.to_json()}, indent=2, sort_keys=True)
        seen.add((poset.support_masks[-1] == 0, poset.rank is None, poset.degenerate))
    # an empty support, an ungraded poset and a degenerate one all occur
    assert {(True, False, False), (False, False, True), (True, True, False)} <= seen


def _entry_texts(entry):
    """Hand edits of a cache entry that keep what it holds."""
    keys = sorted(entry, reverse=True)  # "pure" first
    return [
        json.dumps(entry),
        json.dumps({k: entry[k] for k in keys}),
        " \n" + json.dumps(entry, indent=1) + "\n\n",
        json.dumps(entry, separators=(",", ":")).replace('"n":', '"\\u006e":'),
    ]


@pytest.mark.parametrize("flags", [[], ["--arrangement"], ["--arrangement", "--oracle"]])
def test_hand_edited_entry_is_a_hit(capsys, tmp_cache, flags):
    reference = run_cli(capsys, "compute", "12", "2", "--no-cache", *flags)[1]
    run_cli(capsys, "compute", "12", "2")
    path = tmp_cache / "complex-n12-l2-v1.json"
    for text in _entry_texts(json.loads(path.read_text())):
        path.write_text(text)
        code, out, err = run_cli(capsys, "compute", "12", "2", *flags)
        assert (code, err) == (0, "")
        assert json.loads(out) == json.loads(reference)
        if not flags:
            assert out == text + "\n"  # printed as stored
        assert path.read_text() == text  # not rewritten


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace('"pure"', '"pure": null, "pure"'),
        lambda text: text.replace('"pure"', '"\\u0070ure"'),
        lambda text: text.replace('"pure"', '"p\\u0075re"'),
    ],
    ids=["duplicated-pure", "escaped-pure", "escaped-u-pure"],
)
@pytest.mark.parametrize("flags", [[], ["--arrangement"]], ids=["plain", "arrangement"])
def test_entry_without_one_literal_pure_is_a_miss(capsys, tmp_cache, edit, flags):
    reference = run_cli(capsys, "compute", "12", "6", "--no-cache", *flags)[1]
    plain = run_cli(capsys, "compute", "12", "6")[1]
    path = tmp_cache / "complex-n12-l6-v1.json"
    edited = edit(path.read_text())
    assert json.loads(edited) == json.loads(plain)  # the same object, a different text
    path.write_text(edited)
    assert cli.load_cached_payload(12, 6) is None
    assert run_cli(capsys, "compute", "12", "6", *flags) == (0, reference, "")
    assert path.read_text() + "\n" == plain  # rewritten


def test_unwritable_cache_warns_and_computes(capsys, tmp_cache):
    code, reference, _ = run_cli(capsys, "compute", "8", "3", "--no-cache")
    assert code == 0
    tmp_cache.write_text("a regular file, not a directory")

    code, out, err = run_cli(capsys, "compute", "8", "3")
    assert code == 0
    assert out == reference
    assert err.startswith("warning: cache entry not written") and err.count("\n") == 1


def test_failed_rename_warns_and_leaves_no_temporary_file(capsys, tmp_cache, monkeypatch):
    code, reference, _ = run_cli(capsys, "compute", "6", "3", "--no-cache")
    assert code == 0

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    code, out, err = run_cli(capsys, "compute", "6", "3")
    assert (code, out) == (0, reference)
    assert err.startswith("warning: cache entry not written: ") and err.count("\n") == 1
    assert tmp_cache.is_dir() and list(tmp_cache.iterdir()) == []


def test_cache_clear(capsys, tmp_cache):
    run_cli(capsys, "compute", "6", "3")
    run_cli(capsys, "compute", "9", "8")
    code, out, _ = run_cli(capsys, "cache-clear")
    assert code == 0
    assert out.strip() == f"removed 2 cached artifact(s) from {tmp_cache}"
    assert list(tmp_cache.glob("complex-*")) == []
    code, out, _ = run_cli(capsys, "cache-clear")
    assert code == 0 and "removed 0" in out


def test_cache_clear_warns_on_an_entry_it_cannot_remove(capsys, tmp_cache):
    run_cli(capsys, "compute", "6", "3")
    run_cli(capsys, "compute", "9", "8")
    (tmp_cache / "complex-n9-l2-v1.json").mkdir()  # sorts between the two entries
    code, out, err = run_cli(capsys, "cache-clear")
    assert code == 0
    assert out == f"removed 2 cached artifact(s) from {tmp_cache}\n"
    assert err.startswith("warning: cache entry not removed: ") and err.count("\n") == 1
    assert "complex-n9-l2-v1.json" in err
    assert [p.name for p in tmp_cache.iterdir()] == ["complex-n9-l2-v1.json"]


# ---------------------------------------------------------------------------
# family


def test_family_doubling_ok(capsys):
    code, out, _ = run_cli(capsys, "family", "doubling", "--rho", "3", "--m", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["spec"] == {"kind": "doubling", "rho": 3, "m": 1}
    assert rep["facets_match"] is True and rep["oracle_match"] is True


def test_family_oracle_flags(capsys):
    code, out, _ = run_cli(
        capsys, "family", "prime-power", "--p", "5", "--e", "2", "--no-oracle"
    )
    assert code == 0
    assert json.loads(out)["oracle_match"] is None
    code, out, _ = run_cli(capsys, "family", "arms-legs", "--p", "3", "--s", "1", "--oracle")
    assert code == 0
    assert json.loads(out)["oracle_match"] is True
    with pytest.raises(SystemExit) as exc:
        main(["family", "arms-legs", "--p", "3", "--s", "1", "--oracle", "--no-oracle"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage:" in captured.err and "not allowed with" in captured.err


def test_family_invalid_parameters(capsys):
    cases = [
        ["family", "arms-legs", "--p", "3", "--s", "3"],
        ["family", "doubling", "--rho", "4", "--m", "1"],
        ["family", "doubling", "--rho", "3"],
        ["family", "prime-power", "--p", "6", "--e", "1"],
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "invalid parameters" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["doubling", "--rho", "3", "--m", "1", "--s", "2"], "family 'doubling' takes no s"),
        (["arms-legs", "--p", "5", "--s", "3", "--e", "9"], "family 'arms-legs' takes no e"),
    ],
    ids=["doubling", "arms-legs"],
)
def test_family_refuses_a_flag_of_another_kind(capsys, argv, message):
    assert run_cli(capsys, "family", *argv) == (2, "", f"invalid parameters: {message}\n")


def test_family_capacity(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "family", "prime-power", "--p", "2", "--e", "7")
    assert code == 4 and "capacity exceeded" in err
    # a forced oracle beyond its n ≤ 24 range is refused before any build
    def no_build(params):
        raise AssertionError("built a complex the oracle cannot check")

    monkeypatch.setattr(fam, "build_complex", no_build)
    code, out, err = run_cli(capsys, "family", "doubling", "--rho", "31", "--m", "0", "--oracle")
    assert (code, out, err) == (4, "", "capacity exceeded: brute_force_complex supports n ≤ 24, got 62\n")


def test_vertex_bound_is_one_constant(capsys):
    # the complex's vertex range, `compute`'s cap and the family caps all read MAX_VERTICES
    top = MAX_VERTICES - 1
    SimplicialComplex(range(MAX_VERTICES), [{top}])
    with pytest.raises(ValueError) as exc:
        SimplicialComplex(range(MAX_VERTICES), [{MAX_VERTICES}])
    assert str(exc.value) == f"vertices must be integers in 0..{top}"
    n = MAX_VERTICES + 1
    assert run_cli(capsys, "compute", str(n), "2", "--no-cache") == (
        4, "", f"capacity exceeded: build_complex supports n ≤ {MAX_VERTICES}, got {n}\n")
    m = MAX_VERTICES.bit_length() - 2  # 2^(m+1) = MAX_VERTICES
    assert fam.FamilySpec.doubling(1, m).n == MAX_VERTICES
    with pytest.raises(CapacityError) as exc:
        fam.FamilySpec.doubling(1, m + 1)
    assert str(exc.value) == f"doubling(1,{m + 1}) needs n = {2 * MAX_VERTICES} > {MAX_VERTICES}"


def test_family_capacity_past_the_digit_limit(capsys):
    # n is compared with the cap without being built, and printed as a power
    # where its decimal would pass the int-to-str digit limit
    cases = [
        (["doubling", "--rho", "3", "--m", "20000"], "doubling(3,20000) needs n = 2^20001·3 > 64"),
        (["prime-power", "--p", "3", "--e", "10000"], "prime_power(3,10000) needs n = 3^10000 > 64"),
        (["doubling", "--rho", "3", "--m", "100"],
         f"doubling(3,100) needs n = {3 * 2 ** 101} > 64"),
    ]
    for argv, message in cases:
        assert run_cli(capsys, "family", *argv) == (4, "", f"capacity exceeded: {message}\n"), argv


def test_family_capacity_before_primality(capsys, monkeypatch):
    is_prime = fam.is_prime

    def small_only(p):
        assert p <= 64, f"primality tested on {p}, past the cap"
        return is_prime(p)

    monkeypatch.setattr(fam, "is_prime", small_only)
    for argv in [
        ["prime-power", "--p", "1000000000000037", "--e", "1"],
        ["prime-power", "--p", "100", "--e", "1"],  # not prime: exit 4, not 2
        ["arms-legs", "--p", "1000000000000037", "--s", "1"],
        ["arms-legs", "--p", "35", "--s", "2"],
    ]:
        code, out, err = run_cli(capsys, "family", *argv)
        assert (code, out) == (4, ""), argv
        assert err.startswith("capacity exceeded"), argv


def test_family_mismatch_exit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "family_report_ok", lambda spec, report: False)
    code, _, err = run_cli(capsys, "family", "doubling", "--rho", "3", "--m", "0")
    assert code == 3
    assert "unexpected mismatch" in err


# ---------------------------------------------------------------------------
# scan


def test_scan_confirmed(capsys):
    code, out, _ = run_cli(capsys, "scan", "isolated", "--p-max", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "confirmed-in-range"
    assert rep["checked"] == 3
    assert rep["counterexamples"] == []


def test_scan_log_concavity_flags(capsys):
    code, out, _ = run_cli(capsys, "scan", "log-concavity", "--max-sum", "10")
    assert code == 0 and json.loads(out)["checked"] == 42
    code, out, _ = run_cli(
        capsys, "scan", "log-concavity", "--max-sum", "10", "--include-repeated"
    )
    assert code == 0 and json.loads(out)["checked"] == 138


def test_scan_capacity(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "scan", "purity-prime", "--n-max", "25")
    assert code == 4 and "capacity exceeded" in err
    # log-concavity refuses before it enumerates a partition
    monkeypatch.setattr(conj, "log_concavity_instances", None)
    too_big = str(conj.MAX_SUM_CAP + 1)
    code, out, err = run_cli(capsys, "scan", "log-concavity", "--max-sum", too_big)
    assert code == 4 and "capacity exceeded" in err and out == ""


def _built_past_the_cap(*args, **kwargs):
    raise AssertionError("a sweep started past its cap")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "--n-max", "25"], "table supports n_max up to 24, got 25"),
        (["scan", "isolated", "--p-max", "13"], "p_max must be at most 12, got 13"),
        (["scan", "purity-prime", "--n-max", "25"], "n_max must be at most 24, got 25"),
        (["scan", "hvec-purity", "--n-max", "25"], "n_max must be at most 24, got 25"),
        (["scan", "connectivity", "--n-max", "25"], "n_max must be at most 24, got 25"),
        (["scan", "log-concavity", "--max-sum", "41"], "max_sum must be at most 40, got 41"),
    ],
)
def test_sweep_capacity_messages(capsys, monkeypatch, argv, message):
    for module, name in [(cli, "table_rows"), (conj, "build_complex"), (conj, "isolated_instances"),
                         (conj, "log_concavity_instances")]:
        monkeypatch.setattr(module, name, _built_past_the_cap)
    assert run_cli(capsys, *argv) == (4, "", f"capacity exceeded: {message}\n")


@pytest.mark.parametrize("argv", [["table", "--n-max", "24"], ["scan", "isolated", "--p-max", "12"]])
def test_sweep_limit_admits_its_bound(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "table_rows", lambda n_max: [])
    monkeypatch.setattr(conj, "isolated_instances", lambda p_max: [])
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["isolated", "--n-max", "40"], "--n-max"),
        (["isolated", "--max-sum", "10"], "--max-sum"),
        (["connectivity", "--p-max", "99", "--n-max", "8"], "--p-max"),
        (["hvec-purity", "--max-sum", "10"], "--max-sum"),
        (["purity-prime", "--include-repeated"], "--include-repeated"),
        (["log-concavity", "--n-max", "8", "--max-sum", "10"], "--n-max"),
    ],
)
def test_scan_refuses_a_flag_of_another_scanner(capsys, monkeypatch, argv, flag):
    monkeypatch.setattr(conj, "build_complex", _built_past_the_cap)
    monkeypatch.setattr(conj, "log_concavity_instances", _built_past_the_cap)
    expected = f"invalid parameters: {flag} does not apply to scan {argv[0]}\n"
    assert run_cli(capsys, "scan", *argv) == (2, "", expected)


def test_scan_counterexample_exit(capsys, monkeypatch):
    fake = ScanReport("isolated", {"p_max": 3}, 1, [{"params": {}, "witness": {}}])
    monkeypatch.setitem(cli.SCANNERS, "isolated", (lambda v: fake, "p_max"))
    code, out, _ = run_cli(capsys, "scan", "isolated", "--p-max", "3")
    assert code == 5
    assert json.loads(out)["status"] == "counterexample-found"


@pytest.mark.parametrize(
    "conjecture, flag, default",
    [
        ("isolated", "p_max", 11),
        ("purity-prime", "n_max", 19),
        ("hvec-purity", "n_max", 19),
        ("connectivity", "n_max", 19),
        ("log-concavity", "max_sum", 30),
    ],
)
def test_scan_without_a_range_flag_takes_the_default(capsys, monkeypatch, conjecture, flag, default):
    seen = []

    def record(value):
        seen.append(value)
        return ScanReport(conjecture, {flag: value}, 0)

    monkeypatch.setitem(cli.SCANNERS, conjecture, (record, flag))
    code, out, err = run_cli(capsys, "scan", conjecture)
    assert (code, err, seen) == (0, "", [default])
    assert json.loads(out)["range"] == {flag: default}


def test_scan_unknown_conjecture_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# table


def test_table_pinned_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--n-max", "12")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == sum(n - 1 for n in range(2, 13))
    assert rows[0] == "2 1 | 1 facet | dim 0 | pure=yes | conn=yes | (1)"
    assert "9 8 | 4 facets | dim 2 | pure=no | conn=no | (3,3,1,1)" in rows
    assert "12 6 | 2 facets | dim 2 | pure=yes | conn=no | (3,3)" in rows
    assert "6 5 | 3 facets | dim 2 | pure=no | conn=yes | -" in rows


def test_table_json_mode(capsys):
    code, out, _ = run_cli(capsys, "table", "--n-max", "6", "--json")
    assert code == 0
    assert json.loads(out) == table_rows(6)


def test_table_capacity(capsys):
    code, _, err = run_cli(capsys, "table", "--n-max", "25")
    assert code == 4 and "capacity exceeded" in err


# ---------------------------------------------------------------------------
# output writer and parser reuse


def test_json_outputs_match_json_dumps(capsys):
    commands = [
        ["compute", str(n), str(ell), "--arrangement", "--no-cache"]
        for n in range(2, 13)
        for ell in range(1, n)
    ]
    commands += [
        ["family", "doubling", "--rho", "3", "--m", "1"],
        ["family", "prime-power", "--p", "3", "--e", "2"],
        ["family", "arms-legs", "--p", "5", "--s", "3"],
        ["scan", "isolated", "--p-max", "7"],
        ["scan", "purity-prime", "--n-max", "9"],
        ["scan", "hvec-purity", "--n-max", "8"],
        ["scan", "connectivity", "--n-max", "8"],
        ["scan", "log-concavity", "--max-sum", "8", "--include-repeated"],
        ["table", "--n-max", "6", "--json"],
    ]
    notes = []
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if argv[0] == "compute":
            expected = _reference(int(argv[1]), int(argv[2]), arrangement=True)
        elif argv[0] == "family":
            fields = {flag[2:]: int(value) for flag, value in zip(argv[2::2], argv[3::2])}
            expected = fam.verify_family(fam.FamilySpec(argv[1], **fields))
            notes += expected.get("notes", [])
        elif argv[0] == "scan":
            scanner = conj.SCANNERS[argv[1]][0]
            report = scanner(int(argv[3]), **({"include_repeated": True} if len(argv) > 4 else {}))
            # the one field that differs between runs is the scan's wall time
            expected = dataclasses.replace(report, elapsed_ms=json.loads(out)["elapsed_ms"]).to_json()
        else:
            expected = table_rows(int(argv[2]))
        if argv[0] != "compute":
            expected = json.dumps(expected, indent=2, sort_keys=True) + "\n"
        assert out == expected, argv
    assert any("ö" in note for note in notes)


@pytest.mark.parametrize("newline", ["\n", "\n  ", "\n    "])
def test_row_writers_match_json_dumps(newline):
    every_byte = sum(1 << 8 * j + j for j in range(8))
    mask_lists = [
        [], [0], [1], [1 << 63], [0, 1], [1, 0, 1 << 63], [every_byte], [(1 << 64) - 1, 0xFF << 32, 1 << 32],
        [every_byte, 0x8040201008040201, 0x0102040810204080, (1 << 64) - 1 - every_byte],
    ]
    for masks in mask_lists:
        expected = json.dumps(_decoded(masks, MAX_VERTICES), indent=2).replace("\n", newline)
        assert cli._rows(masks, newline) == expected, masks
    for values in [None, [], [0], [1, -2, 2**70], [1, 0, 0, -2, 0, 0, 1]]:
        assert cli._ints(values, newline) == json.dumps(values, indent=2).replace("\n", newline), values


def test_stdout_matches_the_benchmark_digests(capsys):
    # the sha256 of stdout that perfbench/digests.json records for every op of
    # the benchmark's decks, keyed by the op without --no-cache
    digests = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text())
    differ = []
    for key, expected in sorted(digests.items()):
        argv = key.split()
        if argv[0] == "compute":
            argv.append("--no-cache")
        code, out, _ = run_cli(capsys, *argv)
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != expected:
            differ.append(key)
    assert digests and differ == []


def test_compute_matches_the_grid_digests():
    # exit code, stdout and stderr of every compute op in tests/grid_digests.json
    # (record them with tests/grid_digests.py), the capacity errors included
    digests = json.loads(GRID_PATH.read_text())
    differ = [op for op, expected in digests.items() if outcome(op) != expected]
    assert len(digests) == len(grid()) and differ == []


def test_parser_reuse_leaks_no_flags(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run_cli(capsys, "compute", "12", "6", "--arrangement")
    assert code == 0 and "poset" in json.loads(out)
    code, out, _ = run_cli(capsys, "compute", "12", "6")
    assert code == 0 and "poset" not in json.loads(out)
    argv = ["scan", "log-concavity", "--max-sum", "10"]
    code, out, _ = run_cli(capsys, *argv, "--include-repeated")
    assert code == 0 and json.loads(out)["range"]["include_repeated"] is True
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["range"]["include_repeated"] is False


# ---------------------------------------------------------------------------
# determinism and end-to-end process invocation


def test_stdout_determinism_across_fresh_caches(capsys, tmp_path, monkeypatch):
    outputs = []
    for d in ("a", "b"):
        monkeypatch.setenv("ZSF_CACHE_DIR", str(tmp_path / d))
        outputs.append(run_cli(capsys, "compute", "12", "6", "--arrangement")[1])
    assert outputs[0] == outputs[1]


def test_module_invocation_subprocess(capsys, tmp_path):
    # the child imports the package from the tree this suite tests
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, ZSF_CACHE_DIR=str(tmp_path / "cache"), PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "zsumfree.cli", "compute", "4", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["facets"] == [[1], [3]]

    proc = subprocess.run(
        [sys.executable, "-m", "zsumfree.cli", "compute", "4", "5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2

    # the package needs no numpy, the oracle included: block its import in the child
    no_numpy = "import sys; sys.modules['numpy'] = None; from zsumfree.cli import main; sys.exit(main())"
    for argv in (["compute", "12", "6", "--oracle", "--no-cache"], ["family", "doubling", "--rho", "3", "--m", "0"]):
        proc = subprocess.run(
            [sys.executable, "-c", no_numpy, *argv], capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and proc.stdout == out


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "12", "6", "--no-cache"],  # 721 bytes: the flush in `main` fails
        ["compute", "16", "2", "--no-cache"],  # 10,540 bytes: `print` itself fails
    ],
)
def test_closed_stdout_exits_141_without_a_traceback(tmp_path, argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, ZSF_CACHE_DIR=str(tmp_path / "cache"), PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)  # a buffered stdout, as in a plain shell
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so its first write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zsumfree.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_console_script_installed(tmp_path):
    """Installing the project yields a working ``zsumfree`` executable.

    The install goes into a fresh venv from a copy of the project, so the
    source tree stays untouched. ``develop --no-deps`` needs only setuptools
    (no ``wheel``, no index); the venv takes only setuptools from the system
    site, since the package has no dependencies.
    """
    import shutil
    import venv

    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parents[1]
    project = tmp_path / "project"
    shutil.copytree(root / "src", project / "src")
    shutil.copy2(root / "pyproject.toml", project)

    env_dir = tmp_path / "venv"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    bin_dir = env_dir / "bin"
    # Without PYTHONPATH the script can only import the package it installed.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    install = subprocess.run(
        [bin_dir / "python", "-c", "from setuptools import setup; setup()",
         "develop", "--no-deps"],
        cwd=project, capture_output=True, text=True, env=env,
    )
    assert install.returncode == 0, install.stderr

    exe = shutil.which("zsumfree", path=str(bin_dir))
    assert exe, "install did not create console script 'zsumfree'"
    env["ZSF_CACHE_DIR"] = str(tmp_path / "cache")
    proc = subprocess.run(
        [exe, "table", "--n-max", "4"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "2 1 | 1 facet | dim 0 | pure=yes | conn=yes | (1)"
