"""Golden CLI manifest: argv, exit code and sha256 of stdout and stderr.

``tests/golden/cli.json`` pins every subcommand x format on the embedded
catalog, and ``validate`` on a damaged exported catalog (one record
dropped, one duplicated), so that refactors keep every output byte for
byte, including the order of the reported violations.  Hashes rather than
text keep the file small; the full outputs come to about 500 KB.

After an intended output change, rewrite the manifest from the repo root:

    PYTHONPATH=src python tests/test_golden.py

To compare the CLI against the manifest without pytest and without
rewriting it (exit 1 on any mismatch, for example on another Python):

    PYTHONPATH=src python tests/test_golden.py --check
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from k3atlas import tables
from k3atlas.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "golden", "cli.json")

FORMATS = ("csv", "json", "md")
MOVES = ("conj1", "conj2", "contr3", "conj1p", "conj2p", "contr3p", "conj4", "conj4p")


def _u_triples() -> list[str]:
    rows = tables.MOVES_UNPRIMED + tables.MOVES_PRIMED
    triples = {(row.r, row.a, row.delta) for row in rows}
    triples |= set(tables.U_EXCLUDED_TRIPLES + tables.U_UNTABULATED_TRIPLES)
    return ["{},{},{}".format(*t) for t in sorted(triples)]


def _embedded_invocations() -> list[list[str]]:
    out = []
    for family in ("s311", "u"):
        out += [["classes", "--family", family, "--format", f] for f in FORMATS]
    selectors = [
        [],
        ["--index", "No.17"],
        ["--index", "No.26'"],
        ["--class", "10,8,0,0"],
        ["--class", "9,9,0,1"],
        ["--class", "10,10,0,0"],
        ["--index", "No.99"],
        ["--class", "1,2"],
    ]
    for selector in selectors:
        for f in FORMATS:
            out.append(["isotopy", *selector, "--format", f])
            out.append(["isotopy", *selector, "--format", f, "--include-degenerate"])
    for side in ("unprimed", "primed", "star"):
        out += [["degenerate", "--side", side, "--format", f] for f in FORMATS]
    for triple in _u_triples() + ["4,4,0", "1,2"]:
        out += [["degenerate", "--class", triple, "--format", f] for f in FORMATS]
    for triple in ("9,9,1", "11,9,1", "14,2,0", "10,10,1", "10,8,0"):
        out += [["degenerate", "--class", triple, "--move", m] for m in MOVES]
    out.append(["degenerate"])
    out += [["graph", "--format", f] for f in ("dot", "json")]
    out += [["validate", "--format", f] for f in ("text", "json")]
    for gram in ("s311", "u", "picy", "minus2", "lk3", "missing"):
        out += [["lattice", f"grams/{gram}.gram", "--format", f] for f in ("text", "json")]
    for argv in (["12,3"], ["12,3", "--intersect", "1,0"], ["1,x"]):
        out += [["divisor", "--class", *argv, "--format", f] for f in ("text", "json")]
    out.append(["divisor", "--surface", "y", "--class", "12,10,3"])
    return out


def _damage(directory: str) -> None:
    """Export both catalogs, drop No.17 from s311.json, duplicate the
    first record of u.json."""
    for family in ("s311", "u"):
        out = os.path.join(directory, f"{family}.json")
        _run(["classes", "--family", family, "--format", "json", "--out", out])
    path = os.path.join(directory, "s311.json")
    with open(path, encoding="utf-8") as handle:
        records = [rec for rec in json.load(handle) if rec["index"] != "No.17"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle)
    path = os.path.join(directory, "u.json")
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records + [records[0]], handle)


def _run(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr.getvalue().encode()).hexdigest(),
    }


def compute_manifest() -> list[dict]:
    """Run every invocation from the repo root with a clean environment."""
    saved_cwd, saved_dir = os.getcwd(), os.environ.pop("ATLAS_DATA_DIR", None)
    os.chdir(ROOT)
    try:
        entries = [
            {"catalog": "embedded", "argv": argv, **_run(argv)}
            for argv in _embedded_invocations()
        ]
        with tempfile.TemporaryDirectory() as directory:
            _damage(directory)
            os.environ["ATLAS_DATA_DIR"] = directory
            for f in ("text", "json"):
                argv = ["validate", "--format", f]
                entries.append({"catalog": "damaged", "argv": argv, **_run(argv)})
    finally:
        os.environ.pop("ATLAS_DATA_DIR", None)
        if saved_dir is not None:
            os.environ["ATLAS_DATA_DIR"] = saved_dir
        os.chdir(saved_cwd)
    return entries


def _differences(golden: list[dict], computed: list[dict]) -> list[str]:
    if [e["argv"] for e in computed] != [e["argv"] for e in golden]:
        return ["the invocations differ from the manifest's"]
    return [
        f"mismatch ({want['catalog']}): atlas {' '.join(want['argv'])}"
        for got, want in zip(computed, golden)
        if got != want
    ]


def _load_manifest() -> list[dict]:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def test_cli_matches_golden_manifest():
    differences = _differences(_load_manifest(), compute_manifest())
    assert not differences, differences[:5]


def _check() -> int:
    golden = _load_manifest()
    differences = _differences(golden, compute_manifest())
    for line in differences:
        print(line, file=sys.stderr)
    print(f"{len(differences)} of {len(golden)} invocations differ", file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(_check())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    with open(MANIFEST, "w", encoding="utf-8") as handle:
        lines = ",\n".join(json.dumps(entry) for entry in compute_manifest())
        handle.write(f"[\n{lines}\n]\n")
    print(f"wrote {MANIFEST}", file=sys.stderr)
