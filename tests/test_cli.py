import contextlib
import copy
import csv
import io
import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from k3atlas import cli, degenerations, errors, lattices, topology
from k3atlas.atlas import Family, HInvariant, IdentityEnum, load_atlas
from k3atlas.cli import main
from k3atlas.degenerations import Degeneration, TableSide
from k3atlas.topology import Cover, PieceKind, Region, TopCase

GRAMS = os.path.join(os.path.dirname(__file__), os.pardir, "grams")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classes_csv_counts(capsys):
    code, out, _ = run(capsys, "classes", "--family", "u", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,r,a,delta,h,index,g,k,related_index"
    assert len(lines) == 1 + 63
    code, out, _ = run(capsys, "classes", "--family", "s311", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 102
    assert {rec["h"] for rec in records} == {"0", "Z2"}


def test_classes_markdown_grid(capsys):
    code, out, _ = run(capsys, "classes", "--family", "s311", "--format", "md")
    assert code == 0
    assert "### H = 0" in out and "### H = Z/2" in out
    # the (10,8) cell of the H = 0 grid carries both delta values
    h0_rows = out.split("### H = Z/2")[0].splitlines()
    a8_row = next(line for line in h0_rows if line.startswith("| 8 |"))
    assert "0,1" in a8_row


def test_isotopy_by_index(capsys):
    code, out, _ = run(capsys, "isotopy", "--index", "No.17", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "No.17,7,7,1,0,4,0,0,2,0,2,0,1,"


def test_isotopy_empty_cells(capsys):
    code, out, _ = run(capsys, "isotopy", "--index", "No.26'", "--format", "csv")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[:7] == ["No.26'", "10", "10", "1", "Z2", "1", "0"]
    assert row[7:11] == ["0", "0", "0", "0"]
    assert row[11:] == ["", "", ""]  # empty node2 cells and star column


def test_isotopy_star_row(capsys):
    code, out, _ = run(capsys, "isotopy", "--class", "10,8,0,0", "--format", "csv")
    assert code == 0
    row = next(csv.reader([out.splitlines()[1]]))
    assert row == ["special-(10,8,0)", "10", "8", "0", "0", "2", "1"] + [""] * 6 + [
        "T^2 u T^2"
    ]


def test_isotopy_full_table(capsys):
    code, out, _ = run(capsys, "isotopy", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 1 + 102


def test_isotopy_not_found(capsys):
    code, _, err = run(capsys, "isotopy", "--index", "No.99")
    assert code == 3 and "No.99" in err
    code, _, err = run(capsys, "isotopy", "--class", "10,10,0,0")
    assert code == 3


def test_isotopy_bad_h_is_a_usage_error(capsys):
    code, out, err = run(capsys, "isotopy", "--class", "1,1,1,7")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "atlas: H must be 0 or 1/Z2, got '7'\n"


@pytest.mark.parametrize("flag", ["--index", "--class"])
@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
def test_isotopy_empty_selector_is_a_usage_error(capsys, flag, fmt):
    # an empty selector must not fall through to the full table
    code, out, err = run(capsys, "isotopy", flag, "", "--format", fmt)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("atlas: ")


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
def test_degenerate_empty_class_is_a_bad_selector(capsys, fmt):
    # a --class that was given, though empty, is no missing flag
    code, out, err = run(capsys, "degenerate", "--class", "", "--format", fmt)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "atlas: selector for this family is r,a,delta\n"


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["degenerate", "--class", ""], "selector for this family is r,a,delta"),
        (["degenerate", "--class", "1,2"], "selector for this family is r,a,delta"),
        (["isotopy", "--class", "1,2"], "selector is r,a,delta,H"),
        (["isotopy", "--index", ""], "--index needs a catalog label, e.g. No.17"),
    ],
)
def test_bad_selector_is_a_usage_error_whatever_the_catalog(
    capsys, monkeypatch, tmp_path, argv, message, fmt
):
    # the selector is checked before the catalog is read, so a missing one is never reported
    monkeypatch.setenv("ATLAS_DATA_DIR", str(tmp_path / "missing"))
    assert run(capsys, *argv, "--format", fmt) == (cli.EXIT_USAGE, "", f"atlas: {message}\n")


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
@pytest.mark.parametrize(
    "argv, problem",
    [
        (["isotopy", "--index", "No.17", "--class", "9,9,0,1"], "--index and --class"),
        (["isotopy", "--index", "No.17", "--class", ""], "--index and --class"),
        (["degenerate", "--class", "9,9,1", "--side", "star"], "--side cannot"),
        (["degenerate", "--side", "unprimed", "--move", "conj1"], "--side cannot"),
        (["degenerate", "--class", "9,9,1", "--side", "star", "--move", "conj1"], "--side cannot"),
    ],
)
def test_conflicting_selectors_are_a_usage_error(capsys, argv, problem, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith(f"atlas: {problem}") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
@pytest.mark.parametrize("include", [[], ["--include-degenerate"]])
def test_isotopy_builds_one_candidate_list_per_class(capsys, monkeypatch, fmt, include):
    calls = []
    build = topology.candidate_isotopy_types

    def counted(c, *args, **kwargs):
        calls.append(c)
        return build(c, *args, **kwargs)

    monkeypatch.setattr(topology, "candidate_isotopy_types", counted)
    code, out, _ = run(capsys, "isotopy", "--format", fmt, *include)
    assert code == 0 and out
    assert len(calls) == 102


def test_isotopy_json_annotations(capsys):
    code, out, _ = run(capsys, "isotopy", "--class", "9,9,0,1", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["index"] == "special-(9,9,0)"
    flags = {c["case"]: c["conjectured_nonrealizable"] for c in record["candidates"]}
    assert flags["Node (1)"] and flags["Isolated point"]
    star = next(c for c in record["candidates"] if c["case"] == "Node (*)")
    assert star["real_part_phi"] == "Sigma_2"
    assert star["real_part_related"] == "T^2 u T^2"


def test_isotopy_include_degenerate(capsys):
    code, out, _ = run(
        capsys, "isotopy", "--index", "No.17", "--format", "json", "--include-degenerate"
    )
    assert code == 0
    record = json.loads(out)
    cusps = [c for c in record["candidates"] if c["case"].startswith("Cusp")]
    assert len(cusps) == 2 and all(not c["table_data"] for c in cusps)


def test_degenerate_class(capsys):
    code, out, _ = run(capsys, "degenerate", "--class", "9,9,1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert ["conj1", "Node (1)", "0", "0", "No.26"] in rows
    assert ["conj2", "impossible", "", "", ""] in rows
    assert ["contr3", "Isolated point", "0", "0", "No.26"] in rows
    assert ["conj4", "Node (*)", "0", "0", "special-(10,8,0)"] in rows


def test_degenerate_single_move(capsys):
    code, out, _ = run(
        capsys, "degenerate", "--class", "14,2,0", "--move", "conj2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[1] == "conj2,Node (2),6,0,No.44"


def test_degenerate_special_exit(capsys):
    code, _, err = run(capsys, "degenerate", "--class", "10,10,0")
    assert code == 4 and "empty real part" in err
    code, _, err = run(capsys, "degenerate", "--class", "10,8,0")
    assert code == 4


def test_degenerate_not_found(capsys):
    code, _, err = run(capsys, "degenerate", "--class", "4,4,0")
    assert code == 3


def test_degenerate_side_tables(capsys):
    code, out, _ = run(capsys, "degenerate", "--side", "primed", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 50
    assert lines[0] == "index,r,a,delta,g,k,conj1p_a,conj1p_b,conj2p_a,conj2p_b,contr3p_a,contr3p_b"
    row16 = next(line for line in lines if line.startswith("No.16'"))
    # derived value, not the shipped table cell (whitelisted discrepancy)
    assert row16 == "No.16',13,5,1,2,4,1,3,1,2,1,3"
    code, out, _ = run(capsys, "degenerate", "--side", "star", "--format", "csv")
    assert out.splitlines() == [
        "index,r,a,delta,g,k,move,result",
        "No.26,9,9,1,2,0,conj4,Node (*)",
        "No.26',11,9,1,1,1,conj4p,Node (*)",
    ]


_SIDES = [["degenerate", "--side", side.value] for side in TableSide]


def _markdown_rows(text: str) -> list[list[str]]:
    # The header and body rows of the one table in text, without the |---| line.
    return [line[2:-2].split(" | ") for line in text.splitlines() if line.startswith("| ")]


@pytest.mark.parametrize("argv", [["classes", "--family", "s311"], ["classes", "--family", "u"], *_SIDES])
def test_csv_rows_are_the_json_records(capsys, argv):
    _code, text, _ = run(capsys, *argv, "--format", "csv")
    header, *rows = csv.reader(io.StringIO(text))
    _code, text, _ = run(capsys, *argv, "--format", "json")
    records = json.loads(text)
    assert rows and [list(rec) for rec in records] == [header] * len(rows)
    assert rows == [["" if v is None else str(v) for v in rec.values()] for rec in records]


@pytest.mark.parametrize("argv", [["isotopy"], *_SIDES])
def test_markdown_cells_are_the_csv_rows(capsys, argv):
    _code, text, _ = run(capsys, *argv, "--format", "csv")
    rows = list(csv.reader(io.StringIO(text)))
    _code, text, _ = run(capsys, *argv, "--format", "md")
    assert len(rows) > 1 and _markdown_rows(text) == rows


def test_bad_flags_exit_two(capsys):
    # argparse's own errors end like every other one: one line, exit 2
    for argv, problem in (
        (["classes", "--family", "bogus"], "argument --family: unknown family 'bogus'"),
        (["nonsense"], "argument command: invalid choice: 'nonsense'"),
        (["degenerate", "--class", "9,9,1", "--move=x"], "argument --move: invalid choice: 'x'"),
        (["degenerate", "--side", "left"], "argument --side: invalid choice: 'left'"),
        (["divisor", "--class", "12,3", "--surface", "p2"], "argument --surface: invalid choice"),
        (["graph", "--format", "svg"], "argument --format: invalid choice: 'svg'"),
        (["validate", "--strict"], "unrecognized arguments: --strict"),
        ([], "the following arguments are required: command"),
        (["classes"], "the following arguments are required: --family"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"atlas: {problem}") and err.count("\n") == 1, err


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["degenerate", "--help"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert "usage: atlas" in capsys.readouterr().out


def test_graph_exports(capsys):
    code, dot, _ = run(capsys, "graph", "--format", "dot")
    assert code == 0
    assert dot.count(" -> ") == 280
    assert dot.splitlines()[0] == "digraph degenerations {"
    code, out, _ = run(capsys, "graph", "--format", "json")
    payload = json.loads(out)
    assert len(payload["nodes"]) == 165
    assert len(payload["edges"]) == 280


def test_validate_clean(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "summary: 102/51, 63/37, correspondence OK, 1 whitelisted discrepancy" in out
    code, out, _ = run(capsys, "validate", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["violations"] == []
    assert len(payload["whitelisted"]) == 1


def test_determinism(capsys):
    outputs = []
    for _ in range(2):
        _code, out, _ = run(capsys, "classes", "--family", "s311", "--format", "csv")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        _code, out, _ = run(capsys, "graph", "--format", "dot")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_output_does_not_depend_on_hashing():
    # Enum members hash by identity, so the order of a set of them follows
    # memory addresses; string hashes follow PYTHONHASHSEED.  Neither may
    # reach stdout.  One interpreter per seed runs the commands in turn.
    env = {k: v for k, v in os.environ.items() if k != "ATLAS_DATA_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    commands = (
        ["graph", "--format", "dot"],
        ["graph", "--format", "json"],
        ["validate", "--format", "json"],
    )
    script = (
        "import contextlib, io, json, sys\n"
        "from k3atlas.cli import main\n"
        "outputs = []\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        assert main(argv) == 0\n"
        "    outputs.append(out.getvalue())\n"
        "json.dump(outputs, sys.stdout)\n"
    )
    by_seed = [
        json.loads(subprocess.run(
            [sys.executable, "-c", script],
            env={**env, "PYTHONHASHSEED": seed},
            capture_output=True,
            timeout=60,
            check=True,
        ).stdout)
        for seed in ("0", "1")
    ]
    for argv, first, second in zip(commands, *by_seed, strict=True):
        assert first and first == second, argv


IDENTITY_ENUMS = (
    Family, HInvariant, TopCase, Region, Cover, PieceKind, Degeneration, TableSide
)


def test_identity_enums_survive_pickle_and_deepcopy():
    assert set(IdentityEnum.__subclasses__()) == set(IDENTITY_ENUMS)
    for enum in IDENTITY_ENUMS:
        assert enum.__hash__ is object.__hash__
        for member in enum:
            assert copy.deepcopy(member) is member
            assert copy.copy(member) is member
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(member, protocol)) is member
            assert {member: 1}[enum(member.value)] == 1


def test_lattice_reports(capsys):
    code, out, _ = run(capsys, "lattice", os.path.join(GRAMS, "s311.gram"))
    assert code == 0
    assert "signature: (1,2)" in out
    assert "invariants (r,a,delta): (3,1,1)" in out
    code, out, _ = run(capsys, "lattice", os.path.join(GRAMS, "u.gram"))
    assert code == 0
    assert "invariants (r,a,delta): (2,0,0)" in out and "signature: (1,1)" in out
    code, out, _ = run(capsys, "lattice", os.path.join(GRAMS, "picy.gram"))
    assert code == 0
    assert "not applicable" in out and "odd" in out
    assert "det: 1" in out and "signature: (1,2)" in out
    code, out, _ = run(capsys, "lattice", os.path.join(GRAMS, "lk3.gram"))
    assert "signature: (3,19)" in out


def test_lattice_json(capsys):
    code, out, _ = run(
        capsys, "lattice", os.path.join(GRAMS, "minus2.gram"), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["two_elementary"] == {"r": 1, "a": 1, "delta": 1}
    assert payload["discriminant_group"] == [2]


def test_lattice_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.gram"
    bad.write_text("2\n1 0\n")
    code, _, err = run(capsys, "lattice", str(bad))
    assert code == 5
    code, _, err = run(capsys, "lattice", str(tmp_path / "missing.gram"))
    assert code == 5


@pytest.mark.parametrize("entry", ["1_0", "+1", "\u0661"])
def test_lattice_entry_outside_the_grammar(capsys, tmp_path, entry):
    # int() reads each of these; the Gram grammar is an optional '-' then ASCII digits.
    path = tmp_path / "outside.gram"
    path.write_text(f"2\n2 {entry}\n{entry} 2\n", encoding="utf-8")
    code, out, err = run(capsys, "lattice", str(path))
    assert (code, out) == (5, "")
    assert err == f"atlas: row 1 has {entry!r}: an integer is an optional '-' then ASCII digits\n"


def test_lattice_not_utf8(capsys, tmp_path):
    bad = tmp_path / "bad.gram"
    bad.write_bytes(b"\xff\xfe2\n")
    code, out, err = run(capsys, "lattice", str(bad))
    assert (code, out) == (5, "")
    assert err == f"atlas: {bad}: not UTF-8: invalid start byte at byte 0\n"


# Smith normal forms per `atlas lattice` run: none for a 2-elementary file,
# and one when the F_2 route does not apply (odd, or even and not
# 2-elementary): the lattice keeps its invariant factors, so the message and
# the printed orders share it.
@pytest.mark.parametrize("gram, expected", [("lk3", 0), ("picy", 1), ("six", 1)])
def test_lattice_counts_smith_normal_forms(capsys, monkeypatch, tmp_path, gram, expected):
    calls = []
    snf = lattices.smith_normal_form

    def counted(m):
        calls.append(m)
        return snf(m)

    (tmp_path / "six.gram").write_text("1\n6\n")
    path = tmp_path / "six.gram" if gram == "six" else os.path.join(GRAMS, f"{gram}.gram")
    monkeypatch.setattr(lattices, "smith_normal_form", counted)
    code, _, _ = run(capsys, "lattice", str(path))
    assert code == 0 and len(calls) == expected


def test_lattice_runs_one_elimination(capsys, monkeypatch):
    # det, signature and (r, a, delta) all read the lattice's one elimination.
    calls = []
    eliminate = lattices._symmetric_bareiss
    monkeypatch.setattr(lattices, "_symmetric_bareiss", lambda m: calls.append(m) or eliminate(m))
    code, out, _ = run(capsys, "lattice", os.path.join(GRAMS, "lk3.gram"))
    assert code == 0 and "signature: (3,19)" in out and "det: -1" in out
    assert len(calls) == 1


def test_lattice_entry_over_the_digit_limit(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    long = tmp_path / "long.gram"
    long.write_text(f"1\n{'7' * (limit + 1)}\n")
    code, out, err = run(capsys, "lattice", str(long))
    assert (code, out) == (5, "")
    assert err == f"atlas: row 1 contains an integer over Python's {limit}-digit int-string limit\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lattice_result_over_the_digit_limit(capsys, tmp_path, fmt):
    # Each entry of diag(2 * 10^k) has k + 1 digits, within the limit; the
    # determinant 4 * 10^(2k) has 2k + 1, past it.
    limit = sys.get_int_max_str_digits()
    entry = 2 * 10 ** (limit // 2 + 1)
    huge = tmp_path / "huge.gram"
    huge.write_text(f"2\n{entry} 0\n0 {entry}\n")
    code, out, err = run(capsys, "lattice", str(huge), "--format", fmt)
    assert (code, out) == (8, "")
    assert err == f"atlas: a result has over {limit} digits, Python's int-string limit\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_divisor_result_over_the_digit_limit(capsys, fmt):
    # The coordinate 10^k has k + 1 digits, within the limit; the
    # self-intersection -4 * 10^(2k) of 10^k s has 2k + 1, past it.
    limit = sys.get_int_max_str_digits()
    cls = f"0,{10 ** (limit // 2 + 1)}"
    code, out, err = run(capsys, "divisor", "--class", cls, "--format", fmt)
    assert (code, out) == (8, "")
    assert err == f"atlas: a result has over {limit} digits, Python's int-string limit\n"


def test_lattice_degenerate_exit(capsys, tmp_path):
    degenerate = tmp_path / "degenerate.gram"
    degenerate.write_text("2\n1 1\n1 1\n")
    code, _, err = run(capsys, "lattice", str(degenerate))
    assert code == 6 and "degenerate" in err


def test_divisor_report(capsys):
    code, out, _ = run(capsys, "divisor", "--surface", "f4", "--class", "12,3")
    assert code == 0
    assert "self-intersection: 36" in out
    assert "arithmetic genus: 10" in out
    code, out, _ = run(
        capsys, "divisor", "--class", "12,3", "--intersect", "1,0", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["pairing"] == 3
    code, out, _ = run(capsys, "divisor", "--surface", "y", "--class", "12,10,3")
    assert code == 0
    assert "not modelled" in out


_OUTSIDE = "an integer is an optional '-' then ASCII digits"


@pytest.mark.parametrize(
    "argv, token",
    [
        (["divisor", "--class", "\uff11\uff12,3"], "\uff11\uff12"),
        (["divisor", "--class", "12,3", "--intersect", "1,+0"], "+0"),
        (["isotopy", "--class", "9,9,+1,0"], "+1"),
        (["isotopy", "--class", "9, 9 ,\u0661,1", "--format", "json"], "\u0661"),
        (["degenerate", "--class", "9,9,1_0"], "1_0"),
        (["degenerate", "--class=-0_1,9,1"], "-0_1"),
    ],
)
def test_list_integer_outside_the_grammar_is_a_usage_error(capsys, argv, token):
    # int() reads each of these tokens; a --class or --intersect list takes README's integer,
    # as a Gram file does, whitespace around a token aside.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"atlas: {token!r}: {_OUTSIDE}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["divisor", "--class", "1,x"], "invalid literal for int() with base 10: 'x'"),
        (["divisor", "--class", "x_,1_0"], "invalid literal for int() with base 10: 'x_'"),
        (["divisor", "--class", "1_0,x"], "invalid literal for int() with base 10: 'x'"),
        (["isotopy", "--class", "9,9,1.0,0"], "invalid literal for int() with base 10: '1.0'"),
    ],
)
def test_list_token_int_refuses_keeps_its_message(capsys, argv, message):
    # A list that int() refuses keeps int()'s message, whatever else it holds.
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"atlas: {message}\n")


def test_list_integers_take_surrounding_whitespace(capsys):
    spaced = run(capsys, "divisor", "--class", " 12 ,\t3\u3000", "--format", "json")
    assert spaced == run(capsys, "divisor", "--class", "12,3", "--format", "json")
    assert spaced[0] == 0


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_divisor_empty_intersect_is_a_usage_error(capsys, fmt):
    code, out, err = run(capsys, "divisor", "--class", "12,3", "--intersect", "", "--format", fmt)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "atlas: --intersect needs a class, e.g. 1,0\n"


def _choices(subcommand: str, dest: str) -> tuple[str, ...]:
    subparsers = next(
        action for action in cli.build_parser()._actions if action.dest == "command"
    )
    options = subparsers.choices[subcommand]._actions
    return tuple(next(action for action in options if action.dest == dest).choices)


def test_move_choices_are_the_moves():
    from k3atlas.divisors import Surface

    assert cli.MOVE_NAMES == tuple(sorted(move.value for move in Degeneration))
    assert _choices("degenerate", "move") == cli.MOVE_NAMES
    assert _choices("degenerate", "side") == tuple(side.value for side in TableSide)
    assert _choices("divisor", "surface") == tuple(surface.value for surface in Surface)


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "classes.csv"
    code, out, _ = run(
        capsys, "classes", "--family", "u", "--format", "csv", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert len(target.read_text().splitlines()) == 64


@pytest.mark.parametrize("name", ["missing-dir/x.csv", "."])
def test_out_flag_unwritable(capsys, tmp_path, name):
    target = tmp_path / name
    code, out, err = run(capsys, "classes", "--family", "u", "--out", str(target))
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith(f"atlas: cannot write {target}: ") and err.count("\n") == 1


@pytest.fixture
def exported_catalogs(tmp_path, capsys):
    for family in ("s311", "u"):
        run(
            capsys,
            "classes",
            "--family",
            family,
            "--format",
            "json",
            "--out",
            str(tmp_path / f"{family}.json"),
        )
    return tmp_path


def test_data_dir_roundtrip(exported_catalogs, capsys, monkeypatch):
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    code, out, _ = run(capsys, "validate")
    assert code == 0
    code, out, _ = run(capsys, "classes", "--family", "s311", "--format", "json")
    monkeypatch.delenv("ATLAS_DATA_DIR")
    _code, baseline, _ = run(capsys, "classes", "--family", "s311", "--format", "json")
    assert out == baseline


def test_data_dir_empty_family_prints_an_empty_grid(exported_catalogs, capsys, monkeypatch):
    (exported_catalogs / "u.json").write_text("[]")
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    assert run(capsys, "classes", "--family", "u") == (0, "### nonsingular-curve classes\n\n(empty)\n", "")


def test_data_dir_missing_class(exported_catalogs, capsys, monkeypatch):
    path = exported_catalogs / "s311.json"
    records = [rec for rec in json.loads(path.read_text()) if rec["index"] != "No.17"]
    path.write_text(json.dumps(records))
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    code, out, _ = run(capsys, "validate")
    assert code == 1
    # the report names the now-unpaired partner
    assert "No.17'" in out and "related invariants" in out


def test_data_dir_duplicate_class(exported_catalogs, capsys, monkeypatch):
    path = exported_catalogs / "u.json"
    records = json.loads(path.read_text())
    path.write_text(json.dumps(records + [records[0]]))
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    code, out, _ = run(capsys, "validate")
    assert code == 1
    assert "  ! u: duplicate invariants (1, 1, 1) (No.1 and No.1)\n" in out
    assert "missing from u" not in out


def test_data_dir_odd_parity_classes_are_reported(exported_catalogs, capsys, monkeypatch):
    # r - a odd: no integral (g, k), so the audit must report the classes,
    # not stop at the first one it cannot describe.
    path = exported_catalogs / "u.json"
    records = json.loads(path.read_text())
    for index, r in (("X1", 5), ("X2", 15)):
        records.append(dict(records[0], index=index, r=r, a=2, delta=1))
    path.write_text(json.dumps(records))
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    code, out, err = run(capsys, "validate")
    assert (code, err) == (1, "")
    assert "  ! X1: r - a is odd\n  ! X2: r - a is odd\n" in out
    assert out.endswith("summary: 102/51, 65/38, 5 violations, 0 whitelisted discrepancies\n")
    # the export leaves (g, k) empty where r - a is odd
    code, out, _ = run(capsys, "classes", "--family", "u", "--format", "json")
    exported = {rec["index"]: rec for rec in json.loads(out)}
    assert code == 0
    for index, related in (("X1", "X2"), ("X2", "X1")):
        assert (exported[index]["g"], exported[index]["k"]) == (None, None)
        assert exported[index]["related_index"] == related


def test_data_dir_superscript_digit_in_an_index(exported_catalogs, capsys, monkeypatch):
    # "²" is a digit to str.isdigit but not to int(): the move tables sort
    # their rows by the decimal digits of the index.
    path = exported_catalogs / "u.json"
    records = json.loads(path.read_text())
    for rec in records:
        if rec["index"] == "No.1":
            rec["index"] = "No.1²"
    path.write_text(json.dumps(records))
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    code, out, err = run(capsys, "degenerate", "--side", "unprimed")
    assert (code, err) == (0, "")
    assert out.splitlines()[2].startswith("| No.1² | 1 | 1 | 1 | 10 | 0 |")
    code, out, err = run(capsys, "validate")
    assert (code, err) == (1, "")
    assert "  ! correspondence: No.1: missing from one of the catalogs\n" in out
    assert out.endswith("summary: 102/51, 63/37, 3 violations, 1 whitelisted discrepancy\n")


@pytest.mark.parametrize(
    "name, content, problem",
    [
        (None, None, "s311.json: cannot read"),  # the directory does not exist
        ("u.json", b"\xff[]", "u.json: not UTF-8"),
        ("s311.json", b"[{", "s311.json: bad JSON"),
        ("u.json", b'[{"family": "u", "a": 1, "delta": 1}]', "u.json: record 0: field 'r' is missing"),
    ],
)
def test_data_dir_malformed_exit_seven(exported_catalogs, capsys, monkeypatch, name, content, problem):
    data_dir = exported_catalogs / "missing" if name is None else exported_catalogs
    if name is not None:
        (data_dir / name).write_bytes(content)
    monkeypatch.setenv("ATLAS_DATA_DIR", str(data_dir))
    for argv in (["validate"], ["classes", "--family", "u"], ["degenerate", "--side", "primed"]):
        code, out, err = run(capsys, *argv)
        assert code == 7 and out == ""
        assert err.startswith(f"atlas: {os.path.join(data_dir, problem)}")
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("index", [None, 17, 1.5, [1], {}])
def test_data_dir_index_must_be_a_json_string(exported_catalogs, capsys, monkeypatch, index):
    # str() made these labels: a null index printed as "None" and failed 101 checks.
    path = exported_catalogs / "u.json"
    records = json.loads(path.read_text())
    records[0]["index"] = index
    path.write_text(json.dumps(records))
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    problem = os.path.join(exported_catalogs, f"u.json: record 0: field 'index' has bad value {index!r}")
    for argv in (["validate"], ["classes", "--family", "u", "--format", "csv"]):
        assert run(capsys, *argv) == (7, "", f"atlas: {problem}\n")


def test_data_dir_empty_catalog(exported_catalogs, capsys, monkeypatch):
    for name in ("s311.json", "u.json"):
        (exported_catalogs / name).write_text("[]")
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    code, out, _ = run(capsys, "degenerate", "--side", "primed", "--format", "csv")
    assert code == 0
    assert out == "index,r,a,delta,g,k,conj1p_a,conj1p_b,conj2p_a,conj2p_b,contr3p_a,contr3p_b\n"
    code, out, _ = run(capsys, "degenerate", "--side", "unprimed")
    assert code == 0 and len(out.splitlines()) == 2
    code, out, _ = run(capsys, "validate")
    assert code == 1


def test_data_dir_excluded_class_under_a_table_label(exported_catalogs, capsys, monkeypatch):
    # (10,8,0) carries the label No.5 and the real No.5 another one: the
    # correspondence check reaches an excluded class by its label.
    path = exported_catalogs / "u.json"
    records = json.loads(path.read_text())
    for rec in records:
        if rec["index"] == "No.5":
            rec["index"] = "special-x"
        elif (rec["r"], rec["a"], rec["delta"]) == (10, 8, 0):
            rec["index"] = "No.5"
    path.write_text(json.dumps(records))
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    code, out, err = run(capsys, "validate")
    assert (code, out) == (4, "")
    assert err == "atlas: (10,8,0) carries no oval bookkeeping; degenerations are undefined\n"


class _NotFoundHere(errors.NotInAtlas):
    pass


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.NotInAtlas, 3),
        (_NotFoundHere, 3),  # resolved through the MRO
        (errors.SpecialClass, 4),
        (errors.WrongFamily, 4),
        (errors.MoveNotApplicable, 2),
        (errors.GramParseError, 5),
        (errors.DegenerateLattice, 6),
        (errors.CatalogError, 7),
        (errors.NotTwoElementary, 1),
    ],
)
def test_exit_code_table(capsys, monkeypatch, error, code):
    def fail(_atlas):
        raise error("boom")

    # cmd_graph imports transition_graph when it runs
    monkeypatch.setattr(degenerations, "transition_graph", fail)
    assert run(capsys, "graph") == (code, "", "atlas: boom\n")


def test_exit_codes_of_library_errors(exported_catalogs, capsys, monkeypatch):
    code, _, err = run(capsys, "degenerate", "--class", "14,2,0", "--move", "conj4")
    assert code == 2 and "starts from (9,9,1) only" in err
    path = exported_catalogs / "s311.json"
    records = [rec for rec in json.loads(path.read_text()) if rec["index"] != "No.17'"]
    path.write_text(json.dumps(records))
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    code, out, err = run(capsys, "degenerate", "--side", "primed")
    assert (code, out) == (3, "")
    assert err == "atlas: no class with invariants (12, 8, 1) and H=Z2 exists\n"
    code, _, _ = run(capsys, "validate")
    assert code == 1


@pytest.mark.parametrize(
    "index, failing, invariants",
    [
        ("No.17'", "primed", "(12, 8, 1) and H=Z2"),  # the target of primed moves only
        ("No.17", "unprimed", "(7, 7, 1) and H=0"),  # the target of unprimed moves only
        ("special-(10,8,0)", "star", "(10, 8, 0) and H=0"),  # the target of conj4 only
    ],
    ids=["primed", "unprimed", "star"],
)
def test_data_dir_missing_target_fails_only_what_reads_it(
    exported_catalogs, capsys, monkeypatch, index, failing, invariants
):
    # An s311 class that only one table's moves land on: the other tables never read those
    # outcomes and print as on the embedded catalog.
    sides = [side.value for side in TableSide if side.value != failing]
    embedded = {side: run(capsys, "degenerate", "--side", side) for side in sides}
    path = exported_catalogs / "s311.json"
    path.write_text(json.dumps([rec for rec in json.loads(path.read_text()) if rec["index"] != index]))
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    missing = f"atlas: no class with invariants {invariants} exists\n"
    for _call in range(2):  # a first and a warm call on the same atlas
        for side in sides:
            assert run(capsys, "degenerate", "--side", side) == embedded[side]
        for argv in (["degenerate", "--side", failing], ["graph"]):
            assert run(capsys, *argv) == (3, "", missing)
        code, out, err = run(capsys, "validate")
        assert (code, err) == (1, "")
        assert out.endswith("summary: 101/50, 63/37, 5 violations, 0 whitelisted discrepancies\n")


def test_data_dir_class_without_integral_gk_is_named(exported_catalogs, capsys, monkeypatch):
    # r - a = 11 is odd, so (12,1,1) has no (g, k): every reader of the U pass names the record,
    # on a first and a later call, and the catalog audit reports it.
    path = exported_catalogs / "u.json"
    records = json.loads(path.read_text())
    path.write_text(json.dumps(records + [dict(records[0], index="No.77", r=12, a=1, delta=1)]))
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    message = "atlas: No.77: (12,1,1) has no integral (g, k)\n"
    for _call in range(2):
        for argv in (["degenerate", "--side", "unprimed"], ["degenerate", "--side", "star"], ["graph"]):
            assert run(capsys, *argv) == (4, "", message)
    code, out, err = run(capsys, "validate")
    assert (code, err) == (1, "") and "  ! No.77: r - a is odd\n" in out


def test_data_dir_markdown_grid_needs_no_related_partner(exported_catalogs, capsys, monkeypatch):
    # Only CSV and JSON print each class's related_index: without No.16 (7,5,1), its partner
    # No.43 has none, and the grid still prints, short of that one class.
    _code, embedded, _ = run(capsys, "classes", "--family", "u")
    path = exported_catalogs / "u.json"
    path.write_text(json.dumps([rec for rec in json.loads(path.read_text()) if rec["index"] != "No.16"]))
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    code, out, err = run(capsys, "classes", "--family", "u")
    assert (code, err) == (0, "")
    before, after = _markdown_rows(embedded), _markdown_rows(out)
    assert [line for line in out.splitlines() if not line.startswith("| ")] == [
        line for line in embedded.splitlines() if not line.startswith("| ")
    ]
    changed = [
        (row[0], r, old, new)
        for row, new_row in zip(before, after)
        for r, old, new in zip(before[0], row, new_row)
        if old != new
    ]
    assert len(after) == len(before) and changed == [("5", "7", "1", "")]
    missing = "atlas: related invariants of U:No.43 (13,5,1) are missing from the atlas\n"
    for fmt in ("csv", "json"):
        assert run(capsys, "classes", "--family", "u", "--format", fmt) == (3, "", missing)


@pytest.mark.parametrize("first", [False, True], ids=["after", "first"])
def test_data_dir_one_label_on_two_classes(exported_catalogs, capsys, monkeypatch, first):
    # (10,8,0) also carries the label No.5 of (3,1,1): in either record order the catalog audit
    # names the label, and the deeper checks, which look classes up by label, do not run.
    path = exported_catalogs / "u.json"
    records = json.loads(path.read_text())
    relabelled = next(rec for rec in records if rec["index"] == "special-(10,8,0)")
    relabelled["index"] = "No.5"
    if first:
        records = [relabelled] + [rec for rec in records if rec is not relabelled]
    path.write_text(json.dumps(records))
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    code, out, err = run(capsys, "validate")
    assert (code, err) == (1, "")
    assert "  ! u: label No.5 names (3, 1, 1) and (10, 8, 0)\n" in out
    assert out.endswith("summary: 102/51, 63/37, 1 violation, 0 whitelisted discrepancies\n")


def test_data_dir_catalog_file_that_is_a_directory(exported_catalogs, capsys, monkeypatch):
    path = exported_catalogs / "s311.json"
    path.unlink()
    path.mkdir()
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    assert run(capsys, "validate") == (7, "", f"atlas: {path}: cannot read: Is a directory\n")


def test_data_dir_u_catalog_that_is_a_directory_leaks_no_descriptor(
    exported_catalogs, capsys, monkeypatch
):
    path = exported_catalogs / "u.json"
    path.unlink()
    path.mkdir()
    monkeypatch.setenv("ATLAS_DATA_DIR", str(exported_catalogs))
    assert run(capsys, "validate") == (7, "", f"atlas: {path}: cannot read: Is a directory\n")
    # A second catalog whose u.json is missing: s311.json opens and reads, u.json does not open.
    missing = exported_catalogs / "missing"
    missing.mkdir()
    (missing / "s311.json").write_bytes((exported_catalogs / "s311.json").read_bytes())
    descriptors = "/proc/self/fd"
    before = len(os.listdir(descriptors)) if os.path.isdir(descriptors) else None
    cases = [(exported_catalogs, "Is a directory"), (missing, "No such file or directory")]
    for n in range(50):
        data_dir, problem = cases[n % 2]
        with pytest.raises(errors.CatalogError) as raised:
            load_atlas(str(data_dir))
        assert str(raised.value) == f"{data_dir / 'u.json'}: cannot read: {problem}"
    if before is not None:
        assert len(os.listdir(descriptors)) == before


# Line and paragraph separators and control characters are left out: the
# messages echo the selector, and a line break in it would split the line.
_SELECTOR_CHARS = st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"))
# Valid selectors of every subcommand, so that exits 0, 3 and 4 are drawn too.
_KNOWN = ["No.17", "No.26'", "10,8,0,0", "9,9,0,1", "9,9,1", "10,10,0", "14,2,0", "1,0"]
_KNOWN += list(cli.MOVE_NAMES) + [side.value for side in TableSide]
_SELECTORS = st.one_of(
    st.sampled_from(_KNOWN),
    st.text(_SELECTOR_CHARS, max_size=12),
    st.lists(
        st.one_of(
            st.integers(-2, 20).map(str),
            st.sampled_from(["0", "1", "Z2", " 9", ""]),
            st.text(_SELECTOR_CHARS, max_size=3),
        ),
        max_size=5,
    ).map(",".join),
)


@pytest.mark.parametrize(
    "prefix",
    [
        ["isotopy", "--class"],
        ["isotopy", "--index"],
        ["degenerate", "--class"],
        ["divisor", "--class", "12,3", "--intersect"],
        ["degenerate", "--class", "9,9,1", "--move"],
        ["degenerate", "--side"],
    ],
)
@settings(max_examples=50, derandomize=True, deadline=None)
@given(text=_SELECTORS)
def test_random_selectors_exit_with_a_documented_code(prefix, text):
    # --flag=TEXT, so that a value such as -1,2 is not read as an option.
    argv = prefix[:-1] + [f"{prefix[-1]}={text}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    message = err.getvalue()
    assert "Traceback" not in message
    assert message == "" or (message.startswith("atlas: ") and message.count("\n") == 1)
