"""The package surface: every exported name resolves, submodules load on
first use, and the catalog half loads no lattice, divisor or JSON code."""

import functools
import importlib
import os
import pkgutil
import subprocess
import sys
import typing

import pytest

import k3atlas

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
GRAMS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "grams")
UNUSED_BY_CATALOG = ("k3atlas.lattices", "k3atlas.divisors", "k3atlas.validation")


def test_every_export_is_its_module_binding():
    assert len(set(k3atlas.__all__)) == len(k3atlas.__all__)
    for name in k3atlas.__all__:
        value = getattr(k3atlas, name)
        assert value.__module__.startswith("k3atlas."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from k3atlas import *", namespace)
    for name in k3atlas.__all__:
        assert namespace[name] is getattr(k3atlas, name), name


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        k3atlas.no_such_name
    with pytest.raises(ImportError):
        from k3atlas import no_such_name  # noqa: F401


def test_dir_lists_the_exports():
    listed = dir(k3atlas)
    assert set(k3atlas.__all__) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)


def test_a_replaced_function_is_seen_through_the_package(monkeypatch):
    from k3atlas import topology

    sentinel = object()
    monkeypatch.setattr(topology, "region_descriptor", sentinel)
    assert k3atlas.region_descriptor is sentinel
    monkeypatch.undo()
    assert k3atlas.region_descriptor is topology.region_descriptor


def test_member_globals_are_the_members_they_name():
    # The catalog modules read enum members from private module globals
    # (see atlas.IdentityEnum); each must be the member of its name.
    from k3atlas import atlas, degenerations, topology, validation

    bound = 0
    for module in (atlas, topology, degenerations, validation):
        for name, value in vars(module).items():
            if isinstance(value, atlas.IdentityEnum):
                assert name == f"_{value.name}", (module.__name__, name)
                bound += 1
    assert bound  # the check found the globals


def test_no_namedtuple_field_annotation_is_a_forward_reference():
    # typing.NamedTuple turns a string annotation, as `from __future__ import annotations`
    # makes every one, into a ForwardRef, whose constructor compiles the text at import.
    fields = 0
    for info in pkgutil.iter_modules(k3atlas.__path__):
        module = importlib.import_module(f"k3atlas.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and hasattr(value, "_fields"):  # a NamedTuple or a subclass
                for name, annotation in value.__annotations__.items():
                    assert not isinstance(annotation, typing.ForwardRef), (value.__qualname__, name)
                    fields += 1
    assert fields  # the check found the NamedTuples


@functools.cache
def _modules_loaded_by(code: str) -> frozenset[str]:
    """The modules a fresh interpreter loads while running ``code``, once per ``code``."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "ATLAS_DATA_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return frozenset(done.stderr.split())


def test_loading_the_atlas_loads_no_lattice_or_json_code():
    loaded = _modules_loaded_by("import k3atlas; k3atlas.load_atlas()")
    assert "k3atlas.atlas" in loaded
    assert not loaded & {*UNUSED_BY_CATALOG, "json"}


# Each subcommand with the module that does its work.
SUBCOMMANDS = {
    "classes": (["classes", "--family", "u"], "k3atlas.atlas"),
    "isotopy": (["isotopy", "--index", "No.17"], "k3atlas.topology"),
    "degenerate": (["degenerate", "--side", "primed"], "k3atlas.degenerations"),
    "graph": (["graph"], "k3atlas.degenerations"),
    "validate": (["validate"], "k3atlas.validation"),
    "lattice": (["lattice", os.path.join(GRAMS, "lk3.gram")], "k3atlas.lattices"),
    "divisor": (["divisor", "--class", "12,3"], "k3atlas.divisors"),
}


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_no_subcommand_loads_dataclasses(name):
    argv, worker = SUBCOMMANDS[name]
    loaded = _modules_loaded_by(f"from k3atlas.cli import main\nassert main({argv!r}) == 0")
    assert worker in loaded
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv", [["classes", "--family", "u"], ["isotopy", "--index", "No.17"]]
)
def test_catalog_subcommands_load_only_what_they_use(argv):
    # The code test_no_subcommand_loads_dataclasses runs: its cached answer, no new interpreter.
    loaded = _modules_loaded_by(f"from k3atlas.cli import main\nassert main({argv!r}) == 0")
    assert "k3atlas.atlas" in loaded
    assert not loaded & {*UNUSED_BY_CATALOG, "k3atlas.degenerations"}
