"""Reads through the package: each export is a descriptor on the package's
class, so once a submodule is loaded a ``k3atlas.<name>`` read is the
descriptor's dict lookup and a ``getattr`` on the kept module, and a name set
on the package itself wins until it is deleted."""

import cProfile
import importlib
import os
import subprocess
import sys
from unittest import mock

import pytest

import k3atlas

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def test_warm_reads_import_nothing(monkeypatch):
    for name in k3atlas.__all__:
        getattr(k3atlas, name)

    def refusing(name, package=None):
        raise AssertionError(f"import_module({name!r}) on a warm read")

    monkeypatch.setattr(k3atlas, "import_module", refusing)
    for name in k3atlas.__all__:
        value = getattr(k3atlas, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError, match="no_such_name"):
        k3atlas.no_such_name


def test_a_name_set_on_the_package_wins_until_it_is_deleted():
    from k3atlas import atlas

    def replacement():
        pass

    with mock.patch("k3atlas.load_atlas", replacement):
        assert k3atlas.load_atlas is replacement
    assert k3atlas.load_atlas is atlas.load_atlas
    k3atlas.load_atlas = 1
    assert k3atlas.load_atlas == 1
    del k3atlas.load_atlas
    assert k3atlas.load_atlas is atlas.load_atlas
    k3atlas.x = 1
    assert k3atlas.x == 1
    del k3atlas.x
    with pytest.raises(AttributeError, match="module 'k3atlas' has no attribute 'x'"):
        k3atlas.x


def test_every_export_reads_after_a_reload(monkeypatch):
    monkeypatch.delenv("ATLAS_DATA_DIR", raising=False)
    summary = k3atlas.run_all_checks().summary_line()
    assert importlib.reload(k3atlas) is k3atlas
    for name in k3atlas.__all__:
        value = getattr(k3atlas, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert k3atlas.run_all_checks().summary_line() == summary


def test_threads_making_the_first_reads_see_whole_modules():
    # In a fresh interpreter, eight threads read every export at once, each from another
    # start; a module kept before its import finished would lack names defined later.
    script = (
        "import sys, threading\n"
        "import k3atlas\n"
        "names = list(k3atlas.__all__)\n"
        "barrier = threading.Barrier(8)\n"
        "wrong = []\n"
        "def work(turn):\n"
        "    barrier.wait()\n"
        "    for name in names[turn:] + names[:turn]:\n"
        "        try:\n"
        "            value = getattr(k3atlas, name)\n"
        "        except AttributeError as exc:\n"
        "            wrong.append(repr(exc))\n"
        "            continue\n"
        "        if getattr(sys.modules[value.__module__], name) is not value:\n"
        "            wrong.append(name)\n"
        "sys.setswitchinterval(1e-6)\n"
        "threads = [threading.Thread(target=work, args=(9 * t,)) for t in range(8)]\n"
        "for thread in threads:\n"
        "    thread.start()\n"
        "for thread in threads:\n"
        "    thread.join(timeout=60)\n"
        "assert not any(thread.is_alive() for thread in threads)\n"
        "kept = {m: module is sys.modules['k3atlas.' + m] for m, module in k3atlas._LOADED.items()}\n"
        "print(wrong, sorted(kept), all(kept.values()))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "ATLAS_DATA_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout.split("\n")[0] == f"[] {sorted(k3atlas._EXPORTS)} True"


def test_warm_table_read_stays_under_its_call_budget(monkeypatch):
    # 12 cProfile entries on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0, under pytest too:
    # the call, two package reads (a descriptor __get__, one dict lookup and a getattr
    # each), load_atlas and the kept table.  14 while each read was a module __getattr__
    # that also looked the name up; 36 on 3.11 to 3.13 (104 on 3.10) while load_atlas
    # raised and caught a KeyError for the unset variable and every package read went
    # through importlib.import_module.
    monkeypatch.delenv("ATLAS_DATA_DIR", raising=False)

    def star():
        return k3atlas.degeneration_table(k3atlas.TableSide.STAR)

    star()
    profile = cProfile.Profile()
    profile.runcall(star)
    assert sum(entry.callcount for entry in profile.getstats()) <= 12
