"""Warm reads through the package: once a submodule is loaded, each
``k3atlas.<name>`` read is dict lookups and a ``getattr`` on the kept module."""

import cProfile
import os
import subprocess
import sys

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
    # 16 cProfile entries on CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0: the call, two
    # package reads, load_atlas and the kept table.  36 on 3.11 to 3.13 (104 on 3.10) while
    # load_atlas raised and caught a KeyError for the unset variable and every package read
    # went through importlib.import_module.
    monkeypatch.delenv("ATLAS_DATA_DIR", raising=False)

    def star():
        return k3atlas.degeneration_table(k3atlas.TableSide.STAR)

    star()
    profile = cProfile.Profile()
    profile.runcall(star)
    assert sum(entry.callcount for entry in profile.getstats()) <= 16
