"""Spans around the public functions of ``k3atlas``, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules,
in every ``k3atlas`` module namespace that binds it, with a wrapper that
records a span (name, start, end, parent span, op id).  Calls between
modules go through those namespaces, so they are seen too.  Two methods
are wrapped on their class: ``IntegralLattice.det`` and
``Atlas.from_records``.  ``uninstall`` puts the originals back.  Nothing
under ``src/`` is edited.

Spans stay in memory until the run ends, when ``write`` saves them.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from dataclasses import dataclass

TRACED_MODULES = ("lattices", "atlas", "topology", "degenerations", "validation", "cli")


# A span is a tuple, for speed: (name, start, end, outer_end, parent, op, tag).
# ``outer_end`` includes the post-call tag hook; a parent's self time
# excludes the whole [start, outer_end] interval, so hook cost stays
# unattributed.  ``parent`` is the index of the enclosing span, or -1.
NAME, START, END, OUTER_END, PARENT, OP, TAG = range(7)


def _max_bits(result) -> int:
    return max(
        (abs(x).bit_length() for matrix in result for row in matrix for x in row),
        default=0,
    )


# Post-call hooks: name -> f(args, result) giving the span's tag.
TAGGERS = {
    "lattices.two_elementary_invariants": lambda args, result: result.a,
    "lattices.signature": lambda args, result: args[0].rank,
    "lattices.smith_normal_form": lambda args, result: _max_bits(result),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tagger = TAGGERS.get(name)
        owner = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, end, parent, owner.op, None)
            if tagger is not None:
                tag = tagger(args, result)
                spans[idx] = (name, start, end, clock(), parent, owner.op, tag)
            return result

        return traced

    def install(self) -> None:
        from k3atlas.atlas import Atlas
        from k3atlas.lattices import IntegralLattice

        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules.get(f"k3atlas.{short}")
            if module is None:  # not imported by this workload
                continue
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self.wrap(value, f"{short}.{attr}")
        for module_name, module in list(sys.modules.items()):
            if module_name != "k3atlas" and not module_name.startswith("k3atlas."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        self._patch(IntegralLattice, "det", self.wrap(IntegralLattice.det, "lattices.det"))
        from_records = Atlas.__dict__["from_records"].__func__
        self._patch(
            Atlas, "from_records", classmethod(self.wrap(from_records, "atlas.from_records"))
        )

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


@dataclass
class Totals:
    calls: int = 0
    self_ns: int = 0


def self_times(spans: list[tuple]) -> list[int]:
    """Self time of every span, in ns, in the order of ``spans``."""
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[OUTER_END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def aggregate(spans: list[tuple]) -> tuple[dict[str, Totals], dict[tuple[str, object], int], int]:
    """Per-name call counts and self time, self time per (name, tag), and
    the total self time of all spans."""
    totals: dict[str, Totals] = {}
    by_tag: dict[tuple[str, object], int] = {}
    total = 0
    for span, own in zip(spans, self_times(spans)):
        t = totals.setdefault(span[NAME], Totals())
        t.calls += 1
        t.self_ns += own
        total += own
        if span[TAG] is not None:
            key = (span[NAME], span[TAG])
            by_tag[key] = by_tag.get(key, 0) + own
    return totals, by_tag, total


def write(spans: list[tuple], path) -> None:
    """Save spans as gzipped tab-separated lines, one per span, in call order."""
    with gzip.open(path, "wt", encoding="utf-8") as out:
        out.write("name\tstart_ns\tend_ns\tparent\top\ttag\n")
        for s in spans:
            tag = "" if s[TAG] is None else s[TAG]
            out.write(f"{s[NAME]}\t{s[START]}\t{s[END]}\t{s[PARENT]}\t{s[OP]}\t{tag}\n")
