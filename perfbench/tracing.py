"""Spans around ringspectra's public functions, installed from outside.

install() replaces selected module attributes of the ringspectra package
with timing wrappers, in every module that imported them, and uninstall()
puts the originals back.  The program itself is not changed.  Each layer
records only its outermost call: a wrapped function called while a span
of the same layer is open runs unwrapped, and while a span is open its own
module sees the original function, so recursion (eval_naive) pays nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from ringspectra import (
    arith,
    constructions,
    density,
    evaluate,
    fastengine,
    logic,
    spectra,
)

# span name -> the functions whose outermost calls it records
LAYERS = {
    "arith.sieve": [(arith, "sieve")],
    "logic.parse": [(logic, "parse_sentence"), (logic, "parse_formula")],
    "logic.random_sentence": [(logic, "random_sentence")],
    "constructions.build": [
        (constructions, name)
        for name in (
            "congruence_sentence",
            "cyclotomic_sentence",
            "mod_count_sentence",
            "power_residue_sentence",
            "prime_sentence",
            "psi_sentence",
        )
    ],
    "evaluate.eval_sentence": [(evaluate, "eval_sentence")],
    "evaluate.naive": [(evaluate, "eval_naive")],
    "fastengine.eval": [(fastengine, "eval_fast_bool"), (fastengine, "eval_fast")],
    "spectra.spectrum": [(spectra, "spectrum")],
    "spectra.classify": [(spectra, "fit_congruences")],
    "density.profile": [(density, "density_profile")],
}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, operation]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1  # -1 during set-up, else the index of the timed operation
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, home, name: str, fn):
        spans, stack, opened = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in opened:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            opened.add(layer)
            setattr(home, name, fn)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                setattr(home, name, traced)
                opened.discard(layer)
                stack.pop()
                spans[index][1:3] = [start, end]

        return traced

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "ringspectra" and not modname.startswith("ringspectra."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for home, name in targets:
                fn = getattr(home, name)
                self._patch_everywhere(fn, self._wrap(layer, home, name, fn))
        # spectra memoizes the sieve it captured at import; give it a fresh
        # cache over the traced sieve so that real sieving shows as a span
        self._patch_everywhere(
            spectra.prime_table,
            functools.lru_cache(maxsize=8)(arith.sieve),
        )

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def totals(self):
        """[calls, seconds, self seconds] per (span name, parent span name),
        separately for set-up spans and for spans of timed operations.  Self
        time is the span's duration less that of its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {"setup": {}, "ops": {}}
        for (name, start, end, parent, op), inner in zip(self.spans, child):
            key = (name, self.spans[parent][0] if parent >= 0 else None)
            acc = out["setup" if op < 0 else "ops"].setdefault(key, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - inner
        return out

    def write(self, path) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": round(start - origin, 9),
                            "end": round(end - origin, 9),
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )

