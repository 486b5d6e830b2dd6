"""In-memory span recorder that wraps wahlkit's public functions from outside.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when this one started, or -1 at the top level.  Spans stay in
memory while the workload runs and are written out once it has finished.
Self time is a span's duration minus the part of it covered by its children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Every function whose calls and self time the traced run reports, by module.
# "CurveConfig.make" is a static method and is patched on the class.
TRACED = {
    "tstring": ("enumerate_tstrings", "tstring_to_params", "hj_expand", "eval_cf", "is_tstring"),
    "discrepancy": (
        "discrepancies", "canonical_pairing", "validate_discrepancies", "chain_determinant",
    ),
    "curveconfig": (
        "CurveConfig.make", "blow_up", "blow_down", "contract_all", "sw_check",
        "derived_multiplicities", "validate_zariski",
    ),
    "badcurves": (
        "case_oracle", "enumerate_candidates", "examine_candidate", "build_candidate_config",
        "forbidden_patterns", "staged_structure_checks", "pair_product",
    ),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Wraps each function in TRACED wherever a wahlkit module has bound it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.blow_down_vertices: list[int] = []
        self._stack: list[int] = []
        self._undo: list = []
        self.bindings: dict[str, int] = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        sizes = self.blow_down_vertices if name == "curveconfig.blow_down" else None

        def wrapper(*args, **kwargs):
            if sizes is not None:
                sizes.append(len(args[0].vertices))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every binding of every traced function in the loaded wahlkit modules.

        ``from .x import f`` copies the function into the importing module, so
        patching only the defining module would silently miss those calls.
        """
        import wahlkit.cli  # noqa: F401  (cli is not imported by the package)
        from wahlkit.curveconfig import CurveConfig

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "wahlkit" or n.startswith("wahlkit."))]
        for name in SPAN_NAMES:
            mod_name, _, fn_name = name.partition(".")
            if fn_name == "CurveConfig.make":
                orig = CurveConfig.make
                self._undo.append((CurveConfig, "make", CurveConfig.__dict__["make"]))
                CurveConfig.make = staticmethod(self._wrap(name, orig))
                self.bindings[name] = 1
                continue
            orig = getattr(sys.modules[f"wahlkit.{mod_name}"], fn_name)
            wrapper = self._wrap(name, orig)
            count = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
                        count += 1
            self.bindings[name] = count

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and total self time per traced function (zeros included)."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out[span[0]]
            row["calls"] += 1
            row["self_s"] += own
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSONL, one [run, id, name, start, end, parent] per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([self.run_id, idx, name, start, end, parent]) + "\n")
