"""Run one su2qpt CLI invocation with outside-in tracing.

    python3 perfbench/trace_child.py SPANS.json ARG...

Times ``import su2qpt.cli``, then replaces each public function of the
package's modules by a wrapper at the name its callers look it up, runs
``su2qpt.cli.main(ARG...)`` with stdout untouched, and writes the spans
to SPANS.json.  A span is [name, parent index or -1, start, end, note];
the note holds what a few functions' arguments or results say about the
work done.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import json
import re
import sys
import types
from functools import wraps
from time import perf_counter

_BUDGET = re.compile(r"budget ([0-9.eE+-]+) s")


def _find_peaks_note(call, result):
    return {"grid_points": call.arguments["grid_points"], "peaks": len(result)}


def _jacobi_note(call, result):
    return {"sweeps_used": result.sweeps_used}


def _run_all_note(call, result):
    # smallest budget / elapsed over the acceptance checks
    ratios = [float(_BUDGET.search(r.detail).group(1)) / max(r.elapsed_s, 1e-9) for r in result]
    return {"min_budget_headroom": min(ratios)}


# what a span records about its call, for the functions whose work is
# visible in their arguments or result
NOTES = {
    "transitions.find_peaks": _find_peaks_note,
    "eigensolver.jacobi_eigenvalues": _jacobi_note,
    "validation.run_all": _run_all_note,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        sig = inspect.signature(fn) if note is not None else None

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if note is not None:
                call = sig.bind(*args, **kwargs)
                call.apply_defaults()
                span[4] = note(call, result)
            return result

        return traced

    def wrap_module(self, module, layer: str) -> None:
        """Wrap every public function of ``module`` in its own namespace.

        Sibling modules call each other through the module attribute
        (``thermo.observables``), and a module's own calls go through its
        globals, which are that same namespace.
        """
        for name in module.__all__:
            fn = getattr(module, name)
            if isinstance(fn, types.FunctionType):
                setattr(module, name, self.wrap(f"{layer}.{name}", fn))

    def install(self) -> None:
        from su2qpt import cli, model, spin_algebra, thermo, transitions, validation

        for module, layer in (
            (spin_algebra, "spin_algebra"),
            (model, "model"),
            (thermo, "thermo"),
            (transitions, "transitions"),
            (validation, "validation"),
        ):
            self.wrap_module(module, layer)
        # validation binds the solver with a from-import
        validation.jacobi_eigenvalues = self.wrap(
            "eigensolver.jacobi_eigenvalues", validation.jacobi_eigenvalues
        )
        csv_text = transitions.SweepTable.csv_text
        transitions.SweepTable.csv_text = self.wrap("transitions.SweepTable.csv_text", csv_text)
        # check_determinism re-enters cli.main through the module attribute
        cli.main = self.wrap("cli.main", cli.main)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = perf_counter()
    import su2qpt.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return su2qpt.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
