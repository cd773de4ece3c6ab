"""Child-process side of the traced run.

    python3 perfbench/tracer.py trace  SUMMARY SPANS INVOCATION -- ARGV...
    python3 perfbench/tracer.py memory SUMMARY -- ARGV...
    python3 perfbench/tracer.py probe  SUMMARY

``trace`` installs a timing wrapper on each layer's public functions, calls
``gaptri.cli.main(ARGV)`` and writes per-function counts and self times to
SUMMARY (JSON). Every span is kept in memory and written when main returns:
SPANS.json names the columns and functions, SPANS.bin holds the columns as
native arrays, one after another. ``memory`` runs main under tracemalloc and
writes its peak. ``probe`` times ``run_search(..., workers=1)`` against
``workers=2`` over rows 1..9. In ``trace`` and ``memory`` stdout carries the
CLI's own output and the exit status is main's, so the parent checks them as
it checks an untraced run.

A wrapper replaces every binding of a function in the gaptri modules, not only
its definition: ``gaptri.search.verify_row`` and ``gaptri.verify.type_histogram``
are the names the callers actually use.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import tracemalloc
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: The functions wrapped in each layer (gaptri module).
LAYERS = {
    "sequences": ("count_by_gap", "enumerate_all", "gap_statistics"),
    "model": ("type_histogram", "is_valid", "format_model"),
    "triangle": ("parse_triangle", "embedded_half_triangle"),
    "verify": ("verify_row", "obstruction_report"),
    "search": ("evaluate_candidate", "run_search", "witness", "result_record"),
    "cli": ("main",),
}

SPAN_COLUMNS = (("span_id", "q"), ("parent_id", "q"), ("function", "q"), ("start_s", "d"), ("busy_s", "d"))


class Tracer:
    """Spans and per-function totals for one CLI invocation.

    A span's busy time is the time spent inside the function; for a generator
    that is the sum of its ``next`` calls. Self time is busy time minus the
    busy time of the spans it caused. Span id 0 is the invocation itself.
    """

    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.columns = {name: array(code) for name, code in SPAN_COLUMNS}
        self._stack: list[list[Any]] = [[0, 0.0]]  # [span id, busy time of children]
        self._last_id = 0
        self.histogram_ns: set[int] = set()
        self.histograms: set[tuple[int, tuple[tuple[int, int], ...]]] = set()
        self.histogram_cold_s = 0.0
        self.histogram_warm_s = 0.0

    def _new_frame(self) -> list[Any]:
        self._last_id += 1
        return [self._last_id, 0.0]

    def _record(self, index: int, frame: list[Any], parent_id: int, start: float, busy: float) -> float:
        own = busy - frame[1]
        self.calls[index] += 1
        self.self_s[index] += own
        cols = self.columns
        cols["span_id"].append(frame[0])
        cols["parent_id"].append(parent_id)
        cols["function"].append(index)
        cols["start_s"].append(start - self.t0)
        cols["busy_s"].append(busy)
        return own

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        index = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack = self._stack
        observe = self._observe_histogram if name == "model.type_histogram" else None

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args: Any, **kwargs: Any) -> Any:
                frame = self._new_frame()
                parent = stack[-1]
                created = perf_counter()
                busy = 0.0
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        stack.append(frame)
                        start = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            spent = perf_counter() - start
                            busy += spent
                            stack.pop()
                            stack[-1][1] += spent
                        yield item
                finally:
                    self._record(index, frame, parent[0], created, busy)

            return generator

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = self._new_frame()
            parent = stack[-1]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                stack.pop()
                parent[1] += busy
                own = self._record(index, frame, parent[0], start, busy)
            if observe is not None:
                observe(result, own)
            return result

        return wrapper

    def _observe_histogram(self, hist: Any, own: float) -> None:
        # The first call at each n builds the census; later ones reuse it.
        if hist.n in self.histogram_ns:
            self.histogram_warm_s += own
        else:
            self.histogram_ns.add(hist.n)
            self.histogram_cold_s += own
        self.histograms.add((hist.n, tuple(hist.counts.items())))

    def install(self) -> None:
        """Wrap each function in LAYERS under every name a gaptri module binds it to."""
        import gaptri.cli  # noqa: F401  (imports every layer)

        modules = [m for name, m in sys.modules.items() if name == "gaptri" or name.startswith("gaptri.")]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"gaptri.{layer}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapped = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def summary(self) -> dict[str, Any]:
        return {
            "functions": {
                name: {"calls": calls, "self_s": own}
                for name, calls, own in zip(self.names, self.calls, self.self_s)
            },
            "type_histogram": {
                "cold_s": self.histogram_cold_s,
                "warm_s": self.histogram_warm_s,
                "distinct": len(self.histograms),
            },
            "spans": len(self.columns["span_id"]),
        }

    def write_spans(self, stem: Path, invocation: str, argv: list[str]) -> None:
        header = {
            "invocation": invocation,
            "argv": argv,
            "functions": self.names,
            "columns": SPAN_COLUMNS,
            "count": len(self.columns["span_id"]),
        }
        stem.parent.joinpath(stem.name + ".json").write_text(json.dumps(header), encoding="utf-8")
        with open(stem.parent / (stem.name + ".bin"), "wb") as handle:
            for column in self.columns.values():
                column.tofile(handle)


def probe() -> dict[str, Any]:
    from gaptri import default_family, embedded_half_triangle, result_record, run_search

    family, triangle = default_family(), embedded_half_triangle()
    seconds: dict[int, float] = {}
    records: dict[int, list[str]] = {}
    for workers in (1, 2):  # no more pool workers than the 2 cores of the reference machine
        start = perf_counter()
        results = run_search(family, triangle, range(1, 10), workers=workers)
        seconds[workers] = perf_counter() - start
        records[workers] = [result_record(r) for r in results]
    return {
        "workers1_s": seconds[1],
        "workers2_s": seconds[2],
        "same_output": records[1] == records[2],
    }


def main(args: list[str]) -> int:
    mode, summary_path = args[0], Path(args[1])
    argv = args[args.index("--") + 1 :] if "--" in args else []
    if mode == "probe":
        summary = probe()
        code = 0 if summary["same_output"] else 1
    elif mode == "memory":
        import gaptri.cli

        tracemalloc.start()
        code = gaptri.cli.main(argv)
        summary = {"tracemalloc_peak_bytes": tracemalloc.get_traced_memory()[1]}
        tracemalloc.stop()
    elif mode == "trace":
        spans_stem, invocation = Path(args[2]), args[3]
        tracer = Tracer()
        tracer.install()
        import gaptri.cli

        code = gaptri.cli.main(argv)
        sys.stdout.flush()
        summary = tracer.summary()
        tracer.write_spans(spans_stem, invocation, argv)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    summary_path.write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
