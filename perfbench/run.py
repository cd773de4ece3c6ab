"""gaptri benchmark: closed-loop runs of the real CLI, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one ``python -m gaptri`` child at a time and starts the next
only when the previous one has exited, so each invocation pays what a user
pays: interpreter start, imports and a cold census. The parent streams each
child's stdout through sha256 as it arrives, takes the child's own peak RSS
from ``os.wait4`` and checks exit code and output (see ``workloads``).

--trace 0 repeats passes over the workload's invocations until S seconds
have gone, each pass after 4 cold interpreter starts that import gaptri.cli
(set-up). It reports the end-to-end metrics, each the median over the run.

--trace 1 makes one untraced pass, one traced pass (``tracer``) and one
tracemalloc pass, then runs the workers=1/workers=2 search probe and a
``-X importtime`` breakdown. It reports the per-layer metrics.

Human-readable lines come first; the last line of stdout is the JSON result.
A record of the run, with the environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from inputs import check_census
from tracer import LAYERS
from workloads import WORKLOADS, Invocation, Output

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "gaptri"
OUT = ROOT / "perfbench" / "out"
TRACER = ROOT / "perfbench" / "tracer.py"

SETUP_PER_PASS = 4
IMPORTTIME_RUNS = 5
CHILD_TIMEOUT_S = 120
TEXT_LIMIT = 1 << 20  # keep stdout for parsing up to this many bytes; hash the rest
MB = 1024 * 1024

FUNCTIONS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
IMPORT_METRICS = [
    f"import.{module}.self_s" for module in ("gaptri", "gaptri.errors", *(f"gaptri.{layer}" for layer in LAYERS))
] + ["import.total_s"]


@dataclass
class Sample:
    kind: str
    wall_s: float
    rss_mb: float
    stdout_bytes: int
    summary: dict[str, Any] | None


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))


def run_child(cmd: list[str], out_file: Path | None = None) -> tuple[Output, float, float, int]:
    """Run one child to completion; return its output, wall time, peak RSS (MB) and stdout size."""
    if out_file is not None:
        out_file.unlink(missing_ok=True)
    digest = hashlib.sha256()
    head = bytearray()
    nbytes = lines = 0
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        while chunk := proc.stdout.read(1 << 16):
            digest.update(chunk)
            nbytes += len(chunk)
            lines += chunk.count(b"\n")
            if len(head) <= TEXT_LIMIT:
                head += chunk
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    wall = perf_counter() - start
    out_sha = out_lines = None
    if out_file is not None and out_file.is_file():
        data = out_file.read_bytes()
        out_sha, out_lines = hashlib.sha256(data).hexdigest(), data.count(b"\n")
    text = head.decode("utf-8", "replace") if nbytes <= TEXT_LIMIT else None
    output = Output(proc.returncode, text, digest.hexdigest(), lines, out_sha, out_lines)
    return output, wall, usage.ru_maxrss / 1024, nbytes  # ru_maxrss is in KiB on Linux


def run_pass(invocations: list[Invocation], mode: str, tally: Tally, tag: str) -> list[Sample]:
    """One closed-loop pass; ``mode`` is plain, trace or memory."""
    samples = []
    for i, inv in enumerate(invocations):
        summary_path = OUT / f"{tag}-{i}.summary.json"
        summary_path.unlink(missing_ok=True)
        if mode == "plain":
            cmd = [sys.executable, "-m", "gaptri", *inv.argv]
        elif mode == "trace":
            cmd = [sys.executable, str(TRACER), "trace", str(summary_path), str(OUT / f"{tag}-{i}.spans"), f"{tag}-{i}", "--", *inv.argv]
        else:
            cmd = [sys.executable, str(TRACER), "memory", str(summary_path), "--", *inv.argv]
        output, wall, rss, nbytes = run_child(cmd, inv.out_file)
        error = inv.check(output)
        summary = None
        if mode != "plain" and error is None:
            try:
                summary = json.loads(summary_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                error = f"no summary from the tracer: {exc}"
        tally.add(f"{mode} {' '.join(inv.argv)}", error)
        samples.append(Sample(inv.kind, wall, rss, nbytes, summary))
    return samples


def describe(values: list[float]) -> dict[str, Any]:
    """Median, plus the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    out: dict[str, Any] = {"median": statistics.median(ordered), "n": n}
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


def cold_start(tally: Tally) -> float:
    output, wall, _, _ = run_child([sys.executable, "-c", "import gaptri.cli"])
    tally.add("setup", None if output.code == 0 else f"exit {output.code}")
    return wall


def measure_importtime(tally: Tally) -> dict[str, float]:
    """Median self import time per gaptri module of ``import gaptri.cli``, and of all modules."""
    runs: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gaptri.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        tally.add("importtime", None if proc.returncode == 0 else f"exit {proc.returncode}")
        total = 0.0
        for match in re.finditer(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)$", proc.stderr, re.M):
            seconds, module = int(match.group(1)) / 1e6, match.group(2)
            total += seconds
            runs.setdefault(f"import.{module}.self_s", []).append(seconds)
        runs.setdefault("import.total_s", []).append(total)
    return {name: statistics.median(runs.get(name, [0.0])) for name in IMPORT_METRICS}


def end_to_end(invocations: list[Invocation], seconds: int, tally: Tally, workload: str) -> tuple[dict, dict]:
    """Passes until ``seconds`` have gone, each after SETUP_PER_PASS cold starts,
    so that set-up is sampled across the whole run like the passes are."""
    cold_start(tally)  # the first start writes the bytecode caches
    setup: list[float] = []
    walls: list[float] = []
    passes: list[list[Sample]] = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        setup += [cold_start(tally) for _ in range(SETUP_PER_PASS)]
        start = perf_counter()
        passes.append(run_pass(invocations, "plain", tally, f"{workload}-plain"))
        walls.append(perf_counter() - start)
    series = {
        "setup_s": setup,
        "wall_s": walls,
        "peak_rss_mb": [max(s.rss_mb for s in samples) for samples in passes],
    }
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: (statistics.median(values), units[name]) for name, values in series.items()}
    detail = {name: describe(values) for name, values in series.items()}
    detail["samples"] = series  # per pass (set-up: per start), for quartiles across runs
    for kind in dict.fromkeys(inv.kind for inv in invocations):
        detail[f"{kind}_s"] = describe([sum(s.wall_s for s in ss if s.kind == kind) for ss in passes])
        detail[f"{kind}.rss_mb"] = describe([max(s.rss_mb for s in ss if s.kind == kind) for ss in passes])
    return metrics, detail


def per_layer(invocations: list[Invocation], seconds: int, tally: Tally, workload: str) -> tuple[dict, dict]:
    """One untraced pass, one traced pass and one tracemalloc pass, then the
    workers probe and the import-time breakdown. ``seconds`` is not used: the
    per-layer metrics have no bound, and the tracemalloc pass alone takes about
    a minute on long-rows and on listing."""
    del seconds
    plain = run_pass(invocations, "plain", tally, f"{workload}-plain")
    traced = run_pass(invocations, "trace", tally, f"{workload}-trace")
    memory = run_pass(invocations, "memory", tally, f"{workload}-memory")
    probe_path = OUT / f"{workload}-probe.json"
    probe_path.unlink(missing_ok=True)
    output, _, _, _ = run_child([sys.executable, str(TRACER), "probe", str(probe_path)])
    tally.add("probe", None if output.code == 0 else f"exit {output.code}: workers=1 and workers=2 failed or disagree")
    probe = json.loads(probe_path.read_text(encoding="utf-8")) if output.code == 0 else {}
    imports = measure_importtime(tally)

    def total(pick: Any, kind: str | None = None) -> float:
        return sum(pick(s.summary) for s in traced if s.summary is not None and kind in (None, s.kind))

    def function(name: str, key: str) -> Any:
        return lambda summary: summary["functions"][name][key]

    def layer_self(layer: str) -> Any:
        return lambda summary: sum(v["self_s"] for n, v in summary["functions"].items() if n.startswith(layer + "."))

    def histogram(key: str) -> Any:
        return lambda summary: summary["type_histogram"][key]

    def tracemalloc_mb(kind: str | None = None) -> float:
        return max((s.summary or {}).get("tracemalloc_peak_bytes", 0) for s in memory if kind in (None, s.kind)) / MB

    hist_calls = total(function("model.type_histogram", "calls"))
    metrics: dict[str, tuple[float, str]] = {f"{name}.calls": (total(function(name, "calls")), "count") for name in FUNCTIONS}
    metrics.update({
        "model.type_histogram.distinct_ratio": (total(histogram("distinct")) / hist_calls if hist_calls else 0.0, "ratio"),
        "cli.main.self_s": (total(function("cli.main", "self_s")), "s"),
        "cli.stdout_bytes": (sum(s.stdout_bytes for s in plain), "bytes"),
        "cli.tracemalloc_peak_mb": (tracemalloc_mb(), "MB"),
        "trace.spans": (total(lambda summary: summary["spans"]), "count"),
        "trace.overhead_s": (sum(s.wall_s for s in traced) - sum(s.wall_s for s in plain), "s"),
        "search.run_search.workers1_s": (probe.get("workers1_s", 0.0), "s"),
        "search.run_search.workers2_s": (probe.get("workers2_s", 0.0), "s"),
    })
    metrics.update({name: (imports[name], "s") for name in IMPORT_METRICS})

    # Self time of every wrapped function, which the JSON result leaves out
    # (most are exactly 0 on two of the three workloads), and per command the
    # shares that say which layer a command's time is spent in.
    detail: dict[str, Any] = {f"{name}.self_s": total(function(name, "self_s")) for name in FUNCTIONS}
    detail["model.type_histogram.cold_s"] = total(histogram("cold_s"))
    detail["model.type_histogram.warm_s"] = total(histogram("warm_s"))
    for kind in dict.fromkeys(inv.kind for inv in invocations):
        wall = sum(s.wall_s for s in traced if s.kind == kind)
        by_layer = {layer: total(layer_self(layer), kind) for layer in LAYERS}
        detail[kind] = {
            "untraced_s": sum(s.wall_s for s in plain if s.kind == kind),
            "traced_s": wall,
            "self_s_by_layer": by_layer,
            "model_verify_search_share": (by_layer["model"] + by_layer["verify"] + by_layer["search"]) / wall,
            "type_histogram_cold_share": total(histogram("cold_s"), kind) / wall,
            "tracemalloc_peak_mb": tracemalloc_mb(kind),
        }
    return metrics, detail


def environment(seed: int, trace: int) -> dict[str, Any]:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass  # no git: the source digest still identifies the code
    source = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "trace": trace,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SOURCE / "cli.py").is_file():
        print(f"run.py: no gaptri sources at {SOURCE}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    check_census()

    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    invocations = WORKLOADS[args.workload](args.seed, work)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics, detail = measure(invocations, args.seconds, tally, args.workload)
    failed = len(tally.failures)

    env = environment(args.seed, args.trace)
    record = {"workload": args.workload, "environment": env, "attempted": tally.attempted,
              "failed": failed, "failures": tally.failures, "metrics": metrics, "detail": detail}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    for failure in tally.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {args.workload}  seed={args.seed}  python={env['python']}  nproc={env['nproc']}  "
          f"commit={env['commit']}  source={env['source_sha256'][:12]}")
    print(f"fail_ratio  {failed / tally.attempted:.4f}  ({failed}/{tally.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for name, value in detail.items():
        if name != "samples":  # raw values go to the record only
            print(f"  {name:38s} {json.dumps(value)}")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
