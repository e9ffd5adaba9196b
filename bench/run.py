"""codeforest benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's corpus is generated from
the seed under ``.bench_work/``; codeforest sees only those files.

``--trace 0`` runs the real CLI as child processes, one at a time (a
closed loop with one client): a bare ``import codeforest.cli``, then
``analyze`` and ``render`` in each format, round after round while the
next sample still fits in ``--seconds``; the first round always runs.
Each child's own wall time and peak RSS come from ``os.wait4``; every
output is checked against the corpus plan. A fixed reference task
(``reference.py``) runs between every two commands and calibrates their
wall times to the machine's speed at that moment. It reports the
end-to-end metrics as medians over the samples.

``--trace 1`` runs the same pipeline in this process with a span around
each layer's public call (see ``tracing.py``), alternating with the
untraced CLI ``render --format gltf`` for the tracing overhead. It
reports the per-layer metrics, medians over passes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Sample counts, quartiles,
output hashes and spans go to ``.bench_work/results/``; a readable
summary goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import corpora
from gate import Gate

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK = REPO / ".bench_work"
RESULTS = WORK / "results"
CHILD_TIMEOUT_S = 120
# Timings are reported as seconds on a machine where reference.py takes
# this long, about its wall time on the 2-core machine the benchmark was
# defined on.
REFERENCE_S = 0.3

# End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "render_gltf_s": "s",
    "render_obj_s": "s",
    "render_mel_s": "s",
    "peak_rss_mb": "MB",
    "gltf_bytes": "bytes",
    "obj_bytes": "bytes",
    "mel_bytes": "bytes",
    "report_bytes": "bytes",
    "success_rate": "ratio",
}

_TIMED = ("lexer.tokenize", "parser.parse_unit", "parser.parse_corpus",
          "model.build_model", "model.resolve_inheritance", "model.compute_layers",
          "model.resolve_calls", "model.compute_metrics", "layout.build_layout",
          "layout.place_islands", "layout.place_trees", "layout.route_channels",
          "geometry.assemble_scene", "exporters.gltf.build", "exporters.gltf.export",
          "exporters.obj.text", "exporters.obj.export", "exporters.mel.export",
          "exporters.report.export")
_COUNTED = ("lexer.bytes", "lexer.tokens", "parser.files", "parser.failures",
            "parser.classes", "parser.methods", "parser.call_sites",
            "model.inheritance_edges", "model.unresolved_supers", "model.call_edges",
            "layout.islands", "layout.channel_points", "geometry.nodes",
            "geometry.meshes", "geometry.distinct_meshes", "geometry.vertices",
            "geometry.triangles")
_RSS_LAYERS = ("lexer", "parser", "model", "layout", "geometry", "exporters.report",
               "exporters.gltf", "exporters.obj", "exporters.mel")
_COUNT_UNITS = {"lexer.bytes": "bytes"}

# Per-layer metrics: name -> unit.
PER_LAYER = {
    **{f"{name}_s": "s" for name in _TIMED},
    **{name: _COUNT_UNITS.get(name, "count") for name in _COUNTED},
    "lexer.tokens_per_s": "1/s",
    "model.call_resolution_ratio": "ratio",
    "model.call_resolution_ratio.this": "ratio",
    "model.call_resolution_ratio.named": "ratio",
    **{f"{layer}.rss_mb": "MB" for layer in _RSS_LAYERS},
    "trace.traced_gltf_path_s": "s",
    "trace.untraced_render_gltf_s": "s",
    "trace.overhead_s": "s",
}

# Output kinds and files per CLI command, the one named on the command
# line first; the obj render also writes its material library.
_OUTPUTS = {
    "analyze": (("report", "out/report.json"),),
    "render_gltf": (("gltf", "out/scene.gltf"),),
    "render_obj": (("obj", "out/scene.obj"), ("mtl", "out/scene.mtl")),
    "render_mel": (("mel", "out/scene.mel"),),
}


def _cli_args(name: str, plan: corpora.Plan, config: bool) -> list[str]:
    """CLI arguments of command ``name``, relative to the work directory."""
    kind, path = _OUTPUTS[name][0]
    if name == "analyze":
        return ["analyze", "corpus", "--report", path]
    args = ["render", "corpus", "-o", path, "--format", kind,
            "--seed", str(plan.render_seed)]
    return args + (["--config", "render.cfg"] if config else [])


def _quartiles(values: list[float]) -> dict:
    row = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        row["q1"], _, row["q3"] = statistics.quantiles(values, n=4)
    return row


class _Children:
    """Runs CLI children one at a time and reads each one's own rusage."""

    def __init__(self, cwd: Path):
        self.cwd = cwd
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = cwd / "child.log"

    def run(self, argv: list[str]) -> tuple[float, float, int]:
        """(wall seconds, peak RSS in MB, exit code) of one child."""
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.cwd, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode


def measured_run(plan: corpora.Plan, work: Path, seconds: float, config: bool):
    """Round-robin CLI samples for ``seconds``; end-to-end metrics.

    A run of ``reference.py`` precedes the first command and follows
    every command. Each command's wall time is scaled by
    ``REFERENCE_S`` over the mean of the two reference runs around it,
    which cancels most of the machine's drift in speed during the run.
    """
    children = _Children(work)
    py = sys.executable
    reference = [py, str(Path(__file__).resolve().parent / "reference.py")]
    commands = {"setup": [py, "-c", "import codeforest.cli"]}
    for name in _OUTPUTS:
        commands[name] = [py, "-m", "codeforest.cli", *_cli_args(name, plan, config)]
    (work / "out").mkdir()
    children.run(commands["setup"])  # fill the bytecode and file caches

    def reference_wall() -> float:
        wall, _, code = children.run(reference)
        if code != 0:
            raise RuntimeError(f"reference task exited with code {code}")
        return wall

    gate = Gate(plan)
    refs = [reference_wall()]
    samples: dict[str, list[tuple[float, float, float]]] = {name: [] for name in commands}
    problems: list[str] = []
    attempted = failed = 0
    last: dict[str, float] = {}  # latest duration of each command with its reference
    deadline = time.perf_counter() + seconds

    def fits(name: str) -> bool:
        """Whether another sample still ends before the deadline."""
        if not all(samples.values()):
            return True  # the first round always completes
        return time.perf_counter() + last[name] <= deadline

    running = True
    while running:
        for name, argv in commands.items():
            running = fits(name)
            if not running:
                break
            started = time.perf_counter()
            outputs = [(kind, work / rel) for kind, rel in _OUTPUTS.get(name, ())]
            for _, path in outputs:
                path.unlink(missing_ok=True)
            wall, rss, code = children.run(argv)
            refs.append(reference_wall())
            scaled = wall * REFERENCE_S / ((refs[-2] + refs[-1]) / 2)
            samples[name].append((scaled, wall, rss))
            attempted += 1
            found = [f"{name}: exit code {code}"] if code != 0 else []
            for kind, path in outputs:
                if not found:
                    found = gate.check(kind, path)
            if found:
                failed += 1
                problems.extend(found)
            last[name] = time.perf_counter() - started

    def column(k: int) -> dict[str, list[float]]:
        return {name: [row[k] for row in rows] for name, rows in samples.items()}

    scaled, walls, rss = column(0), column(1), column(2)
    metrics = {f"{name}_s": statistics.median(scaled[name]) for name in commands}
    metrics["peak_rss_mb"] = max(statistics.median(rss[name]) for name in _OUTPUTS)
    for kind in ("gltf", "obj", "mel", "report"):
        metrics[f"{kind}_bytes"] = gate.sizes.get(kind, 0)
    metrics["success_rate"] = (attempted - failed) / attempted
    details = {
        "scaled_s": {name: _quartiles(v) for name, v in scaled.items()},
        "wall_s": {name: _quartiles(v) for name, v in walls.items()},
        "reference_wall_s": _quartiles(refs),
        "peak_rss_mb": {name: _quartiles(v) for name, v in rss.items()},
        "sha256": gate.hashes,
        "problems": problems[:50],
    }
    return metrics, attempted, failed, details


def missing_layers(first) -> list[str]:
    """Timed spans and counts that a traced pass lacks.

    Each one means a wrapped call was inlined or renamed away, so its
    metric would read 0 without the layer having got any faster.
    """
    seen = {span.name for span in first.spans}
    return ([n for n in _TIMED if n not in seen]
            + [n for n in _COUNTED if n not in first.counts])


def traced_run(plan: corpora.Plan, work: Path, seconds: float, config: bool):
    """Alternate traced passes with the untraced CLI; per-layer metrics."""
    os.chdir(work)  # paths in outputs then read as in the CLI runs
    sys.path.insert(0, str(SRC))
    from codeforest import cli
    from codeforest.config import Config, load_config

    import tracing

    cfg = load_config("render.cfg") if config else Config()
    cfg.seed = plan.render_seed
    cli_out = Path("out/cli.gltf")
    cli_argv = _cli_args("render_gltf", plan, config)
    cli_argv[cli_argv.index("-o") + 1] = str(cli_out)
    Path("out").mkdir()

    tracer = tracing.Tracer()
    gate = Gate(plan)
    untraced: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    last = 0.0  # duration of the latest traced pass and untraced render
    while not untraced or time.perf_counter() + last <= deadline:
        started = time.perf_counter()
        checks = list(tracer.run_pass(Path("corpus"), cfg, Path("out")).items())
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(cli_argv)
        untraced.append(time.perf_counter() - start)
        last = time.perf_counter() - started
        if len(tracer.passes) == 1:
            missing = missing_layers(tracer.passes[0])
            attempted += len(_TIMED) + len(_COUNTED)
            failed += len(missing)
            problems.extend(f"traced pass: no span or count {n}" for n in missing)
        checks.append(("gltf", cli_out))  # must match the traced bytes
        for kind, path in checks:
            attempted += 1
            found = gate.check(kind, path)
            if path == cli_out and code != 0:
                found = [f"untraced render: exit code {code}"]
            if found:
                failed += 1
                problems.extend(found)

    # The first pass is cold; its counts and RSS are kept, its times only
    # when it is the sole pass.
    summaries = [tracing.summarize(p) for p in tracer.passes]
    warm = summaries[1:] or summaries

    def median_of(key: str) -> float:
        return statistics.median(s.get(key, 0.0) for s in warm)

    first = tracer.passes[0]
    counts = first.counts
    metrics = {f"{name}_s": median_of(f"{name}_s") for name in _TIMED}
    metrics.update({name: counts.get(name, 0) for name in _COUNTED})
    tokenize_s = metrics["lexer.tokenize_s"]
    metrics["lexer.tokens_per_s"] = counts["lexer.tokens"] / tokenize_s if tokenize_s else 0.0
    this_sites = counts["parser.call_sites.implicit-this"]
    named_sites = counts["parser.call_sites.named"]
    for suffix, resolved, sites in (
        ("", counts["model.resolved_call_sites"], this_sites + named_sites),
        (".this", counts["model.resolved_call_sites.this"], this_sites),
        (".named", counts["model.resolved_call_sites.named"], named_sites),
    ):
        # With no sites on a route, nothing on it went unresolved.
        metrics[f"model.call_resolution_ratio{suffix}"] = resolved / sites if sites else 1.0
    for layer in _RSS_LAYERS:
        metrics[f"{layer}.rss_mb"] = first.rss_mb.get(layer, 0.0)
    traced_gltf = median_of("path.gltf_s")
    metrics["trace.traced_gltf_path_s"] = traced_gltf
    metrics["trace.untraced_render_gltf_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = traced_gltf - statistics.median(untraced)

    def top_self(path: str) -> list[tuple[str, float]]:
        prefix = f"path.{path}."
        names = {k[len(prefix):-len(".self_s")] for s in warm for k in s
                 if k.startswith(prefix)}
        ranked = sorted(((n, median_of(f"{prefix}{n}.self_s")) for n in names),
                        key=lambda item: -item[1])
        return ranked[:5]

    details = {
        "passes": len(tracer.passes),
        "top_self_s": {"analyze": top_self("analyze"), "render_gltf": top_self("gltf")},
        "sha256": gate.hashes,
        "problems": problems[:50],
        "spans": [
            {"pass": p.number, "id": s.span_id, "parent": s.parent, "name": s.name,
             "start": s.start, "end": s.end}
            for p in tracer.passes for s in p.spans
        ],
    }
    return metrics, attempted, failed, details


def _summary(workload: str, seed: int, trace: int, metrics: dict, details: dict) -> str:
    units = PER_LAYER if trace else END_TO_END
    lines = [f"{workload} seed={seed} trace={trace}"]
    lines += [f"  {name:36s} {metrics[name]:>16.6g} {unit}" for name, unit in units.items()]
    for path, ranked in details.get("top_self_s", {}).items():
        lines.append(f"  largest self times, {path}: " + ", ".join(
            f"{name} {value:.3f}s" for name, value in ranked))
    for problem in details["problems"][:10]:
        lines.append(f"  FAILED {problem}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpora.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "codeforest" / "__init__.py").is_file() or not (REPO / corpora.FIXTURE).is_dir():
        print(f"error: {REPO} holds no codeforest sources and fixtures; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    work = WORK / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = corpora.generate(args.workload, args.seed, work / "corpus", repo=REPO)
        config = corpora.RENDER_CONFIG[args.workload]
        if config is not None:
            (work / "render.cfg").write_text(config, encoding="utf-8")
        run = traced_run if args.trace else measured_run
        metrics, attempted, failed, details = run(plan, work, args.seconds, config is not None)
    finally:
        os.chdir(REPO)
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "plan": vars(plan), "attempted": attempted,
               "failed": failed, "metrics": metrics, **details}
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(_summary(args.workload, args.seed, args.trace, metrics, details), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
