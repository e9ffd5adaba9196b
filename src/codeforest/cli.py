"""Command line interface.

Two subcommands:

    codeforest analyze <root> [--report FILE]
    codeforest render <root> -o FILE --format {gltf,obj,mel}
                      [--config FILE] [--seed N]

``analyze`` prints a one-line summary (``classes=.. methods=.. loc=..
inheritance=..``) and optionally writes the JSON metrics report.
``render`` runs the full pipeline and writes the scene in the chosen
format; the obj format writes a sibling ``.mtl``.

Exit codes: 0 on success (including an empty corpus, which only warns),
1 for model-level failures such as inheritance cycles or duplicate
classes and for a closed standard output, 2 for usage errors: bad
arguments, missing root, unknown format, an invalid config, or one whose
sizes overflow the geometry, and an OBJ output named ``*.mtl``.
Per-file parse failures are warnings on stderr and do not stop the run.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .errors import CodeforestError

# Each command imports the layers it needs when it runs, so ``--help``
# and ``analyze`` never load the scene layers or the scene writers.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codeforest",
        description="Grow a 3D forest from Java sources: one island per "
        "package, one tree per class, one leaf per method.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="parse a source tree and print metrics")
    analyze.add_argument("root", help="directory scanned recursively for .java files")
    analyze.add_argument("--report", metavar="FILE", help="write the JSON metrics report here")

    render = sub.add_parser("render", help="export the forest scene")
    render.add_argument("root", help="directory scanned recursively for .java files")
    render.add_argument("-o", "--output", required=True, metavar="FILE",
                        help="output file path")
    render.add_argument("--format", required=True, choices=("gltf", "obj", "mel"))
    render.add_argument("--config", metavar="FILE", help="key = value config file")
    render.add_argument("--seed", type=int, help="override the layout seed")
    return parser


def _print_warnings(info) -> None:
    lines = [f"{path}: {message}" for path, message in info.failures] + info.warnings
    for line in lines:
        # A path that is not valid UTF-8 holds surrogate escapes; show its
        # bytes as \xNN, as a user would type them.
        line = line.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
        print(f"warning: {line}", file=sys.stderr)


def _run_analyze(args) -> int:
    from . import pipeline
    from .exporters.report import export_report

    info = pipeline.analyze(args.root)
    _print_warnings(info)
    if args.report:
        export_report(info, args.report)
    totals = info.totals
    print(
        "classes={classes} methods={methods} loc={loc} "
        "inheritance={inheritance_edges}".format(**totals)
    )
    return 0


def _run_render(args) -> int:
    from . import config, exporters, pipeline

    cfg = config.load_config(args.config) if args.config else config.Config()
    if args.seed is not None:
        cfg.seed = args.seed

    info = pipeline.analyze(args.root)
    _print_warnings(info)
    scene = pipeline.build_scene(info, cfg)
    # Each writer returns the paths it wrote: the OBJ one adds its ``.mtl``.
    export = getattr(exporters, f"export_{args.format}")
    for path in export(scene, args.output):
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector off: nothing the
    pipeline builds holds a reference cycle, so the collector would only
    re-walk a heap that grows with the corpus. The caller's collector
    state comes back on every return.
    """
    args = _build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        if args.command == "analyze":
            return _run_analyze(args)
        return _run_render(args)
    except CodeforestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError as exc:
        # A reader that closed standard output is no usage error: exit 1,
        # as a print that fails the same way does.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Source files that fail to read are per-file warnings, so what
        # reaches here is the root, the config or the output path.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    """The ``codeforest`` process: ``main``, then exit without teardown.

    Every file a command writes is closed (by ``with`` or ``write_text``)
    before ``main`` returns, so once standard output and standard error
    are flushed nothing is left to do, and ``os._exit`` skips the
    interpreter's final collections and module freeing. A flush that
    fails (a closed pipe, say) falls back to ``sys.exit``, so the
    interpreter reports it as it would without this. A ``SystemExit``
    from argument parsing and an uncaught exception take the normal
    exit.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
