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
classes, 2 for usage errors: bad arguments, missing root, unknown
format, an invalid config, or one whose sizes overflow the geometry, and
an OBJ output named ``*.mtl``. Per-file parse failures are warnings on
stderr and do not stop the run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config as config_module
from . import pipeline
from .errors import CodeforestError
from .exporters import export_gltf, export_mel, export_obj, export_report


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


def _print_warnings(info: pipeline.CorpusInfo) -> None:
    lines = [f"{path}: {message}" for path, message in info.failures] + info.warnings
    for line in lines:
        # A path that is not valid UTF-8 holds surrogate escapes; show its
        # bytes as \xNN, as a user would type them.
        line = line.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
        print(f"warning: {line}", file=sys.stderr)


def _run_analyze(args) -> int:
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
    if args.config:
        cfg = config_module.load_config(args.config)
    else:
        cfg = config_module.Config()
    if args.seed is not None:
        config_module.apply_setting(cfg, "seed", str(args.seed), "--seed")

    info = pipeline.analyze(args.root)
    _print_warnings(info)
    scene = pipeline.build_scene(info, cfg)

    out = Path(args.output)
    if args.format == "gltf":
        export_gltf(scene, out)
        written = [out]
    elif args.format == "obj":
        written = list(export_obj(scene, out))
    else:
        export_mel(scene, out)
        written = [out]
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _run_analyze(args)
        return _run_render(args)
    except CodeforestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # Source files that fail to read are per-file warnings, so what
        # reaches here is the root, the config or the output path.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
