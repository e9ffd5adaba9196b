"""Golden manifest of the CLI's output bytes, and the script that rewrites it.

Each entry runs the four CLI commands (``analyze --report`` and the
glTF, OBJ and MEL renders) through ``cli.main`` on one corpus and
records, per command, the exit code, stdout and stderr (with the
temporary directory replaced by ``<tmp>``) and the sha256 of every file
it wrote. Its ``parse`` record is the sha256 of ``parse_dump``, the
whole ``parse_corpus`` result, so a parser change that moves no output
byte is still seen. The corpora are:

* the committed fixtures under ``tests/fixtures``,
* ``tests/synth.py`` seeds 0-9 with the default config,
* the three ``bench/corpora.py`` workloads at seed 1, rendered with the
  plan's seed and the workload's render config.

``tests/test_golden.py`` recomputes the manifest and compares it with
the committed ``sha256.json``. A change that moves output bytes on
purpose regenerates the file in the same commit:

    python tests/golden/update.py

Before it rewrites the file, the script prints the ``corpus/command``
entries that moved against the committed manifest. A change meant to
move one command's bytes alone passes ``--only COMMAND`` (``analyze``,
``gltf``, ``obj``, ``mel`` or ``parse``): the script then rewrites that command's
records only, and exits 1 without writing if any other record moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TESTS = HERE.parent
REPO = TESTS.parent
MANIFEST = HERE / "sha256.json"

for entry in (str(REPO / "src"), str(TESTS), str(REPO / "bench")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import corpora  # noqa: E402
import synth  # noqa: E402
from codeforest import cli, pipeline  # noqa: E402
from codeforest.parser import parse_corpus  # noqa: E402

FIXTURES = TESTS / "fixtures"
SYNTH_SEEDS = range(10)
BENCH_SEED = 1

# Per command: CLI arguments after the corpus root, and the files it writes.
_COMMANDS = {
    "analyze": (["--report", "report.json"], ("report.json",)),
    "gltf": (["-o", "scene.gltf", "--format", "gltf"], ("scene.gltf",)),
    "obj": (["-o", "scene.obj", "--format", "obj"], ("scene.obj", "scene.mtl")),
    "mel": (["-o", "scene.mel", "--format", "mel"], ("scene.mel",)),
}


def parse_dump(root: Path) -> str:
    """``parse_corpus(root)`` as canonical JSON: every field of every
    unit, class, field, method and call site, spans, failures and
    warnings, with each method's reads and writes sorted, so the text
    does not depend on ``PYTHONHASHSEED``. The root is written
    ``<root>``."""
    result = _as_json(parse_corpus(root))
    return json.dumps(result, default=sorted, sort_keys=True).replace(str(root), "<root>")


def _as_json(value):
    """``value`` with each list or tuple a list and each record, down to
    the spans, a dict of its own fields: its ``__slots__``, or for a
    dataclass its ``__dict__``."""
    if isinstance(value, (list, tuple)):
        return [_as_json(item) for item in value]
    names = getattr(value, "__slots__", None) or getattr(value, "__dict__", None)
    if names is None:
        return value
    return {name: _as_json(getattr(value, name)) for name in names}


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


@contextlib.contextmanager
def _shared_pipeline():
    """Analyze each corpus once and build each scene once across commands.

    ``cli`` calls ``pipeline.analyze`` and ``pipeline.build_scene``
    through the module, so memoizing them there keeps every command's
    code path while the four commands share one analysis and the three
    renders share one scene. Failures are not memoized; they re-raise.
    """
    analyze, build_scene = pipeline.analyze, pipeline.build_scene
    infos: dict[str, pipeline.CorpusInfo] = {}
    scenes: dict[tuple[int, str], object] = {}

    def shared_analyze(root):
        key = os.path.abspath(root)
        if key not in infos:
            infos[key] = analyze(root)
        return infos[key]

    def shared_build_scene(info, config=None):
        key = (id(info), None if config is None
               else repr([getattr(config, name) for name in config.__slots__]))
        if key not in scenes:
            scenes[key] = build_scene(info, config)
        return scenes[key]

    pipeline.analyze, pipeline.build_scene = shared_analyze, shared_build_scene
    try:
        yield
    finally:
        pipeline.analyze, pipeline.build_scene = analyze, build_scene


def _run_corpus(root: Path, out: Path, render_args: list[str]) -> dict:
    """Run the four commands on ``root``, writing into ``out``.

    The commands run in ``root``'s parent and name the root by its
    directory name, because the report records the root as given.
    """
    out.mkdir(parents=True)
    entry = {}
    for name, (args, files) in _COMMANDS.items():
        args = [str(out / a) if a in files else a for a in args]
        argv = ["analyze" if name == "analyze" else "render", root.name, *args]
        if name != "analyze":
            argv += render_args
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(root.parent)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
        entry[name] = {
            "exit": code,
            "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(),
            "sha256": {f: _sha256(out / f) for f in files},
        }
    entry["parse"] = {"sha256": hashlib.sha256(parse_dump(root).encode()).hexdigest()}
    return entry


def compute_manifest(tmp: Path) -> dict:
    """Recompute the manifest, using ``tmp`` (empty) for corpora and outputs."""
    tmp = Path(tmp)
    manifest = {}
    with _shared_pipeline():
        for fixture in sorted(p.name for p in FIXTURES.iterdir() if p.is_dir()):
            manifest[f"fixture/{fixture}"] = _run_corpus(
                FIXTURES / fixture, tmp / "fixture" / fixture, [])
        for seed in SYNTH_SEEDS:
            root = tmp / "synth" / str(seed) / "corpus"
            synth.generate(seed, root)
            manifest[f"synth/{seed}"] = _run_corpus(
                root, tmp / "synth" / str(seed) / "out", [])
        for workload in corpora.WORKLOADS:
            base = tmp / "bench" / workload
            plan = corpora.generate(workload, BENCH_SEED, base / "corpus", repo=REPO)
            render_args = ["--seed", str(plan.render_seed)]
            config = corpora.RENDER_CONFIG[workload]
            if config is not None:
                (base / "render.cfg").write_text(config)
                render_args += ["--config", str(base / "render.cfg")]
            manifest[f"bench/{workload}"] = _run_corpus(
                base / "corpus", base / "out", render_args)
    text = json.dumps(manifest).replace(str(tmp), "<tmp>")
    return json.loads(text)


def moved(old: dict, new: dict) -> list[str]:
    """The ``corpus/command`` entries whose record differs between the
    two manifests, including any that only one of them has."""
    return [
        f"{corpus}/{command}"
        for corpus in sorted(old.keys() | new.keys())
        for command in sorted(old.get(corpus, {}).keys() | new.get(corpus, {}).keys())
        if old.get(corpus, {}).get(command) != new.get(corpus, {}).get(command)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite tests/golden/sha256.json.")
    parser.add_argument("--only", choices=[*_COMMANDS, "parse"], metavar="COMMAND",
                        help="rewrite this command's records only; exit 1 if any other moved")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = compute_manifest(Path(tmp))
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    entries = moved(old, manifest)
    print("moved: " + (", ".join(entries) or "nothing"))
    if args.only is not None:
        others = [e for e in entries if e.rpartition("/")[2] != args.only]
        if others:
            print(f"not written: moved outside {args.only}: {', '.join(others)}")
            return 1
        for corpus, records in manifest.items():
            old[corpus][args.only] = records[args.only]
        manifest = old
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST.relative_to(REPO)} ({len(manifest)} corpora)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
