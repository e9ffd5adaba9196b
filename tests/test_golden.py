"""Output bytes pinned across commits by the golden manifest.

``tests/golden/sha256.json`` holds, for the fixtures, ten synth seeds
and the three bench corpora, each CLI command's exit code, stdout,
stderr and the sha256 of every file it writes. A change that moves
output bytes on purpose regenerates it with
``python tests/golden/update.py`` and says why. Each corpus's ``parse``
record pins the whole ``parse_corpus`` result the same way.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from golden import update
from golden.update import MANIFEST, compute_manifest, moved

from conftest import FIXTURES


def test_outputs_match_the_golden_manifest(tmp_path):
    entries = moved(json.loads(MANIFEST.read_text()), compute_manifest(tmp_path))
    assert not entries, f"output moved for {entries}; see tests/golden/update.py"


def test_parse_dump_does_not_depend_on_the_hash_seed():
    # Each method's reads and writes are sets; the dump sorts them.
    code = ("import sys\nfrom pathlib import Path\nfrom golden.update import parse_dump\n"
            "sys.stdout.write(parse_dump(Path(sys.argv[1])))\n")
    tests = str(Path(__file__).parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        tests, os.environ.get("PYTHONPATH")]))}
    dumps = [subprocess.run([sys.executable, "-c", code, str(FIXTURES / "jfreechart_annotations")],
                            env={**env, "PYTHONHASHSEED": seed}, capture_output=True, text=True,
                            timeout=60, check=True).stdout
             for seed in ("0", "1")]
    assert dumps[0] == dumps[1]
    assert '"reads_fields": ["' in dumps[0]


def _update_only(command, old, new, tmp_path, monkeypatch):
    """Run ``update.py --only command`` with ``new`` as the recomputed
    manifest and ``old`` as the committed one; return its exit code and
    the manifest it leaves."""
    path = tmp_path / "golden" / "sha256.json"
    path.parent.mkdir()
    path.write_text(json.dumps(old))
    monkeypatch.setattr(update, "MANIFEST", path)
    monkeypatch.setattr(update, "REPO", tmp_path)
    monkeypatch.setattr(update, "compute_manifest", lambda tmp: new)
    return update.main(["--only", command]), json.loads(path.read_text())


_OLD = {"fixture/a": {"gltf": {"exit": 0, "sha256": {"scene.gltf": "1"}},
                      "obj": {"exit": 0, "sha256": {"scene.obj": "2", "scene.mtl": "3"}}}}


def test_update_only_rewrites_that_commands_records(tmp_path, monkeypatch, capsys):
    new = json.loads(json.dumps(_OLD))
    new["fixture/a"]["obj"]["sha256"]["scene.obj"] = "4"
    code, written = _update_only("obj", _OLD, new, tmp_path, monkeypatch)
    assert code == 0
    assert written == new
    assert "moved: fixture/a/obj\n" in capsys.readouterr().out


def test_update_only_writes_nothing_when_another_command_moved(tmp_path, monkeypatch, capsys):
    new = json.loads(json.dumps(_OLD))
    new["fixture/a"]["obj"]["sha256"]["scene.obj"] = "4"
    new["fixture/a"]["gltf"]["exit"] = 1
    code, written = _update_only("obj", _OLD, new, tmp_path, monkeypatch)
    assert code == 1
    assert written == _OLD
    assert "fixture/a/gltf" in capsys.readouterr().out.splitlines()[-1]
