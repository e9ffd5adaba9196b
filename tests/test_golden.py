"""Output bytes pinned across commits by the golden manifest.

``tests/golden/sha256.json`` holds, for the fixtures, ten synth seeds
and the three bench corpora, each CLI command's exit code, stdout,
stderr and the sha256 of every file it writes. A change that moves
output bytes on purpose regenerates it with
``python tests/golden/update.py`` and says why.
"""

import json

from golden.update import MANIFEST, compute_manifest


def _by_command(manifest: dict) -> dict:
    return {
        f"{corpus}/{command}": entry
        for corpus, commands in manifest.items()
        for command, entry in commands.items()
    }


def test_outputs_match_the_golden_manifest(tmp_path):
    expected = _by_command(json.loads(MANIFEST.read_text()))
    actual = _by_command(compute_manifest(tmp_path))
    moved = sorted(k for k in expected.keys() | actual.keys()
                   if expected.get(k) != actual.get(k))
    assert not moved, f"output moved for {moved}; see tests/golden/update.py"
