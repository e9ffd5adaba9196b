"""Output bytes pinned across commits by the golden manifest.

``tests/golden/sha256.json`` holds, for the fixtures, ten synth seeds
and the three bench corpora, each CLI command's exit code, stdout,
stderr and the sha256 of every file it writes. A change that moves
output bytes on purpose regenerates it with
``python tests/golden/update.py`` and says why.
"""

import json

from golden.update import MANIFEST, compute_manifest, moved


def test_outputs_match_the_golden_manifest(tmp_path):
    entries = moved(json.loads(MANIFEST.read_text()), compute_manifest(tmp_path))
    assert not entries, f"output moved for {entries}; see tests/golden/update.py"
