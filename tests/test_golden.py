"""The committed CLI corpus: every invocation in tests/golden/cli_corpus.json
must print the recorded stdout and exit with the recorded code, also under
``python -O``.

Rewrite the corpus with tests/golden/make_corpus.py, and only when a
change of output is intended.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import garside
from golden.make_corpus import CORPUS, replay


def test_cli_corpus_is_unchanged():
    entries = json.loads(CORPUS.read_text())
    assert len(entries) >= 150
    assert {e["exit"] for e in entries} == {0, 1, 2, 3}
    changed = replay(entries)
    assert changed == []


def test_cli_corpus_is_unchanged_under_python_O():
    # -O strips assert statements; the checks that guard answers must not
    # be among them, so one optimized interpreter replays the whole corpus
    script = (
        "import json, sys\n"
        "from golden.make_corpus import CORPUS, replay\n"
        "print(json.dumps([sys.flags.optimize, replay(json.loads(CORPUS.read_text()))]))\n"
    )
    paths = [str(Path(garside.__file__).parent.parent), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1, []]
