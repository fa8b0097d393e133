"""The committed CLI corpus: every invocation in tests/golden/cli_corpus.json
must print the recorded stdout and exit with the recorded code.

Rewrite the corpus with tests/golden/make_corpus.py, and only when a
change of output is intended.
"""

import json

from golden.make_corpus import CORPUS, run


def test_cli_corpus_is_unchanged():
    entries = json.loads(CORPUS.read_text())
    assert len(entries) >= 150
    assert {e["exit"] for e in entries} == {0, 1, 2, 3}
    changed = [" ".join(e["argv"]) for e in entries
               if run(e["argv"]) != (e["exit"], e["stdout"])]
    assert changed == []
