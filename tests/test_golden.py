"""The golden corpus: CLI reports that must stay byte-identical.

Each line of `golden/manifest.txt` names a file and an argv; the command is
run in-process through `cli.main` and its stdout compared with the file.
An intended change to a report is made by running this file as a script,
which rewrites every file of the corpus, and then reviewing the diff.
"""

import contextlib
import difflib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from blobalg import cli

GOLDEN = Path(__file__).parent / "golden"
DIFF_LINES = 40  # lines of unified diff shown on a mismatch


def cases():
    """(file name, argv) per manifest line."""
    out = []
    for line in (GOLDEN / "manifest.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, argv = line.split(None, 1)
            out.append((name, shlex.split(argv)))
    return out


def _lines(text: str):
    """The report's lines; a one-line JSON report is spread one value a line,
    so that a diff points at the value that changed."""
    try:
        return json.dumps(json.loads(text), indent=1).splitlines()
    except ValueError:
        return text.splitlines()


def output(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    assert rc == 0, (argv, rc)
    return buf.getvalue()


@pytest.mark.parametrize("name,argv", cases(), ids=[name for name, _ in cases()])
def test_report_is_unchanged(name, argv):
    want = (GOLDEN / name).read_bytes().decode()
    got = output(argv)
    if got != want:
        diff = list(difflib.unified_diff(_lines(want), _lines(got), "golden/" + name,
                                         "now", lineterm=""))
        if not diff:  # the same values, written differently
            diff = list(difflib.unified_diff(want.splitlines(), got.splitlines(),
                                             "golden/" + name, "now", lineterm=""))
        pytest.fail("%s changed:\n%s" % (shlex.join(argv), "\n".join(diff[:DIFF_LINES])))


def test_manifest_lists_every_file():
    assert sorted(p.name for p in GOLDEN.iterdir() if p.name != "manifest.txt") \
        == sorted(name for name, _ in cases())


if __name__ == "__main__":
    for name, argv in cases():
        path = GOLDEN / name
        text = output(argv).encode()
        if not path.exists() or path.read_bytes() != text:
            path.write_bytes(text)
            print("wrote %s" % path, file=sys.stderr)
