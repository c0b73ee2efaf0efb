"""Golden CLI transcripts: stdout compared byte for byte.

Each case runs ``bmwcenter.cli.run`` in-process and compares its stdout
with ``tests/golden/<name>.out``.  The cases cover every output that prints
a Laurent polynomial or an expanded wheel series (with the exact Bareiss
elimination of ``matrix`` and ``family`` at n = 4), the commands that walk
updown paths (``paths``, ``idempotent``, ``graph``, ``selfcheck``) and the
classification commands (``lambda``, ``pairs``, ``separate``,
``semisimple``, ``blocks``, ``verify-blocks``) at n <= 6.
To record the files again (only when an output is meant to change):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import pathlib
from contextlib import redirect_stdout

import pytest

from bmwcenter.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"
REGIMES = ("generic", "q^2", "-q^1")
FORMATS = ("text", "json")


def _cases():
    argvs = [["wheel", "--n", str(n)] for n in (2, 3, 4)]
    for t in REGIMES:
        argvs += [["matrix", "--n", "3", "--t", t],
                  ["family", "--n", "3", "--t", t],
                  ["contents", "--n", "4", "--shape", "2", "--t", t],
                  ["contents", "--n", "5", "--shape", "2,1", "--t", t],
                  ["signature", "--n", "4", "--shape", "1,1", "--t", t],
                  ["signature", "--n", "5", "--shape", "3", "--t", t],
                  ["selfcheck", "--n", "5", "--t", t]]
    argvs += [["paths", "--n", "5", "--shape", "1"],
              ["paths", "--n", "5", "--shape", "2,1"],
              ["idempotent", "--n", "5", "--shape", "1"],
              ["idempotent", "--n", "5", "--shape", "3"]]
    argvs += [["lambda", "--n", str(n)] for n in (4, 6)]
    for n in (5, 6):
        argvs += [[cmd, "--n", str(n), "--t", t]
                  for cmd in ("separate", "semisimple", "blocks") for t in REGIMES]
        # pairing and the block theorem need an even-power regime, and the
        # block theorem a level that is not semisimple there
        argvs += [["verify-blocks", "--n", str(n), "--t", "q^2"]]
    argvs += [["pairs", "--n", "5", "--shape", "2,1", "--t", "q^2"],
              ["pairs", "--n", "6", "--shape", "3,1", "--t", "q^2"]]
    cases = [argv + ["--format", f] for argv in argvs for f in FORMATS]
    # exact Bareiss elimination: the specialised rank cannot certify these
    # two matrices, and every family runs it
    cases += [["matrix", "--n", "4", "--t", "q^0", "--format", "text"],
              ["matrix", "--n", "4", "--t", "-q^1", "--format", "json"],
              ["family", "--n", "4", "--t", "1", "--format", "text"],
              ["family", "--n", "4", "--t", "-q^1", "--format", "json"]]
    return cases + [["graph", "--n", "4", "--format", f]
                    for f in ("text", "json", "dot")]


def _name(argv):
    """A file name for argv, e.g. family_n3_mq1_json."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    bits = [argv[0], "n" + opts["--n"]]
    if "--shape" in opts:
        bits.append("s" + opts["--shape"].replace(",", ""))
    if "--t" in opts:
        bits.append(opts["--t"].replace("-", "m").replace("^", ""))
    bits.append(opts["--format"])
    return "_".join(bits)


def _stdout(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    assert code == 0, argv
    return buf.getvalue()


@pytest.mark.parametrize("argv", _cases(), ids=_name)
def test_golden_transcript(argv):
    expected = (GOLDEN / (_name(argv) + ".out")).read_text()
    assert _stdout(argv) == expected


def test_family_n4_generic_digest():
    # the generic n = 4 family has no transcript; its stdout is pinned by
    # digest, recorded before any change to the symbolic elimination
    out = _stdout(["family", "--n", "4"]).encode()
    assert hashlib.sha256(out).hexdigest() == (
        "c5f4d272b5b9a2b1f172565b9fdd74cc8ad2a220577399c296a821119408aa78")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for argv in _cases():
        (GOLDEN / (_name(argv) + ".out")).write_text(_stdout(argv))
