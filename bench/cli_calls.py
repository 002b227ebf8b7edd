"""The `nilcone` calls of the cli-cold workload and how each is checked.

Each call is (argv, documented exit code, documented error kind).  A call
passes when its exit code is the documented one, its stdout matches the
SHA-256 digest recorded in `cli_golden.json`, and its stderr is empty on
success or exactly one `error\\t<kind>\\t<message>` line on failure.

    python3 cli_calls.py --record    rewrite cli_golden.json from the tree

Record only from a tree whose outputs are known to be right: the digests
are the reference every later run is compared with.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

CALLS = (
    # the README examples
    (("tensor", "--preset", "A1-adj", "--lhs", "2", "--rhs", "2"), 0, None),
    (("qanalog", "--preset", "A2-sc", "--lambda", "1,1", "--mu", "0,0"), 0, None),
    (("branch", "--preset", "A2-sc", "--subset", "0", "--weight", "1,0"), 0, None),
    (("bk-verify", "--preset", "B2-sc", "--nu", "1,1", "--lambda", "0,0"), 0, None),
    (("hom", "--preset", "A1-adj", "--source", "2@0", "--target", "2@0",
      "--route", "both"), 0, None),
    (("hilbert", "--preset", "A2-adj", "--truncation", "12"), 0, None),
    (("poincare", "--preset", "A2-sc", "--truncation", "8"), 0, None),
    (("roots", "--preset", "G2", "--output", "tsv"), 0, None),
    (("sl2-table", "--object", "proj", "--labels", "0,2,-2"), 0, None),
    (("sl2-profile", "--k", "2", "--window=-6:0"), 0, None),
    # larger calls
    (("bk-verify", "--preset", "B2-sc", "--nu", "3,3", "--lambda", "0,0"), 0, None),
    (("hilbert", "--preset", "A2-adj", "--truncation", "40"), 0, None),
    (("tensor", "--preset", "A2-sc", "--lhs", "2,1", "--rhs", "1,2",
      "--output", "tsv"), 0, None),
    (("qanalog", "--preset", "B2-sc", "--lambda", "2,2", "--mu", "0,0"), 0, None),
    (("branch", "--preset", "B2-sc", "--subset", "1", "--weight", "2,1"), 0, None),
    (("hom", "--preset", "A2-sc", "--source", "1,1@0", "--target", "1,1@2;0,0@0",
      "--route", "both"), 0, None),
    # Calls of similar, moderate cost on the other presets.  With them the
    # 90th percentile of the latencies falls among calls of one size instead
    # of on the sparse edge between the quick calls and the few slow ones.
    (("tensor", "--preset", "B2-sc", "--lhs", "2,2", "--rhs", "1,1"), 0, None),
    (("branch", "--preset", "A3-sc", "--subset", "0,1", "--weight", "1,1,1"), 0, None),
    (("branch", "--preset", "G2", "--subset", "0", "--weight", "2,1"), 0, None),
    (("qanalog", "--preset", "G2", "--lambda", "2,1", "--mu", "0,0"), 0, None),
    (("qanalog", "--preset", "A3-sc", "--lambda", "2,0,2", "--mu", "0,0,0"), 0, None),
    (("hom", "--preset", "A2-sc", "--source", "2,0", "--target", "2,0",
      "--route", "slice"), 0, None),
    (("roots", "--preset", "A3-sc"), 0, None),
    # more rank-one calls
    (("sl2-table", "--object", "delta"), 0, None),
    (("sl2-table", "--object", "nabla", "--output", "json"), 0, None),
    (("sl2-profile", "--k", "0", "--window=-4:2", "--output", "tsv"), 0, None),
    (("sl2-profile", "--k", "4"), 0, None),
    # bad inputs with their documented exit codes
    (("tensor", "--preset", "E8", "--lhs", "1", "--rhs", "1"), 1, "domain"),
    (("tensor", "--preset", "A1-adj", "--lhs", "1", "--rhs", "1"), 1, "domain"),
    (("qanalog", "--preset", "A2-sc", "--lambda", "1,x", "--mu", "0,0"), 1, "domain"),
    (("qanalog", "--preset", "A2-sc", "--lambda=-1,0", "--mu", "0,0"), 1, "domain"),
    (("hilbert", "--preset", "A1-adj", "--truncation", "0"), 1, "domain"),
    (("sl2-table", "--object", "bogus"), 1, "domain"),
    (("sl2-profile", "--k", "3"), 1, "domain"),
    (("bk-verify", "--preset", "A2-sc", "--nu", "9,9", "--lambda", "0,0",
      "--dim-cap", "50"), 2, "resource"),
    (("hom", "--preset", "A2-sc", "--source", "3,3", "--target", "3,3",
      "--route", "slice", "--dim-cap", "20"), 2, "resource"),
    # Known contract breaks: these escape as Python tracebacks instead of an
    # error line, so they count as failures until the parsers map them.
    (("branch", "--preset", "A2-sc", "--subset", "x", "--weight", "1,0"), 1, "domain"),
    (("sl2-table", "--object", "delta", "--labels", "a"), 1, "domain"),
    (("sl2-profile", "--k", "2", "--window=3"), 1, "domain"),
    (("hom", "--preset", "A2-sc", "--source", "1,0@x", "--target", "1,0"), 1, "domain"),
)

# A handful of calls that still reach every traced cli-cold layer.
TINY = (8, 9, 1)


def call_key(argv):
    return " ".join(argv)


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def check(argv, expected_exit, expected_kind, code, stdout, stderr, golden):
    """(result correct, every check passed, reason) for one finished call.

    The result is correct when the exit code and the stdout digest match;
    the stderr contract is checked on top and only marks the call failed.
    """
    digest = hashlib.sha256(stdout).hexdigest()
    want = golden.get(call_key(argv))
    if code != expected_exit:
        return False, False, "exit %d, expected %d" % (code, expected_exit)
    if digest != want:
        return False, False, "stdout digest differs from the golden record"
    if expected_kind is None:
        if stderr:
            return True, False, "unexpected stderr on success"
        return True, True, ""
    lines = stderr.decode("utf-8", "replace").splitlines()
    if len(lines) != 1 or not lines[0].startswith("error\t%s\t" % expected_kind):
        return True, False, "stderr is not one error\\t%s line (%d lines)" % (
            expected_kind, len(lines))
    return True, True, ""


def record():
    """Run every call once against the tree and rewrite the digests."""
    root = GOLDEN.parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("NILCONE_CACHE_DIR", None)
    golden = {}
    for argv, _, _ in CALLS:
        proc = subprocess.run(
            [sys.executable, str(GOLDEN.parent / "cli_child.py"), *argv],
            capture_output=True, env=env, cwd=root, timeout=120)
        golden[call_key(argv)] = hashlib.sha256(proc.stdout).hexdigest()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 cli_calls.py --record")
    record()
