import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from nilcone.cli import run, SCHEMA
from nilcone.roots import supported_presets


def _capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["hilbert", "--preset", "A2-adj", "--truncation", "12"],
    ["hilbert", "--preset", "A2-adj", "--truncation", "0"],
])
def test_module_entry_point_matches_run(capsys, argv):
    """`python -m nilcone` prints what cli.run prints and exits with its
    code."""
    code, out, err = _capture(capsys, argv)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["nilcone"].__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-m", "nilcone"] + argv,
                           capture_output=True, text=True, env=env,
                           timeout=60)
    assert (child.returncode, child.stdout, child.stderr) == (code, out, err)


def test_tensor_even_label_example(capsys):
    code, out, _ = _capture(capsys, ["tensor", "--preset", "A1-adj",
                                     "--lhs", "2", "--rhs", "2"])
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == SCHEMA
    assert blob["result"] == {"4": 1, "2": 1, "0": 1}


def test_qanalog_example(capsys):
    code, out, _ = _capture(capsys, ["qanalog", "--preset", "A1-adj",
                                     "--lambda", "2", "--mu", "0"])
    assert code == 0
    assert json.loads(out)["result"] == [[1, "1"]]


def test_roots_example(capsys):
    code, out, _ = _capture(capsys, ["roots", "--preset", "A1-sc"])
    assert code == 0
    assert len(json.loads(out)["result"]) == 1


def test_branch_subcommand(capsys):
    code, out, _ = _capture(capsys, ["branch", "--preset", "A2-sc",
                                     "--subset", "0", "--weight", "1,0"])
    assert code == 0
    result = json.loads(out)["result"]
    assert sum(result.values()) == 2


def test_deterministic_output(capsys):
    argv = ["hilbert", "--preset", "A2-adj", "--truncation", "8"]
    _, first, _ = _capture(capsys, argv)
    _, second, _ = _capture(capsys, argv)
    assert first == second


def test_unknown_preset_exit_code(capsys):
    code, out, err = _capture(capsys, ["roots", "--preset", "Z9"])
    assert code == 1 and not out
    assert err.startswith("error\tdomain\t")
    assert err.count("\n") == 1


def test_domain_error_exit_code(capsys):
    code, _, err = _capture(capsys, ["qanalog", "--preset", "A1-adj",
                                     "--lambda", "3", "--mu", "0"])
    assert code == 1
    assert "lattice" in err


@pytest.mark.parametrize("argv", [
    ["branch", "--preset", "A2-sc", "--subset", "x", "--weight", "1,0"],
    ["sl2-table", "--object", "delta", "--labels", "a"],
    ["sl2-profile", "--k", "2", "--window=3"],
    ["hom", "--preset", "A2-sc", "--source", "1,0@x", "--target", "1,0"],
    # usage errors that argparse would report with exit code 2
    ["tensor", "--preset", "A2-sc", "--lhs", "1,0"],
    ["hilbert", "--preset", "A2-sc", "--truncation", "x"],
    ["tensor", "--preset", "A2-sc", "--lhs", "-1,0", "--rhs", "0,1"],
    [],
    # an --out path that cannot be opened
    ["tensor", "--preset", "A2-sc", "--lhs", "1,0", "--rhs", "0,1",
     "--out", os.path.join(os.devnull, "x.json")],
    # a dimension cap below 1
    ["bk-verify", "--preset", "A2-sc", "--nu", "1,1", "--lambda", "0,0",
     "--dim-cap", "-1"],
    ["hom", "--preset", "A2-sc", "--source", "1,0", "--target", "1,0",
     "--dim-cap", "0"],
])
def test_malformed_argument_is_one_domain_error(capsys, argv):
    code, out, err = _capture(capsys, argv)
    assert code == 1 and not out
    assert err.startswith("error\tdomain\t")
    assert err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["tensor", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: nilcone tensor")


def test_resource_error_exit_code(capsys):
    code, _, err = _capture(capsys, ["bk-verify", "--preset", "A1-sc",
                                     "--nu", "900", "--lambda", "0"])
    assert code == 2
    assert err.startswith("error\tresource\t")


def test_bk_verify_roundtrip(capsys):
    code, out, _ = _capture(capsys, ["bk-verify", "--preset", "A2-sc",
                                     "--nu", "1,1", "--lambda", "0,0"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["equal"] is True
    assert result["filtration"] == result["predicted"] == [[1, "1"], [2, "1"]]


def test_hom_both_routes(capsys):
    code, out, _ = _capture(capsys, ["hom", "--preset", "A1-adj",
                                     "--source", "0@0", "--target", "2@0",
                                     "--route", "both"])
    assert code == 0
    entries = json.loads(out)["result"]["entries"]
    assert entries == [{"internal": 0, "cohomological": 2, "dim": 1}]


def test_hom_disagreement_names_its_counterexample(capsys, monkeypatch):
    """A disagreement of the two Hom routes is one domain error line naming
    the preset, the first differing (internal, cohomological) key and both
    values."""
    from nilcone import homspaces
    slice_route = homspaces.hom_profile_slice

    def broken(datum, source, target, dim_cap):
        table = slice_route(datum, source, target, dim_cap)
        table[(0, 4)] += 1
        table[(0, 6)] = 1
        return table
    monkeypatch.setattr(homspaces, "hom_profile_slice", broken)
    code, out, err = _capture(capsys, ["hom", "--preset", "A1-adj",
                                       "--source", "2@0", "--target", "2@0",
                                       "--route", "both"])
    assert code == 1 and not out
    assert err == ("error\tdomain\tdual-route disagreement on A1-adj at "
                   "(internal 0, cohomological 4): kostant 1, slice 2; this "
                   "is a bug\n")


def test_sl2_table_tsv(capsys):
    code, out, _ = _capture(capsys, ["sl2-table", "--object", "proj",
                                     "--labels", "0"])
    assert code == 0
    assert out.splitlines() == ["projective\t0\t0\t0\t1",
                                "projective\t0\t1\t-2\t1",
                                "projective\t0\t2\t0\t1"]


def test_sl2_profile_json(capsys):
    code, out, _ = _capture(capsys, ["sl2-profile", "--k", "0",
                                     "--window=-2:0"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["0"] == {"-1": 1, "0": 2}
    assert result["-1"] == {"-1": 1, "0": 2, "1": 1}


def test_out_path(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = _capture(capsys, ["poincare", "--preset", "A1-sc",
                                     "--truncation", "4",
                                     "--out", str(target)])
    assert code == 0 and not out
    blob = json.loads(target.read_text())
    assert blob["result"] == [[0, "1"], [2, "1"], [4, "1"]]


def test_cache_dir_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NILCONE_CACHE_DIR", str(tmp_path))
    argv = ["qanalog", "--preset", "B2-sc", "--lambda", "2,2", "--mu", "0,0"]
    _, first, _ = _capture(capsys, argv)
    files = list(tmp_path.glob("*.json"))
    assert files, "cache file was not written"
    _, second, _ = _capture(capsys, argv)
    assert first == second
    # a corrupted cache entry is ignored, not trusted
    for f in files:
        f.write_text("{not json")
    _, third, _ = _capture(capsys, argv)
    assert first == third
    # so is a file holding JSON that is not an object
    for payload in ("[]", "1", "null"):
        for f in files:
            f.write_text(payload)
        assert _capture(capsys, argv) == (0, first, ""), payload


_TAMPERED = {
    "lusztig_q_analog": [
        [[1, "5"], [7, "-3"]], [[-1, "1"]], [[1, "x"]], [[1, 2]],
        [[1.0, "1"]], [[1, "1", 0]], "garbage", {"1": "1"}],
    "irreducible_character": [
        "garbage", [[[0, 0], 0]], [[[0], 1]], [[[0.0, 0], 1]],
        [[[0, 0], True]], [[[0, 0], 1]] * 3, [[[0, 0], 7]], [[0, 0]],
        {"0,0": 1}],
}


def test_tampered_cache_entries_are_recomputed(tmp_path, capsys,
                                               monkeypatch):
    """A disk-cache value of the wrong shape is a miss: the call prints the
    uncached stdout, exits 0 with an empty stderr and stores the value
    again."""
    from nilcone.characters import _character
    calls = [["qanalog", "--preset", "A2-sc", "--lambda", "1,1",
              "--mu", "0,0"],
             ["tensor", "--preset", "A2-sc", "--lhs", "1,1", "--rhs", "1,0"],
             ["branch", "--preset", "A2-sc", "--subset", "0",
              "--weight", "2,1"]]

    def cold(argv):
        _character.cache_clear()
        return _capture(capsys, argv)
    expected = [cold(argv) for argv in calls]
    assert all(code == 0 and not err for code, _, err in expected)
    monkeypatch.setenv("NILCONE_CACHE_DIR", str(tmp_path))
    assert [cold(argv) for argv in calls] == expected
    files = {}
    for path in tmp_path.glob("*.json"):
        blob = json.loads(path.read_text())
        files.setdefault(blob["request"]["op"], []).append((path, blob))
    assert sorted(files) == sorted(_TAMPERED)
    for op, values in _TAMPERED.items():
        for path, blob in files[op]:
            for value in values:
                path.write_text(json.dumps(dict(blob, value=value)))
                assert [cold(argv) for argv in calls] == expected, value
                assert json.loads(path.read_text()) == blob, value


# -- argument fuzz --------------------------------------------------------------

# Pairing coordinates stay in [-1, 2] and truncations at most 6, so that no
# character-only route, which has no size cap yet, runs long.
_BAD_WEIGHTS = st.one_of(
    st.lists(st.integers(-1, 2), max_size=4).map(
        lambda cs: ",".join(map(str, cs))),
    st.sampled_from(["x", "1,,0", "1.5", " ", "0;0"]))


def _mostly(draw, good, bad):
    """Draw from good, and from bad about one time in six."""
    return draw(bad if draw(st.integers(0, 5)) == 0 else good)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from([
        "roots", "tensor", "branch", "qanalog", "bk-verify", "hom", "hilbert",
        "poincare", "sl2-table", "sl2-profile", "bogus"]))
    preset = _mostly(draw, st.sampled_from(supported_presets()),
                     st.sampled_from(["Z9", "A4-sc", ""]))
    rank = int(preset[1]) if preset[1:2].isdigit() else 1

    def weight():
        return _mostly(draw, st.lists(st.integers(0, 2), min_size=rank,
                                      max_size=rank).map(
                           lambda cs: ",".join(map(str, cs))),
                       _BAD_WEIGHTS)

    def free_object():
        return ";".join(weight() + _mostly(
            draw, st.sampled_from(["", "@0", "@-2", "@1"]), st.just("@x"))
            for _ in range(draw(st.integers(0, 2))))

    def truncation():
        return _mostly(draw, st.integers(0, 6).map(str),
                       st.sampled_from(["-1", "x", ""]))

    options = {
        "roots": lambda: {},
        "tensor": lambda: {"--lhs": weight(), "--rhs": weight()},
        "branch": lambda: {"--subset": draw(st.sampled_from(
                               ["", "0", "1", "0,1", "5", "x"])),
                           "--weight": weight()},
        "qanalog": lambda: {"--lambda": weight(), "--mu": weight()},
        # a cap of at most 1 keeps every module build small
        "bk-verify": lambda: {"--nu": weight(), "--lambda": weight(),
                              "--dim-cap": _mostly(draw, st.just("1"),
                                                   st.sampled_from(
                                                       ["0", "-1", "x"]))},
        "hom": lambda: {"--source": free_object(),
                        "--target": free_object(),
                        "--route": _mostly(draw, st.sampled_from(
                            ["kostant", "slice", "both"]), st.just("x")),
                        "--dim-cap": _mostly(draw, st.just("1"),
                                             st.sampled_from(["0", "-1"]))},
        "hilbert": lambda: {"--truncation": truncation()},
        "poincare": lambda: {"--truncation": truncation()},
        "sl2-table": lambda: {
            "--object": _mostly(draw, st.sampled_from(
                ["delta", "nabla", "proj", "standard"]), st.just("x")),
            "--labels": ",".join(map(str, draw(st.lists(
                st.integers(-6, 6), max_size=3))))},
        "sl2-profile": lambda: {
            "--k": _mostly(draw, st.sampled_from(["-4", "-2", "0", "2", "4"]),
                           st.sampled_from(["-3", "1", "x"])),
            "--window": _mostly(draw, st.sampled_from(["-6:0", "0:2", "-2:-4"]),
                                st.sampled_from(["3", "a:b", "1:2:3"]))},
    }.get(command, lambda: {})()
    if not command.startswith("sl2"):
        options["--preset"] = preset
    options["--output"] = _mostly(draw, st.sampled_from(["json", "tsv"]),
                                  st.just("xml"))
    argv = [command]
    for flag, value in options.items():
        # a flag is sometimes left out, but the cap never
        if flag == "--dim-cap" or draw(st.integers(0, 9)):
            argv.append("%s=%s" % (flag, value))
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--out"])))
    return argv


@settings(max_examples=200)
@given(_argv())
def test_argument_fuzz_exits_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert not err, (argv, err)
    else:
        kind = "domain" if code == 1 else "resource"
        assert err.startswith("error\t%s\t" % kind), (argv, err)
        assert err.count("\n") == 1, (argv, err)
