"""Command-line behaviour: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys

import pytest

from bmwcenter import cli, tableaux
from bmwcenter.cli import run
from bmwcenter.partitions import text_of_partition
from bmwcenter.tableaux import enumerate_lambda, enumerate_paths


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lambda_text(capsys):
    code, out, err = invoke(capsys, "lambda", "--n", "3")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines == [str(lp) for lp in enumerate_lambda(3)]


def test_lambda_json(capsys):
    code, out, _ = invoke(capsys, "lambda", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == [{"shape": "1,1", "defect": 0},
                    {"shape": "2", "defect": 0},
                    {"shape": "0", "defect": 1}]


def test_signature_text(capsys):
    code, out, _ = invoke(capsys, "signature", "--n", "4", "--shape", "1,1,1,1",
                          "--t", "q^2")
    assert code == 0
    assert out.strip() == "(1-q^4T)/(1-q^-4T)"


def test_signature_json_round_trip(capsys):
    code, out, _ = invoke(capsys, "signature", "--n", "4", "--shape", "2",
                          "--t", "q^2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["regime"] == "q^2"
    assert {d["value"]: d["exponent"] for d in data["signature"]} == {
        "q^-4": 1, "q^-2": 1, "q^2": -1, "q^4": -1}


def test_negative_regime_value_accepted(capsys):
    code, out, _ = invoke(capsys, "semisimple", "--n", "2", "--t", "-q^-1")
    assert code == 0
    assert out.strip() == "true"


def test_pairs_text_layout(capsys):
    code, out, _ = invoke(capsys, "pairs", "--n", "9", "--t", "q^8",
                          "--shape", "2,1,1,1,1,1,1,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "P = {-7, -6, -5, -4, -3, -2, -1}"
    # one diagram row per partition row
    assert len(lines) == 1 + 8


def test_pairs_json(capsys):
    code, out, _ = invoke(capsys, "pairs", "--n", "4", "--t", "q^2",
                          "--shape", "1,1,1,1", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["paired"] == [-2, -1, 0]


def test_separate_text_mentions_prediction(capsys):
    code, out, _ = invoke(capsys, "separate", "--n", "2", "--t", "q^-1")
    assert code == 0
    assert "separates: False" in out
    assert "witness:" in out
    assert "semisimple: False" in out


def test_contents_output(capsys):
    code, out, _ = invoke(capsys, "contents", "--n", "4", "--shape", "2")
    assert code == 0
    assert "(remove, 0) x 1" in out
    assert "(add, 0) x 2" in out


def test_graph_dot(capsys):
    code, out, _ = invoke(capsys, "graph", "--n", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph branching {")


def test_blocks_command(capsys):
    code, out, _ = invoke(capsys, "blocks", "--n", "2", "--t", "q^-1",
                          "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["agrees_with_W"] is False
    assert len(data["blocks"]) == 3


def test_verify_blocks_ok(capsys):
    code, out, _ = invoke(capsys, "verify-blocks", "--n", "4", "--t", "q^0")
    assert code == 0
    assert out.strip() == "verified"


def test_idempotent_command(capsys):
    code, out, _ = invoke(capsys, "idempotent", "--n", "4", "--shape", "2")
    assert code == 0
    assert "all other paths zero: True" in out


def test_selfcheck(capsys):
    code, out, _ = invoke(capsys, "selfcheck", "--n", "3")
    assert code == 0
    assert "selfcheck level 3: ok" in out


def test_selfcheck_json(capsys):
    code, out, _ = invoke(capsys, "selfcheck", "--n", "3", "--t", "q^2",
                          "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 3, "regime": "q^2", "ok": True,
                               "failures": []}


def test_paths_print_as_the_rendered_path_lists(capsys):
    # the halves rendered once each against every path rendered in full:
    # the step-by-step text and json.dumps of the path lists
    for n in range(7):
        for lp in enumerate_lambda(n):
            shape = text_of_partition(lp.shape)
            paths = [[*map(text_of_partition, p)] for p in enumerate_paths(n, lp.shape)]
            code, out, _ = invoke(capsys, "paths", "--n", str(n), "--shape", shape)
            assert code == 0 and out == "".join(
                [" -> ".join(p) + "\n" for p in paths] + ["total: %d\n" % len(paths)])
            code, out, _ = invoke(capsys, "paths", "--n", str(n), "--shape", shape,
                                  "--format", "json")
            assert code == 0 and out == json.dumps(paths, indent=2) + "\n"


def test_selfcheck_path_count_can_fail(capsys, monkeypatch):
    # one tail of one shape dropped from the halves: the count selfcheck
    # takes from them no longer matches path_counts
    halves = tableaux.path_halves

    def short(n, lam):
        heads, tails = halves(n, lam)
        if lam == (2, 1):
            tails[heads[0][-1]].pop()
        return heads, tails

    monkeypatch.setattr(tableaux, "path_halves", short)
    code, out, _ = invoke(capsys, "selfcheck", "--n", "5")
    assert code == 1
    assert out == ("FAIL: path count mismatch at 2,1\n"
                   "selfcheck level 5: 1 failure(s)\n")


@pytest.mark.parametrize("argv", [
    ["paths", "--n", "16", "--shape", "0"],  # 2,027,025 paths
    ["selfcheck", "--n", "12"],  # 3,609,673 paths over the level
    ["idempotent", "--n", "12", "--shape", "0"],
])
def test_runaway_enumerations_are_refused(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ResourceLimit: ")
    assert "more than 1000000 paths" in err


def test_selfcheck_refuses_before_any_shape_work(capsys, monkeypatch):
    def refused(*args):
        raise AssertionError("signature built above the path cap")

    monkeypatch.setattr(cli.contentfn, "signature", refused)
    code, out, err = invoke(capsys, "selfcheck", "--n", "12")
    assert code == 1 and out == ""
    assert err.startswith("error: ResourceLimit: level 12: ")


def test_selfcheck_expands_the_wheels_once(capsys, monkeypatch):
    calls = []
    expand = cli.wheelpoly.wheel_coefficients

    def counted(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(cli.wheelpoly, "wheel_coefficients", counted)
    code, out, _ = invoke(capsys, "selfcheck", "--n", "6")
    assert code == 0 and out == "selfcheck level 6: ok\n"
    assert calls == [(6, 3)]


def test_domain_error_exit_one(capsys):
    # shape size and level parity cannot match
    code, out, err = invoke(capsys, "signature", "--n", "3", "--shape", "2")
    assert code == 1
    assert "ShapeLevelMismatch" in err


def test_regime_error_exit_one(capsys):
    code, _, err = invoke(capsys, "pairs", "--n", "2", "--shape", "2",
                          "--t", "q^1")
    assert code == 1
    assert "RegimeMismatch" in err


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["signature", "--n", "2"])  # missing --shape
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["separate"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["separate", "--n", "2", "--t", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    # the bad value is quoted as given; a zero inside a shape is refused;
    # numbers are ASCII digits with nothing else that int() would accept
    for argv, message in (
            (["separate", "--n", "3", "--t", "-1"], "bad regime spec '-1'"),
            (["signature", "--n", "2", "--shape", "1,,1"], "bad shape spec '1,,1'"),
            (["signature", "--n", "2", "--shape", "1,0,1"], "weakly decreasing"),
            (["semisimple", "--n", "5", "--t", "q^1_0"], "bad regime spec 'q^1_0'"),
            (["separate", "--n", "3", "--t", "q^+2"], "bad regime spec 'q^+2'"),
            (["separate", "--n", "3", "--t", "q^ 3"], "bad regime spec 'q^ 3'"),
            (["signature", "--n", "12", "--shape", "1_0,2"], "bad shape spec '1_0,2'"),
            (["signature", "--n", "4", "--shape", "2, 2"], "bad shape spec '2, 2'"),
            (["signature", "--n", "3", "--shape", "+3"], "bad shape spec '+3'"),
            (["signature", "--n", "1_2", "--shape", "10,2"], "bad integer '1_2'"),
            (["lambda", "--n", "+3"], "bad integer '+3'"),
            (["matrix", "--n", "3", "--order", "1_0"], "bad integer '1_0'"),
            (["wheel", "--n", "2", "--order", "\u0663"], "bad integer")):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2 and message in capsys.readouterr().err
    # trailing zeros are dropped, and spaces around a whole spec
    assert invoke(capsys, "signature", "--n", "2", "--shape", "1,1,0") == invoke(
        capsys, "signature", "--n", "2", "--shape", "1,1")
    spaced = invoke(capsys, "signature", "--n", " 4 ", "--shape", " 2,2 ", "--t", " q^3 ")
    assert spaced == invoke(capsys, "signature", "--n", "4", "--shape", "2,2", "--t", "q^3")


@pytest.mark.parametrize("argv", [
    ["selfcheck", "--n", "3", "--parallel"],
    ["separate", "--n", "3", "--shape2", "1"],
    ["separate", "--n", "3", "--defect", "1"],
    ["lambda", "--n", "3", "--format", "dot"],
])
def test_removed_options_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["separate", "--n", "3", "--order", "2"],
    ["family", "--n", "2", "--order", "3"],
    ["wheel", "--n", "2", "--order", "-1"],
    ["matrix", "--n", "3", "--order", "-2"],
])
def test_order_is_only_for_wheel_and_matrix(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("non-negative" in err) == (argv[0] in ("wheel", "matrix"))


@pytest.mark.parametrize("argv", [
    ["lambda", "--n", "2", "--shape", "bogus"],
    ["separate", "--n", "3", "--shape", "5,5"],
    ["paths", "--n", "2", "--shape", "2", "--t", "q^2"],
    ["wheel", "--n", "2", "--t", "q^2"],
    ["lambda", "--n", "2", "--t", "-q^1"],
])
def test_shape_and_regime_only_where_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_order_zero_is_accepted(capsys):
    code, out, _ = invoke(capsys, "wheel", "--n", "2", "--order", "0")
    assert code == 0 and out.startswith("w_0 = 1\n")
    code, out, _ = invoke(capsys, "matrix", "--n", "2", "--order", "0")
    assert code == 0 and "rank: " in out


def test_negative_level_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["separate", "--n", "-3"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def test_idempotent_takes_no_regime(capsys):
    # the diagonal is defined generically only; no value of --t is read
    for t in ("q^2", "generic"):
        with pytest.raises(SystemExit) as exc:
            run(["idempotent", "--n", "4", "--shape", "2", "--t", t])
        assert exc.value.code == 2
        assert "--t" in capsys.readouterr().err


def test_closed_pipe_exits_quietly():
    # 370 kB of output: far more than a pipe buffers, so writes hit the
    # closed pipe
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen([sys.executable, "-m", "bmwcenter", "lambda", "--n", "30"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            bufsize=0, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first.startswith(b"(")
    assert err == b""
    assert proc.returncode == 1


def test_output_is_deterministic(capsys):
    first = invoke(capsys, "separate", "--n", "4", "--t", "q^0",
                   "--format", "json")
    second = invoke(capsys, "separate", "--n", "4", "--t", "q^0",
                    "--format", "json")
    assert first == second


def test_matrix_reports_rank(capsys):
    code, out, _ = invoke(capsys, "matrix", "--n", "2", "--t", "q^-1",
                          "--order", "3")
    assert code == 0
    assert "rank: 2" in out


def test_family_command(capsys):
    code, out, _ = invoke(capsys, "family", "--n", "2", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert len(data["representatives"]) == len(enumerate_lambda(2))


# one small job per subcommand, each printed with --format json
JSON_JOBS = [
    ["lambda", "--n", "3"],
    ["paths", "--n", "4", "--shape", "2"],
    ["contents", "--n", "4", "--shape", "2", "--t", "q^2"],
    ["wheel", "--n", "2", "--order", "3"],
    ["signature", "--n", "4", "--shape", "2,1,1", "--t", "-q^3"],
    ["pairs", "--n", "4", "--shape", "1,1,1,1", "--t", "q^2"],
    ["separate", "--n", "4", "--t", "q^0"],
    ["matrix", "--n", "3"],
    ["family", "--n", "2"],
    ["semisimple", "--n", "3", "--t", "q^0"],
    ["blocks", "--n", "3", "--t", "q^-1"],
    ["verify-blocks", "--n", "4", "--t", "q^0"],
    ["idempotent", "--n", "4", "--shape", "2"],
    ["graph", "--n", "3", "--t", "q^2"],
    ["selfcheck", "--n", "3", "--t", "q^2"],
]


def test_json_output_is_the_indent_2_sorted_layout(capsys):
    assert [argv[0] for argv in JSON_JOBS] == list(cli.COMMANDS)
    for argv in JSON_JOBS:
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0, argv
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_emit_lays_out_a_list_item_by_item_after_strings(capsys):
    # the strings before the dict start the one-call join of a list of
    # strings, which fails on the dict; the list is then laid out item by item
    payload = ["a", 'b"\\\n', {"k": [1, True, None, "\xe9"], "a": [], "b": {}},
               "c", (), ("x", "y")]
    cli._emit(payload)
    assert capsys.readouterr().out == json.dumps(payload, indent=2,
                                                 sort_keys=True) + "\n"


def test_parser_is_built_once(capsys, monkeypatch):
    def rebuilt():
        raise AssertionError("the parser is built at import")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    first = invoke(capsys, "signature", "--n", "4", "--shape", "2,2", "--t", "q^2")
    second = invoke(capsys, "signature", "--n", "4", "--shape", "2,2")
    assert first[0] == second[0] == 0
    # each parse starts from the defaults: the second run is generic again
    assert first[1] != second[1]
    assert second == invoke(capsys, "signature", "--n", "4", "--shape", "2,2",
                            "--t", "generic")


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_blocks():
    """The fenced code blocks of README.md, as (language, lines)."""
    blocks, current = [], None
    with open(README, encoding="utf-8") as f:
        for line in f.read().splitlines():
            if line.startswith("```"):
                if current is None:
                    current = (line[3:].strip(), [])
                else:
                    blocks.append(current)
                    current = None
            elif current is not None:
                current[1].append(line)
    return blocks


def test_readme_commands_run(capsys):
    commands = [line.split("#")[0].split()[1:]
                for _, lines in _readme_blocks() for line in lines
                if line.startswith("bmwcenter ")]
    assert len(commands) == 14
    for argv in commands:
        assert run(argv) == 0, argv
        capsys.readouterr()


def test_readme_quick_taste(capsys):
    snippet, = ("\n".join(lines) for lang, lines in _readme_blocks()
                if lang == "python")
    exec(snippet, {})
    assert capsys.readouterr().out == "(1-q^4T)/(1-q^-4T)\n"
