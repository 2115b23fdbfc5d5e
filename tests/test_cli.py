import contextlib
import io
import json
import os
import stat
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bracketings
from simplepa import print_bracketing
from simplepa.cli import main

EXPECTED_INE_N1 = """H-representation
linearity 1 1
begin
3 3 rational
-9 1 1
-3 1 0
-3 0 1
end
"""


def run(args):
    return main(args)


def test_generate_hrep_n1(tmp_path):
    out = tmp_path / "n1.ine"
    assert run(["generate", "--n", "1", "--hrep", str(out)]) == 0
    assert out.read_text() == EXPECTED_INE_N1


def test_generate_hrep_n2_shape(tmp_path):
    out = tmp_path / "n2.ine"
    assert run(["generate", "--n", "2", "--hrep", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "H-representation"
    assert lines[1] == "linearity 1 1"
    assert lines[3] == "13 4 rational"
    assert lines[4] == "-27 1 1 1"
    assert lines[-1] == "end"
    assert len(lines) == 18  # 4 header lines + 13 rows + end


def test_generate_vrep_n1(tmp_path):
    out = tmp_path / "n1.json"
    assert run(["generate", "--n", "1", "--vrep", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["count"] == 2
    coords = {v["bracketing"]: v["coordinates"] for v in data["vertices"]}
    assert coords == {"(0*1)": ["6", "3"], "(1*0)": ["3", "6"]}


def test_generate_vrep_n3_carries_bracketings(tmp_path):
    out = tmp_path / "n3.json"
    assert run(["generate", "--n", "3", "--vrep", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["count"] == 120
    assert all(v["bracketing"] for v in data["vertices"])
    strings = [v["bracketing"] for v in data["vertices"]]
    assert strings == sorted(strings)


def test_generate_requires_an_output(capsys):
    assert run(["generate", "--n", "2"]) == 2
    assert "hrep" in capsys.readouterr().err


def test_check_success(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert run(["check", "--n", "2", "--report", str(report_path)]) == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["ok"] is True
    report = json.loads(report_path.read_text())
    assert report["f_vector"] == [12, 12]
    assert report["vertex_count"] == 12


def test_check_perturbed_fails(capsys):
    assert run(["check", "--n", "2", "--perturb"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["failures"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_check_perturbed_fails_from_n2(n, capsys):
    assert run(["check", "--n", str(n), "--perturb"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["check", "--n", "1", "--perturb"], "perturb needs n >= 2"),
        (["faces", "--n", "0", "--dim", "0"], "n must be at least 1, got 0"),
    ],
)
def test_degenerate_n_is_refused_in_one_stderr_line(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"pa: {message}") and captured.err.count("\n") == 1


def test_faces_census(tmp_path):
    out = tmp_path / "faces.json"
    assert run(["faces", "--n", "3", "--dim", "2", "--classify", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["count"] == 62
    assert data["census"] == {"pentagon": 24, "quad8": 24, "octagon": 6, "dodecagon": 8}
    assert data["body_faces"] == 0
    assert all("type" in entry for entry in data["faces"])


def test_faces_classify_needs_dim2(capsys):
    assert run(["faces", "--n", "3", "--dim", "1", "--classify"]) == 2


def test_graph_dot_n2(tmp_path):
    out = tmp_path / "g.dot"
    assert run(["graph", "--n", "2", "--dot", str(out)]) == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "graph rewrite {"
    assert lines[-1] == "}"
    assert sum(1 for line in lines if "label=" in line) == 12
    edges = [line for line in lines if " -- " in line]
    assert len(edges) == 12
    assert all('kind="alpha"' in e or 'kind="sigma"' in e for e in edges)
    assert sum(1 for e in edges if 'kind="sigma"' in e) == 6


def test_bracketing_record(capsys):
    assert run(["bracketing", "--n", "3", "--parse", "((2*3)*(0*1))"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["bracketing"] == "((2*3)*(0*1))"
    assert record["permutation"] == [2, 3, 0, 1]
    assert len(record["coordinates"]) == 4
    # the pentagon facet covering the 2301 corner is among the tight facets
    assert {"core": [1], "ext": [3, 0], "sets": [[0, 1, 3], [0, 1], [1]]} in record["tight"]


def test_bracketing_parse_error(capsys):
    # the second input nests far deeper than any tree over 0..1; the last two
    # hold non-ASCII digits
    cases = (("3", "((2*3)*(0*1)"), ("1", "(" * 3000), ("3", "((٢*٣)*(٠*١))"), ("1", "(0*1²)"))
    for n, text in cases:
        assert run(["bracketing", "--n", n, "--parse", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pa: parse error: ") and "position" in err and err.count("\n") == 1


def test_bracketing_nested_beyond_the_stack_exits_2(capsys):
    # a left comb over 0..n with n above the recursion limit: valid, but too
    # deep for the recursive parser
    n = 2 * sys.getrecursionlimit()
    text = "(" * n + "0" + "".join(f"*{i})" for i in range(1, n + 1))
    assert run(["bracketing", "--n", str(n), "--max-n", str(n), "--parse", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pa: maximum recursion depth") and captured.err.count("\n") == 1


_PARSE_ALPHABET = "()*·0123456789 \n-x٢²"


@st.composite
def _edited_bracketings(draw):
    """A printed bracketing and its n, with a few characters deleted,
    replaced or inserted."""
    b = draw(bracketings())
    text = list(print_bracketing(b))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("delete", "replace", "insert")))
        if edit == "insert" or at == len(text):
            text.insert(at, draw(st.sampled_from(_PARSE_ALPHABET)))
        elif edit == "replace":
            text[at] = draw(st.sampled_from(_PARSE_ALPHABET))
        else:
            del text[at]
    return b.n, "".join(text)


@settings(max_examples=300, deadline=None)
@given(_edited_bracketings() | st.tuples(st.integers(1, 7), st.text(_PARSE_ALPHABET, max_size=40)))
def test_fuzzed_parse_exits_0_or_2_with_one_error_line(case):
    n, text = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["bracketing", "--n", str(n), f"--parse={text}"])
    assert code in (0, 2)
    if code == 0:
        assert json.loads(out.getvalue())["n"] == n and err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("pa: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],
        ["bogus"],
        [],
        ["check", "--n", "two"],
        ["faces", "--n", "3"],
    ],
)
def test_usage_errors_take_one_stderr_line(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pa: ") and captured.err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["check", "--help"])
    assert exit_info.value.code == 0
    assert "--perturb" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--hrep", "unused.ine"],
        ["check"],
        ["faces", "--dim", "0"],
        ["graph", "--dot", "unused.dot"],
        ["bracketing", "--parse", "(0*1)"],
        ["export", "--off", "unused.off"],
    ],
)
def test_every_subcommand_refuses_n_above_the_cap(argv, monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PA_MAX_N", raising=False)
    assert run([*argv, "--n", "7"]) == 2
    err = capsys.readouterr().err
    assert "cap 6" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_max_n_lifts_the_cap_for_bracketing_and_hrep(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("PA_MAX_N", "2")
    out = tmp_path / "n3.ine"
    assert run(["bracketing", "--n", "3", "--parse", "((2*3)*(0*1))"]) == 2
    assert run(["generate", "--n", "3", "--hrep", str(out)]) == 2
    assert "cap 2" in capsys.readouterr().err
    assert run(["bracketing", "--n", "3", "--max-n", "3", "--parse", "((2*3)*(0*1))"]) == 0
    assert run(["generate", "--n", "3", "--max-n", "3", "--hrep", str(out)]) == 0
    assert out.read_text().splitlines()[3] == "63 5 rational"  # 62 facets plus the ambient row


def test_export_off_n3(tmp_path):
    out = tmp_path / "pa3.off"
    assert run(["export", "--n", "3", "--off", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "120 62 180"
    assert len(lines) == 2 + 120 + 62
    for line in lines[2:122]:
        assert len(line.split()) == 3
    for line in lines[122:]:
        cells = line.split()
        count = int(cells[0])
        indices = [int(x) for x in cells[1:]]
        assert count in (4, 5, 8, 12)
        assert len(indices) == count
        assert len(set(indices)) == count
        assert all(0 <= i < 120 for i in indices)
    # every edge of the mesh is shared by exactly two polygons
    edge_uses = {}
    for line in lines[122:]:
        indices = [int(x) for x in line.split()[1:]]
        for a, b in zip(indices, indices[1:] + indices[:1]):
            edge_uses[frozenset((a, b))] = edge_uses.get(frozenset((a, b)), 0) + 1
    assert len(edge_uses) == 180
    assert all(count == 2 for count in edge_uses.values())


def test_export_off_rejected_for_other_n(capsys):
    assert run(["export", "--n", "2", "--off", "unused.off"]) == 2
    assert "n = 3" in capsys.readouterr().err


def test_resource_cap_exit_code(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("PA_MAX_N", "2")
    assert run(["generate", "--n", "3", "--vrep", str(tmp_path / "v.json")]) == 2
    assert "cap" in capsys.readouterr().err
    monkeypatch.setenv("PA_MAX_N", "3")
    assert run(["generate", "--n", "3", "--vrep", str(tmp_path / "v.json")]) == 0


def test_identical_runs_are_byte_identical(tmp_path):
    first = tmp_path / "a.ine"
    second = tmp_path / "b.ine"
    run(["generate", "--n", "2", "--hrep", str(first)])
    run(["generate", "--n", "2", "--hrep", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_written_files_get_the_mode_of_a_plain_write(tmp_path):
    previous = os.umask(0o022)
    try:
        plain = tmp_path / "plain.ine"
        with open(plain, "w"):
            pass
        out = tmp_path / "pa.ine"
        assert run(["generate", "--n", "2", "--hrep", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == 0o644
        # an existing file keeps its mode, as open(path, "w") would leave it
        out.chmod(0o640)
        assert run(["generate", "--n", "2", "--hrep", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
    finally:
        os.umask(previous)


def test_resource_cap_rejects_bad_settings(monkeypatch, capsys):
    for value in ("abc", "0", "-1"):
        monkeypatch.setenv("PA_MAX_N", value)
        assert run(["check", "--n", "2"]) == 2
        err = capsys.readouterr().err
        assert "PA_MAX_N" in err and err.count("\n") == 1
    monkeypatch.delenv("PA_MAX_N")
    for value in ("0", "-2"):
        assert run(["bracketing", "--n", "2", "--max-n", value, "--parse", "(0*(1*2))"]) == 2
        err = capsys.readouterr().err
        assert "max_n" in err and err.count("\n") == 1


def test_repeated_main_calls_match_fresh_processes(capsys):
    calls = [
        ["bracketing", "--n", "3", "--parse", "((2*3)*(0*1))"],
        ["bracketing", "--n", "3", "--parse", "((2*3)*(0*1)"],
        ["check", "--n", "2"],
    ]
    in_process = []
    for argv in calls:
        code = run(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [0, 2, 0]
    for argv, seen in zip(calls, in_process):
        alone = subprocess.run(
            [sys.executable, "-m", "simplepa.cli", *argv], capture_output=True, text=True
        )
        assert seen == (alone.returncode, alone.stdout, alone.stderr)
