import contextlib
import io
import json
import os
import shutil
import signal
import stat
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bracketings
from simplepa import (
    Hyperplane,
    brackets,
    classify,
    cli,
    geometry,
    print_bracketing,
)
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


def test_every_face_is_classified_before_the_first_byte(monkeypatch, capsys):
    # the n = 4 census spans many writes; a failure at its last classification
    # (one per span class) prints nothing
    original = classify.classify_2_face
    calls = []

    def counting(f, n):
        calls.append(f)
        return original(f, n)

    monkeypatch.setattr(classify, "classify_2_face", counting)
    classify.diagram_census(4)
    last = len(calls)
    assert last > 1
    calls.clear()

    def failing_at_the_last(f, n):
        calls.append(f)
        if len(calls) == last:
            raise RuntimeError("unexpected superficiality profile")
        return original(f, n)

    monkeypatch.setattr(classify, "classify_2_face", failing_at_the_last)
    assert run(["faces", "--n", "4", "--dim", "2", "--classify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pa: internal error: unexpected superficiality profile\n"


def test_faces_classify_needs_dim2(tmp_path, capsys):
    argv = ["faces", "--n", "3", "--dim", "1", "--classify"]
    for destination in ([], ["--out", str(tmp_path / "faces.json")]):
        assert run([*argv, *destination]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pa: --classify") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []  # neither the target nor a .pa-tmp-* file


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["faces", "--n", "3", "--dim", "1"], "--out"),
        (["faces", "--n", "3", "--dim", "2", "--classify"], "--out"),
        (["bracketing", "--n", "3", "--parse", "((2*3)*(0*1))"], "--out"),
        (["check", "--n", "2"], "--report"),
    ],
)
def test_file_output_equals_stdout_output(argv, flag, tmp_path, capsys):
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert run([*argv, flag, str(out)]) == 0
    captured = capsys.readouterr()
    assert out.read_bytes() == stdout.encode()
    assert captured.out == (stdout if flag == "--report" else "")  # check prints its report too
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--n", "1", "--hrep="],
        ["generate", "--n", "1", "--vrep="],
        ["check", "--n", "1", "--report="],
        ["faces", "--n", "1", "--dim", "0", "--out="],
        ["graph", "--n", "1", "--dot="],
        ["bracketing", "--n", "1", "--parse", "0*1", "--out="],
        ["export", "--n", "3", "--off="],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_an_empty_output_path_is_an_io_error(argv, tmp_path, monkeypatch, capsys):
    # refused before any output is computed; a temporary file would go next
    # to the target, so look one directory up too
    def never(*args, **kwargs):
        pytest.fail("an output was computed for an empty path")

    for name in (
        "render_ine", "render_vrep", "realization_report", "render_faces",
        "build_graph", "render_dot", "render_bracketing_record", "render_off",
    ):
        monkeypatch.setattr(cli, name, never)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pa: i/o error: [Errno 2] empty output path: ''\n"
    assert ".pa-tmp-" not in captured.err
    assert list(tmp_path.iterdir()) == [work] and list(work.iterdir()) == []


def test_an_output_in_a_missing_directory_names_the_given_path(tmp_path, capsys):
    target = tmp_path / "nodir" / "x.dot"
    assert run(["graph", "--n", "2", "--dot", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pa: i/o error: [Errno 2] No such file or directory: '{target}'\n"
    assert ".pa-tmp-" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_an_encoding_that_fails_midway_leaves_the_target_as_it_was(tmp_path, monkeypatch, capsys):
    # JSON text in pieces that fails only after more than a 64 KiB batch is out
    cycle = []
    cycle.append(cycle)
    payload = {"a": list(range(10_000)), "b": cycle}
    monkeypatch.setattr(
        cli, "render_faces", lambda *args: json.JSONEncoder(indent=2).iterencode(payload)
    )
    out = tmp_path / "faces.json"
    out.write_text("old")
    assert run(["faces", "--n", "1", "--dim", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "pa: Circular reference detected\n"
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == "old"


def test_census_is_written_in_less_memory_than_its_size(tmp_path, monkeypatch):
    """From the point where the n = 4 census, or the n = 4 vertex list, has
    been computed, writing it to its file never holds the whole output at once."""
    cases = [
        ("render_faces", ["faces", "--n", "4", "--dim", "2", "--classify", "--out"], 1_465_375),
        ("render_vrep", ["generate", "--n", "4", "--vrep"], 2_647_730),
    ]
    for name, argv, size in cases:
        render = getattr(cli, name)

        def render_then_trace(*args, render=render):
            pieces = render(*args)
            tracemalloc.start()
            return pieces

        monkeypatch.setattr(cli, name, render_then_trace)
        out = tmp_path / f"{name}.json"
        try:
            assert run([*argv, str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size == size
        assert peak < size


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


def test_an_output_through_a_symlink_replaces_the_file_it_names(tmp_path):
    fresh = tmp_path / "fresh.dot"
    assert run(["graph", "--n", "1", "--dot", str(fresh)]) == 0
    real = tmp_path / "real.dot"
    real.write_text("old bytes\n")
    link = tmp_path / "link.dot"
    link.symlink_to("real.dot")
    assert run(["graph", "--n", "1", "--dot", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == "real.dot"
    assert real.read_bytes() == fresh.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.dot", "link.dot", "real.dot"]


def test_an_output_into_a_fifo_is_written_in_place(tmp_path):
    fresh = tmp_path / "fresh.dot"
    assert run(["graph", "--n", "2", "--dot", str(fresh)]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # a reader opened first lets the writer open without blocking; the text
    # fits in the pipe's buffer, so the write needs no one reading meanwhile
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(["graph", "--n", "2", "--dot", str(fifo)]) == 0
        assert os.read(reader, 1 << 16) == fresh.read_bytes()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


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
        # argparse drops a "--" value and hands the option an empty list
        ["bracketing", "--n", "1", "--parse=--"],
        ["graph", "--n", "2", "--dot=--"],
        ["check", "--n=--"],
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
    cap = 5 if argv == ["check"] else 6  # the cap that the subcommand's --help names
    assert f"cap {cap}" in err and err.count("\n") == 1
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


def test_max_n_lifts_the_cap_for_check(monkeypatch, capsys):
    # the check must not apply the environment's cap to each vertex it verifies
    monkeypatch.setenv("PA_MAX_N", "2")
    assert run(["check", "--n", "3", "--max-n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


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


def test_export_off_rejected_for_other_n(tmp_path, capsys):
    assert run(["export", "--n", "2", "--off", str(tmp_path / "pa2.off")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n = 3" in captured.err and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # neither the target nor a .pa-tmp-* file


def test_resource_cap_exit_code(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("PA_MAX_N", "2")
    assert run(["generate", "--n", "3", "--vrep", str(tmp_path / "v.json")]) == 2
    assert "cap" in capsys.readouterr().err
    monkeypatch.setenv("PA_MAX_N", "3")
    assert run(["generate", "--n", "3", "--vrep", str(tmp_path / "v.json")]) == 0


def _without_the_first_vertex(module, monkeypatch):
    every = module.enumerate_vertices
    monkeypatch.setattr(module, "enumerate_vertices", lambda n, max_n=None: every(n, max_n)[1:])


@pytest.mark.parametrize("arm", ["singular system", "polytope graph", "boundary cycle"])
def test_a_broken_internal_invariant_exits_2_in_one_line(arm, tmp_path, monkeypatch, capsys):
    out = tmp_path / "pa3.off"
    if arm == "singular system":  # every facet row zero: the vertex cannot be solved
        monkeypatch.setattr(
            geometry, "facet_inequality", lambda chain, n: Hyperplane((0,) * (n + 1), Fraction(1))
        )
        argv = ["bracketing", "--n", "3", "--parse", "((2*3)*(0*1))"]
        message = "no pivot in column 1"
    elif arm == "polytope graph":  # a vertex missing: an edge face with one vertex
        _without_the_first_vertex(geometry, monkeypatch)
        argv = ["check", "--n", "2"]
        message = "edge face shared by 1 vertices, expected 2"
    else:  # a vertex missing: a facet polygon with a gap
        _without_the_first_vertex(classify, monkeypatch)
        argv = ["export", "--n", "3", "--off", str(out)]
        message = "boundary of the face is not a disjoint union of cycles"
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pa: internal error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_check_refuses_n6_by_default_before_enumerating(tmp_path, monkeypatch, capsys):
    # n = 6 passes the enumeration cap (6) but not the full check's (5)
    def refuse(*args, **kwargs):
        raise AssertionError("the check enumerated")

    monkeypatch.delenv("PA_MAX_N", raising=False)
    for module, name in [(geometry, "_enumerate_chains"), (geometry, "enumerate_vertices"),
                         (brackets, "build_graph")]:
        monkeypatch.setattr(module, name, refuse)
    report = tmp_path / "report.json"
    assert run(["check", "--n", "6", "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "pa: n=6 exceeds the enumeration cap 5 of the full check, which measured 76 s and "
        "1,119 MB at n = 6; pass --max-n (max_n from Python) or set PA_MAX_N to override\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_an_interrupt_exits_130_in_one_line_and_leaves_the_target(tmp_path, monkeypatch, capsys):
    def interrupted(*args):  # text in pieces, more than a 64 KiB batch, then Ctrl-C
        yield from ["0123456789abcdef"] * 10_000
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "render_faces", interrupted)
    out = tmp_path / "faces.json"
    out.write_text("old")
    try:
        code = run(["faces", "--n", "1", "--dim", "0", "--out", str(out)])
    except KeyboardInterrupt:  # unhandled, it would end the whole pytest session
        pytest.fail("the interrupt escaped main")
    assert code == 130
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "pa: interrupted\n"
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == "old"


# Runs the console script with a renderer that sends SIGINT to its whole
# process group, as a terminal's Ctrl-C does.
CTRL_C_SCRIPT = """\
import os, signal
from simplepa import cli
cli.render_ine = lambda *args: os.killpg(os.getpgrp(), signal.SIGINT)
cli.script()
"""


def _ctrl_c(tmp_path, argv):
    (tmp_path / "pa_ctrl_c.py").write_text(CTRL_C_SCRIPT)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    return subprocess.run(
        argv, cwd=tmp_path, env=env, capture_output=True, text=True, start_new_session=True,
        timeout=60,
    )


def test_the_console_script_dies_by_sigint_after_an_interrupt(tmp_path):
    out = tmp_path / "pa.ine"
    out.write_text("old")
    result = _ctrl_c(
        tmp_path, [sys.executable, "pa_ctrl_c.py", "generate", "--n", "2", "--hrep", str(out)]
    )
    assert result.returncode == -signal.SIGINT
    assert result.stdout == "" and result.stderr == "pa: interrupted\n"
    assert sorted(tmp_path.iterdir()) == [out, tmp_path / "pa_ctrl_c.py"]
    assert out.read_text() == "old"


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_an_interrupt_stops_a_shell_loop(tmp_path):
    # bash goes on with a loop whose command exited 130, and stops it only
    # when the command died of the SIGINT that bash received too
    loop = 'for n in 1 2; do "$0" pa_ctrl_c.py generate --n "$n" --hrep "pa$n.ine"; echo "$n"; done'
    result = _ctrl_c(tmp_path, ["bash", "-c", loop, sys.executable])
    assert result.returncode == -signal.SIGINT
    assert result.stdout == "" and result.stderr == "pa: interrupted\n"


def test_the_resource_cap_keeps_its_own_message(monkeypatch, capsys):
    # ResourceCapError is a RuntimeError too, and keeps its own line
    monkeypatch.setenv("PA_MAX_N", "2")
    assert run(["check", "--n", "3"]) == 2
    assert capsys.readouterr().err == (
        "pa: n=3 exceeds the enumeration cap 2; pass --max-n (max_n from Python) or set "
        "PA_MAX_N to override\n"
    )


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
