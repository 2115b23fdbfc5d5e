"""Byte-identity pins: the sha256 of each small ``pa`` output.

Every case runs through :func:`simplepa.cli.main` in this process.  A case
that writes a file (``--hrep``, ``--vrep``, ``--dot``, ``--off``) is pinned by
the file's bytes, any other by its stdout; the exit code is pinned too.  A
refactor that changes any of these bytes fails here, so "same outputs" is
checked on every run instead of by hand.
"""

import hashlib
import json
import random

import pytest

from oracles import bracketing_payload, faces_payload, span_class, vrep_payload
from simplepa import classify, cli
from simplepa.brackets import all_bracketings, print_bracketing
from simplepa.cli import main, render_bracketing_record, render_faces, render_vrep
from simplepa.nestedsets import faces

_FILE_FLAGS = ("--hrep", "--vrep", "--dot", "--off")

# (command line, exit code, sha256 of the output)
PINNED = [
    ("generate --n 1 --hrep", 0, "0c9d15cc99edd7ba296dd989ba15c2a2cc698e7a695a808cbc4c97929d86968b"),
    ("generate --n 1 --vrep", 0, "a0f276e0c62268fdb4a3cc02b36e7a17140f0b37a9dfc799400fd6c90657e952"),
    ("graph --n 1 --dot", 0, "f3a170c523dd022554517fa75673315d1524a149d966fcd6458961b5075ae46d"),
    ("faces --n 1 --dim 0", 0, "b8718ab119008530d6556e26008f63eda8339156671e774d396b49d5736f918d"),
    ("faces --n 1 --dim 1", 0, "2e0287f7784b76840d73f20364a14a3e25b5d14d53fab5f907dcec3eda16c6df"),
    ("check --n 1", 0, "33dfc9f262c8aa34945ba0d2bf56145dc0621be0f5ef0f7f4c4476d245227c63"),
    ("generate --n 2 --hrep", 0, "b44a090932daddb17bd78c482d53c7ee10312444778b191638875bc145c3b000"),
    ("generate --n 2 --vrep", 0, "3fab6acdfaa8d821bba73231b01f2c522ca59eee0e0bc519244e9f5181d71e82"),
    ("graph --n 2 --dot", 0, "0f8f77c8c30b34bd4eefc4524996eb9d74f8a074f4770224bb54942d1a582605"),
    ("faces --n 2 --dim 0", 0, "842be44c6cf5effbfde3fafa861ef1a7cb34ed75cdd99e3d367d918704510d45"),
    ("faces --n 2 --dim 1", 0, "fda6484be4e2145a11d6d6e196d7f4a8d47a4590616db88ba6fc55e0b5575a8d"),
    ("faces --n 2 --dim 2", 0, "702746a8504aa54aedbbe19bc635a3e928076c630a577c6087f408ba38352e12"),
    ("check --n 2", 0, "1c99c226f09cb1fb838a2b3cfa0facfd233d215a71cbb406acdd690ceca5f2b7"),
    ("check --n 2 --perturb", 1, "8cae3c0e0a983228b544afd9f8e34157bdd5e504a3d8bd1ea6d5b8da786584f4"),
    ("generate --n 3 --hrep", 0, "b3f7cdf0b582b41d4114f9e76397f3f2d2af95bf6d48cc1405f6a9c146eb9b93"),
    ("generate --n 3 --vrep", 0, "dfbe1a968d0a804ded824675170f6e36649180c35f1aa16d3d61899f013ffe8f"),
    ("graph --n 3 --dot", 0, "0752744be2e131be95d3caff8b0b3993fa3927351e90efda29e21932dabb8f86"),
    ("faces --n 3 --dim 0", 0, "8b07ee3ea271992507897fd0a95c9a1055f7b5ad364593e1813d6ed6f445e0b6"),
    ("faces --n 3 --dim 1", 0, "35d7c89bf0ea5ff0cb5c3c220a075642716f3e16bce3924e6c89d5b6baec7d28"),
    ("faces --n 3 --dim 2", 0, "0222dcf89179415579e2759c7d4ecbed82b4d1ac13884978f71086da115ef240"),
    ("faces --n 3 --dim 3", 0, "1a57be89e083427db9792af85ae61a830ffb0255c2c5eb1e74d750757cd90079"),
    ("check --n 3", 0, "e91ac20e349f002f83393efd07217ae4d5e294e34b14a4ed1825f1901b3b8d15"),
    ("check --n 3 --perturb", 1, "596fc946ca4787e01726b617a0113d51c3dac39cb216ddafb8b84d4e67838930"),
    ("faces --n 2 --dim 2 --classify", 0, "0ba2a8efda0f82c301a0c38b077002837ded60ff4759c3509b0e810cdcf510fb"),
    ("faces --n 3 --dim 2 --classify", 0, "8b52f7a7a0569f7fa13a768c3c1acc5c1aae6fad46dad677014af60c7cdc12cc"),
    ("faces --n 4 --dim 2 --classify", 0, "b06e365a01ec4890162e2ece94f74534ee84ffa8ceb1faf30be9fbb9b48fd887"),
    ("export --n 3 --off", 0, "b99d776f9c5de7b2ed74605c697f822bdf77b1708a9afa462009e319748101ae"),
    ("generate --n 4 --vrep", 0, "98daae8eaaed2d13c104b2f0ca15199d6610f326cb2fb00a66dd230698634e21"),
    ("graph --n 4 --dot", 0, "43bc15738c7cfc8554e9862bfe23768f9f371053fdc3ff8cce331ae1d05643be"),
    ("faces --n 4 --dim 0", 0, "31242133771cb8e569430d37382286ef54e06ba2f5a372a0131497680f7af8ca"),
    ("faces --n 4 --dim 1", 0, "562ac87911c163d34d0c0b3d06913b3b1a117d7f99743855c76628b11d1aa996"),
    ("faces --n 4 --dim 2", 0, "5962b39392b10d413cba84b3c4975a4b4fe56d0aaf16f282c2f50e67e674ffc5"),
    ("faces --n 4 --dim 3", 0, "6d9612266c6b0295a35845d71b9b5b4e047e89db77dab22f322605e6574c1601"),
    ("faces --n 4 --dim 4", 0, "17df947242ade1072142522554cfa100b7ce5357f61b819ec1deb990296c0ff4"),
    ("check --n 4", 0, "ef388ac5b8a0e0f07743c43269f0b3ea2010e3bbf32151767cf5596b955c2d7b"),
    ("check --n 4 --perturb", 1, "efa97d09887ab09061fa9b92b7f1ac3ec36073dc5b19a800ea8762680087d152"),
    ("bracketing --n 3 --parse ((2*3)*(0*1))", 0,
     "b1a66eea01067ba603474db766fcb3466575abbce5b25cd6204a2bcb81506cfd"),
    ("bracketing --n 7 --max-n 7 --parse ((((0*1)*(2*3))*(4*5))*(6*7))", 0,
     "42b703a5ef2d5e43c6596c2ffe15c6cf131db43f9f98daeb436e08101fd14d0e"),
]


@pytest.mark.parametrize(("argv", "code", "digest"), PINNED, ids=[row[0] for row in PINNED])
def test_output_is_byte_identical(argv, code, digest, tmp_path, capsys):
    args = argv.split()
    out = tmp_path / "out"
    if args[-1] in _FILE_FLAGS:
        args.append(str(out))
    assert main(args) == code
    captured = capsys.readouterr()
    data = out.read_bytes() if out.exists() else captured.out.encode()
    assert captured.err == ""
    assert hashlib.sha256(data).hexdigest() == digest


def test_classified_faces_classify_each_face_once(monkeypatch):
    calls = []
    original = classify.classify_2_face

    def counting(f, n):
        calls.append(f)
        return original(f, n)

    # count a classifier bound in cli too, so a second classification pass
    # there would show up as extra calls
    monkeypatch.setattr(classify, "classify_2_face", counting)
    monkeypatch.setattr(cli, "classify_2_face", counting, raising=False)
    # one call per span class of the 2,020 and 64,680 faces (see
    # classify.diagram_census)
    for n, classes in [(4, 30), (5, 140)]:
        calls.clear()
        render_faces(n, 2, True)
        assert len(calls) == classes
        assert len(set(calls)) == len(set(map(span_class, calls))) == classes
    assert len(faces(4, 2)) == 2020


@pytest.fixture
def indented(monkeypatch):
    """The payloads that ``json.dumps`` is asked to lay out with ``indent``:
    that encoder lays text out in pure Python."""
    calls = []
    dumps = json.dumps

    def counting(*args, **kwargs):
        if kwargs.get("indent") is not None:
            calls.append(args[0])
        return dumps(*args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", counting)
    return calls


def test_only_the_document_frame_runs_the_indented_encoder(indented):
    # the records are laid out by hand, so one such call per document, for
    # its frame
    for text, records in [(render_vrep(3), 120), (render_faces(3, 2, True), 62)]:
        indented.clear()
        document = "".join(text)
        assert len(indented) == 1
        assert document.count('"chains": ') == records
    assert indented[0]["count"] == 62


def test_a_lookup_runs_no_indented_encoder(indented, capsys):
    # the pa bracketing record is laid out by hand whole
    text = "((3*(7*0))*(((5*2)*6)*(1*4)))"
    assert main(["bracketing", "--n", "7", "--max-n", "7", "--parse", text]) == 0
    assert indented == []
    assert json.loads(capsys.readouterr().out)["bracketing"] == text


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _assert_same_document(got: str, expected: str) -> None:
    """``got == expected``, compared line by line: a failure names the first
    differing line, where pytest's diff of two documents of megabytes would
    run for minutes."""
    got_lines, expected_lines = got.splitlines(True), expected.splitlines(True)
    for number, (line, want) in enumerate(zip(got_lines, expected_lines), start=1):
        if line != want:
            pytest.fail(f"line {number} differs: got {line!r}, expected {want!r}", pytrace=False)
    if len(got_lines) != len(expected_lines):
        pytest.fail(
            f"{len(got_lines)} lines, expected {len(expected_lines)}; the first "
            f"{min(len(got_lines), len(expected_lines))} agree",
            pytrace=False,
        )


# every face list up to n = 4, then the 2-face census
STREAMED_FACES = [(n, dim, False) for n in range(1, 5) for dim in range(n + 1)] + [
    (n, 2, True) for n in range(2, 5)
]


@pytest.mark.parametrize(
    ("n", "dim", "labelled"),
    STREAMED_FACES,
    ids=[f"n{n}-dim{dim}" + ("-classify" if c else "") for n, dim, c in STREAMED_FACES],
)
def test_streamed_faces_are_the_json_of_the_payload(n, dim, labelled):
    expected = _json(faces_payload(n, dim, labelled))
    _assert_same_document("".join(render_faces(n, dim, labelled)), expected)


def test_a_body_document_lays_out_no_chain(monkeypatch):
    # the body (dim = n) is the one record and holds no chain, so none of
    # the 1,071,276 chains of n = 8 is listed
    def refuse(n):
        raise AssertionError("the chains were listed")

    monkeypatch.setattr(cli, "_enumerate_chains", refuse)
    expected = _json({"n": 8, "dim": 8, "count": 1, "faces": [{"chains": []}]})
    assert "".join(render_faces(8, 8, False)) == expected


@pytest.mark.parametrize("n", range(1, 5))
def test_streamed_vertices_are_the_json_of_the_payload(n):
    _assert_same_document("".join(render_vrep(n)), _json(vrep_payload(n)))


def _random_bracketing(rng: random.Random, n: int) -> str:
    """A uniform permutation of 0..n on a random split tree, printed."""
    labels = rng.sample(range(n + 1), n + 1)

    def build(lo: int, hi: int) -> str:
        if lo == hi:
            return str(labels[lo])
        mid = rng.randrange(lo, hi)
        return f"({build(lo, mid)}*{build(mid + 1, hi)})"

    return build(0, n)


def test_the_lookup_record_is_the_json_of_the_payload():
    # every bracketing up to n = 3, then a seeded sample at n = 7, then one
    # at n = 10 to 12, whose two-digit labels sort as numbers, not as text
    lookups = [(print_bracketing(b), n) for n in range(1, 4) for b in all_bracketings(n)]
    rng = random.Random(7)
    lookups += [(_random_bracketing(rng, 7), 7) for _ in range(300)]
    rng = random.Random(1012)
    lookups += [(_random_bracketing(rng, n), n) for n in (10, 11, 12) for _ in range(30)]
    for text, n in lookups:
        assert render_bracketing_record(text, n) == _json(bracketing_payload(text, n))
