"""Command-line front end: generate, check, faces, graph, bracketing, export.

All outputs are deterministic: canonical chain and bracketing order, exact
rationals ("p/q", or "p" when the denominator is 1).  Each output is
computed whole (every face, type and vertex solve that can fail is done
before the first byte), then streamed to stdout or to an atomically written
file; the JSON face and vertex lists are joined piece by piece as they are
written, so their text is never held whole.  Exit codes: 0 success, 1 a
failed verification, 2 a usage or I/O error or a broken internal invariant,
130 an interrupt (Ctrl-C): :func:`main` returns it, and the console script
then ends by SIGINT, which a shell reports as 130.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import signal
import stat
import sys
import tempfile
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import TextIO

from .brackets import (
    BracketSyntaxError,
    RewriteGraph,
    _shape_formats,
    all_bracketings,
    build_graph,
    parse_bracketing,
    print_bracketing,
    to_nested,
)
from .classify import boundary_cycle, diagram_census
from .geometry import (
    ScaledPoint,
    SingularSystemError,
    _back_substitute,
    h_representation,
    normalization_map,
    realization_report,
    vertex_coordinates,
)
from .limits import CHECK_MAX_N, CHECK_WHY, DEFAULT_MAX_N, ResourceCapError, check_cap
from .nestedsets import Chain, _enumerate_chains, faces, vertex_keys

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130


def _plain_write_mode(path: str) -> int:
    """The mode ``open(path, "w")`` leaves: the file's own, else 0666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _write_atomic(path: str, write: Callable[[TextIO], None]) -> None:
    mode = stat.S_IFREG  # a path that does not exist yet becomes a regular file
    with suppress(FileNotFoundError):
        mode = os.stat(path).st_mode
    if not stat.S_ISREG(mode):  # a FIFO or a device: nothing can be renamed over it
        with open(path, "w", encoding="utf-8") as handle:
            write(handle)
        return
    target = os.path.realpath(path)  # a symlink keeps naming the file it named
    directory = os.path.dirname(target)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pa-tmp-")
    except OSError as exc:  # name the user's path, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            write(handle)
        os.chmod(tmp, _plain_write_mode(target))  # mkstemp made it 0600
        os.replace(tmp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _batched(pieces: Iterable[str], size: int = 1 << 16) -> Iterator[str]:
    """Join text pieces into writes of at least ``size`` characters (the
    last one shorter): under ``python -u`` each write is a syscall."""
    batch, length = [], 0
    for piece in pieces:
        batch.append(piece)
        length += len(piece)
        if length >= size:
            yield "".join(batch)
            batch, length = [], 0
    yield "".join(batch)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(path: str | None, content: str | Iterable[str]) -> None:
    """Stream text to ``path`` atomically; ``None`` is stdout.  ``content`` is
    the whole text or the text in pieces, which are joined only as they are
    written, so the text is never held whole."""
    pieces = _batched([content] if isinstance(content, str) else content)
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        _write_atomic(path, lambda handle: handle.writelines(pieces))


# ---------------------------------------------------------------------------
# JSON text in pieces
#
# The face and vertex lists repeat the same few thousand chain records
# (2,102 at n = 5) in every entry, and ``json`` lays out indented text in
# pure Python.  So each chain record is laid out once, by hand, at the
# depth where it sits, and the documents are joined around those
# fragments, laid out as ``json.dumps(payload, indent=2, sort_keys=True)``
# would lay them out.  ``tests/oracles.py`` keeps the dict payloads that
# the tests compare this text with.
#
# A record is its chain ranks plus the text of its other fields, laid out
# by hand around ``"chains"``, where they sort.  A face list lays out that
# text once per face type (six types and the body: 64,680 census records
# at n = 5), so a face record is one join over its ranks' chain fragments;
# no face record is encoded, built as a dict or sorted.  The vertex list
# lays out each record's fields (bracketing, coordinates, permutation) as
# it comes and keeps none, so no cache grows with the document.  The
# document frame around a record list goes through ``json``'s indented
# encoder, once; the ``pa bracketing`` record is laid out by hand whole,
# so the ``pa check`` report is the only document that ``json`` lays out.

def _list(items: Iterable[str], depth: int) -> Iterator[str]:
    """A JSON list ``depth`` levels deep, of items already laid out one level
    deeper, in pieces: each item after its separator, then the closing
    bracket.  An item is not copied to prefix its separator."""
    pad = "\n" + "  " * (depth + 1)
    opening = "[" + pad
    separator = opening
    for item in items:
        yield separator
        yield item
        separator = "," + pad
    yield "[]" if separator is opening else "\n" + "  " * depth + "]"


def _joined(items: Sequence[str], depth: int) -> str:
    """:func:`_list` as one string, in one join: for a list held whole."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return f"[{pad}{(',' + pad).join(items)}\n{'  ' * depth}]"


def _ints(values: Sequence[int], depth: int) -> str:
    """A list of ints ``depth`` levels deep, laid out as ``json`` would."""
    return _joined(list(map(str, values)), depth)


def _coordinates(texts: Iterable[str], depth: int) -> str:
    """A point's coordinates, each as "p/q" text or "p" when q is 1, laid out
    as a JSON list of strings ``depth`` levels deep.  Such text needs no
    escaping, so it is quoted by hand."""
    return _joined([f'"{text}"' for text in texts], depth)


def _scaled_texts(point: ScaledPoint) -> Iterator[str]:
    """The coordinates X/d of a point (X, d), in lowest terms as ``str`` of a
    ``Fraction`` gives them, by one ``gcd`` each: no ``Fraction`` is built."""
    scaled, d = point
    for x in scaled:
        g = gcd(x, d)
        yield str(x // g) if g == d else f"{x // g}/{d // g}"


def _chain_text(chain: Chain, depth: int) -> str:
    """A chain's record (core, ext and every set, largest first, each
    sorted) laid out ``depth`` levels deep, by hand, as ``json.dumps(...,
    indent=2, sort_keys=True)`` would lay out ``tests/oracles.py``'s
    ``chain_record(chain)``.  The top set is sorted once, into a table of
    label strings, and each next set is that table less the next ext
    label; the last set is the core."""
    pad = "\n" + "  " * (depth + 1)  # before a field and the closing brackets
    item = "," + pad + "  "  # between the labels of core or ext
    label = item + "  "  # between the labels of one set
    ext = list(map(str, chain.ext))
    labels = list(map(str, sorted(chain.core.union(chain.ext))))
    sets = []
    for text in ext:
        sets.append(label.join(labels))
        labels.remove(text)
    sets.append(label.join(labels))
    opening, closing = "[" + label[1:], pad + "  ]"  # around each set
    return (
        f'{{{pad}"core": [{item[1:]}{item.join(labels)}{pad}],'
        f'{pad}"ext": {f"[{item[1:]}{item.join(ext)}{pad}]" if ext else "[]"},'
        f'{pad}"sets": [{item[1:]}{opening}{(closing + item + opening).join(sets)}{closing}{pad}]'
        f'\n{"  " * depth}}}'
    )


def _records(n: int, rows: Iterable[tuple[Sequence[int], str, str]]) -> Iterator[str]:
    """The face or vertex records of a document, two levels deep.  Each row
    is the ranks of the record's chains in :func:`enumerate_chains` and the
    text of its other fields, three levels deep: the lines of those that
    sort before ``"chains"``, each with its comma and newline, and the
    lines of those that sort after it, each after a comma and newline.  Every
    chain record is laid out here, before the first row that holds a chain
    is joined; a document of empty rows (the body alone) lays out none."""
    chains = None
    separator = ",\n" + "  " * 4
    for ranks, before, after in rows:
        if ranks:
            if chains is None:
                chains = [_chain_text(c, 4) for c in _enumerate_chains(n)]
            joined = separator.join(map(chains.__getitem__, ranks))
            yield f'{{\n{before}      "chains": [\n        {joined}\n      ]{after}\n    }}'
        else:
            yield f'{{\n{before}      "chains": []{after}\n    }}'


def _document(fields: dict, key: str, records: Iterable[str]) -> Iterator[str]:
    """``json.dumps({**fields, key: [...]}, indent=2, sort_keys=True)`` and a
    newline, in pieces: ``fields`` are plain values, and the list under
    ``key`` is ``records``, joined one by one as the pieces are taken."""
    frame, slot = _json({**fields, key: None}), json.dumps(key) + ": null"
    if frame.count(slot) != 1:
        raise RuntimeError(f"the document frame does not hold {slot} exactly once")
    before, after = frame.split(slot)
    yield before + json.dumps(key) + ": "
    yield from _list(records, 1)
    yield after


# ---------------------------------------------------------------------------
# renderers

def render_ine(n: int, max_n: int | None = None) -> str:
    """cdd-style .ine text: the ambient equality first (declared through the
    linearity row), then one facet row per chain in canonical order.  Each
    row is (-rhs, coefficients), meaning -rhs + a.x >= 0."""
    ambient, facets = h_representation(n, max_n)
    lines = [
        "H-representation",
        "linearity 1 1",
        "begin",
        f"{len(facets) + 1} {n + 2} rational",
    ]
    for h in (ambient, *facets):
        cells = [str(-h.rhs)] + [str(c) for c in h.coeffs]
        lines.append(" ".join(cells))
    lines.append("end")
    return "\n".join(lines) + "\n"


def render_vrep(n: int, max_n: int | None = None) -> Iterator[str]:
    """The ``pa generate --vrep`` JSON text, in pieces.  Every vertex is
    solved from its own bracketing, with no key to check, before this
    returns; only the joins are left to the pieces."""
    rows = []
    bracketings = all_bracketings(n, max_n=max_n)
    formats = _shape_formats(n)  # print_bracketing, one template per tree shape
    for b, v in zip(bracketings, vertex_keys(bracketings, n, max_n)):
        coordinates = _coordinates(_scaled_texts(_back_substitute(b.perm, b.spans, n)), 3)
        rows.append((
            v,
            f'      "bracketing": {json.dumps(formats[b.spans](*b.perm))},\n',
            f',\n      "coordinates": {coordinates},\n      "permutation": {_ints(b.perm, 3)}',
        ))
    return _document({"n": n, "count": len(rows)}, "vertices", _records(n, rows))


def render_dot(graph: RewriteGraph) -> str:
    lines = ["graph rewrite {"]
    for i, b in enumerate(graph.vertices):
        lines.append(f'  {i} [label="{print_bracketing(b)}"];')
    for i, j, kind in sorted(graph.edges):
        lines.append(f'  {i} -- {j} [kind="{kind}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_faces(n: int, dim: int, classify: bool, max_n: int | None = None) -> Iterator[str]:
    """The ``pa faces`` JSON text, in pieces.  Every face is found, and
    classified, before this returns; only the joins are left to the pieces."""
    fields: dict = {"n": n, "dim": dim}
    if classify:
        if dim != 2:
            raise ValueError("--classify only applies to --dim 2")
        census = diagram_census(n, max_n=max_n)
        text = {kind: ("", ',\n      "type": ' + json.dumps(kind.value)) for kind in census.counts}
        text[None] = ("", "")
        rows = ((key, *text[kind]) for key, kind in census.faces)
        fields["count"] = len(census.faces)
        fields["census"] = {kind.value: count for kind, count in census.counts.items()}
        fields["body_faces"] = census.body_faces
    else:
        keys = faces(n, dim, max_n=max_n)
        rows = ((key, "", "") for key in keys)
        fields["count"] = len(keys)
    return _document(fields, "faces", _records(n, rows))


def render_bracketing_record(text: str, n: int) -> str:
    """The ``pa bracketing`` JSON text: the bracketing as printed, the exact
    point of its vertex, n, the permutation and the vertex's tight chains,
    laid out by hand as ``json.dumps(..., indent=2, sort_keys=True)`` and a
    newline would lay out ``tests/oracles.py``'s ``bracketing_payload``."""
    b = parse_bracketing(text, n)
    v = to_nested(b)
    coordinates = _coordinates(map(str, vertex_coordinates(v, n)), 1)
    # by sort key, not by rank: the rank table holds every chain, and at
    # n = 7 building it takes about 1 s and lifts peak RSS 16 -> 86 MB
    tight = _joined([_chain_text(c, 2) for c in sorted(v, key=Chain.sort_key)], 1)
    return (
        f'{{\n  "bracketing": {json.dumps(print_bracketing(b))},'
        f'\n  "coordinates": {coordinates},'
        f'\n  "n": {n},'
        f'\n  "permutation": {_ints(b.perm, 1)},'
        f'\n  "tight": {tight}\n}}\n'
    )


def render_off(n: int, max_n: int | None = None) -> str:
    """OFF mesh of the 3-dimensional polytope: vertices in normalized
    3-space coordinates, one polygon per facet in boundary-cycle order."""
    if n != 3:
        raise ValueError("OFF export is only defined for n = 3")
    chart = normalization_map(n)
    bracketings = all_bracketings(n, max_n=max_n)
    index = {v: i for i, v in enumerate(vertex_keys(bracketings, n, max_n))}
    facets = range(len(_enumerate_chains(n)))  # one facet per chain rank
    polygons = [boundary_cycle((rank,), n, max_n=max_n) for rank in facets]
    # the header counts what follows; each edge is a side of two polygons
    lines = ["OFF", f"{len(index)} {len(polygons)} {sum(map(len, polygons)) // 2}"]
    for b in bracketings:  # in the order of ``index``
        scaled, d = _back_substitute(b.perm, b.spans, n)
        image = chart.apply([Fraction(x, d) for x in scaled])
        lines.append(" ".join(f"{float(x):.17g}" for x in image))
    for cycle in polygons:
        lines.append(" ".join([str(len(cycle))] + [str(index[v]) for v in cycle]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_generate(args) -> int:
    if args.hrep is None and args.vrep is None:
        raise UsageError("generate needs --hrep and/or --vrep")
    if args.hrep is not None:
        _emit(args.hrep, render_ine(args.n, args.max_n))
    if args.vrep is not None:
        _emit(args.vrep, render_vrep(args.n, args.max_n))
    return EXIT_OK


def _cmd_check(args) -> int:
    report = realization_report(args.n, perturb=args.perturb, max_n=args.max_n)
    text = _json(report)
    if args.report is not None:
        _emit(args.report, text)
    _emit(None, text)
    return EXIT_OK if report["ok"] else EXIT_VERIFICATION


def _cmd_faces(args) -> int:
    _emit(args.out, render_faces(args.n, args.dim, args.classify, args.max_n))
    return EXIT_OK


def _cmd_graph(args) -> int:
    _emit(args.dot, render_dot(build_graph(args.n, max_n=args.max_n)))
    return EXIT_OK


def _cmd_bracketing(args) -> int:
    _emit(args.out, render_bracketing_record(args.parse, args.n))
    return EXIT_OK


def _cmd_export(args) -> int:
    _emit(args.off, render_off(args.n, args.max_n))
    return EXIT_OK


class UsageError(ValueError):
    pass


def _output_path(path: str) -> str:
    """An output path; the empty one fails as the command line is read."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, "empty output path", path)
    return path


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a :class:`UsageError`: one stderr line."""

    def error(self, message):
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        # argparse drops a "--" value, as in --parse=--, and sets an empty list
        for name, value in vars(parsed).items():
            if value == []:
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return parsed


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pa",
        description="Construct, verify and export simple permutoassociahedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cap=DEFAULT_MAX_N, why=""):
        p.add_argument("--n", type=int, required=True, help="dimension of the polytope")
        p.add_argument(
            "--max-n",
            type=int,
            default=None,
            help=f"override the enumeration cap (default {cap}, or PA_MAX_N)",
        )
        p.set_defaults(cap=cap, cap_why=why)

    p = sub.add_parser("generate", help="write the H- and/or V-representation")
    common(p)
    p.add_argument("--hrep", metavar="PATH", type=_output_path, help="write a cdd-style .ine file")
    p.add_argument("--vrep", metavar="PATH", type=_output_path, help="write the vertices as JSON")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("check", help="run the full verification suite")
    common(p, CHECK_MAX_N, CHECK_WHY)
    p.add_argument(
        "--report", metavar="PATH", type=_output_path, help="also write the JSON report here"
    )
    p.add_argument(
        "--perturb",
        action="store_true",
        help="negative control: corrupt one facet bound before checking",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("faces", help="list faces of one dimension as JSON")
    common(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--classify", action="store_true", help="attach 2-face diagram types")
    p.add_argument("--out", metavar="PATH", type=_output_path)
    p.set_defaults(func=_cmd_faces)

    p = sub.add_parser("graph", help="write the rewrite graph as DOT")
    common(p)
    p.add_argument("--dot", metavar="PATH", type=_output_path, required=True)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("bracketing", help="parse a bracketing and look up its vertex")
    common(p)
    p.add_argument("--parse", metavar="TEXT", required=True)
    p.add_argument("--out", metavar="PATH", type=_output_path)
    p.set_defaults(func=_cmd_bracketing)

    p = sub.add_parser("export", help="write the n=3 polytope as an OFF mesh")
    common(p)
    p.add_argument("--off", metavar="PATH", type=_output_path, required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        check_cap(args.n, args.max_n, args.cap, args.cap_why)  # each subcommand's own cap
        return args.func(args)
    except BracketSyntaxError as exc:
        print(f"pa: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ResourceCapError) as exc:
        print(f"pa: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"pa: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularSystemError, RuntimeError) as exc:  # after ResourceCapError, a RuntimeError
        print(f"pa: internal error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("pa: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def script() -> None:
    """The ``pa`` console script: exit with :func:`main`'s code, except that
    after an interrupt the process ends itself by SIGINT, as Python does with
    an uncaught ``KeyboardInterrupt``, so a shell running it stops its loop."""
    code = main()
    if code == EXIT_INTERRUPTED:
        for stream in (sys.stdout, sys.stderr):
            with suppress(OSError):
                stream.flush()
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
    raise SystemExit(code)


if __name__ == "__main__":
    script()
