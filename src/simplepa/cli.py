"""Command-line front end: generate, check, faces, graph, bracketing, export.

All outputs are deterministic: canonical chain and bracketing order, exact
rationals ("p/q", or "p" when the denominator is 1).  Each output is built
whole, then streamed to stdout or to an atomically written file.  Exit
codes: 0 success, 1 a failed verification, 2 a usage or I/O error or a
broken internal invariant, 130 an interrupt (Ctrl-C): :func:`main` returns
it, and the console script then ends by SIGINT, which a shell reports as 130.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import os
import signal
import stat
import sys
import tempfile
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from typing import Callable, TextIO

from .brackets import (
    BracketSyntaxError,
    RewriteGraph,
    all_bracketings,
    build_graph,
    parse_bracketing,
    print_bracketing,
    to_nested,
)
from .classify import boundary_cycle, diagram_census
from .geometry import (
    SingularSystemError,
    f_vector,
    h_representation,
    normalization_map,
    realization_report,
    vertex_coordinates,
)
from .limits import CHECK_MAX_N, DEFAULT_MAX_N, ResourceCapError, check_cap
from .nestedsets import Chain, enumerate_chains, faces, nested_key

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130


def _fmt_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _chain_record(chain: Chain) -> dict:
    return {
        "core": sorted(chain.core),
        "ext": list(chain.ext),
        "sets": [sorted(s) for s in chain.sets()],
    }


def _plain_write_mode(path: str) -> int:
    """The mode ``open(path, "w")`` leaves: the file's own, else 0666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _write_atomic(path: str, write: Callable[[TextIO], None]) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pa-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            write(handle)
        os.chmod(tmp, _plain_write_mode(path))  # mkstemp made it 0600
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _emit(path: str | None, content: str | dict) -> None:
    """Stream text, or a JSON payload, to ``path`` atomically; ``None`` is stdout.
    JSON goes 4096 tokens a write: under ``python -u`` each write is a syscall."""
    if isinstance(content, str):
        pieces = [content]
    else:
        encoded = json.JSONEncoder(indent=2, sort_keys=True).iterencode(content)
        tokens = itertools.chain(encoded, ["\n"])
        pieces = iter(lambda: "".join(itertools.islice(tokens, 4096)), "")
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        _write_atomic(path, lambda handle: handle.writelines(pieces))


# ---------------------------------------------------------------------------
# renderers

def render_ine(n: int) -> str:
    """cdd-style .ine text: the ambient equality first (declared through the
    linearity row), then one facet row per chain in canonical order.  Each
    row is (-rhs, coefficients), meaning -rhs + a.x >= 0."""
    ambient, facets = h_representation(n)
    lines = [
        "H-representation",
        "linearity 1 1",
        "begin",
        f"{len(facets) + 1} {n + 2} rational",
    ]
    for h in (ambient, *facets):
        cells = [_fmt_rational(-h.rhs)] + [str(c) for c in h.coeffs]
        lines.append(" ".join(cells))
    lines.append("end")
    return "\n".join(lines) + "\n"


def render_vrep(n: int, max_n: int | None = None) -> dict:
    records = []
    for b in all_bracketings(n, max_n=max_n):
        v = to_nested(b)
        records.append({
            "bracketing": print_bracketing(b),
            "permutation": list(b.perm),
            "coordinates": [_fmt_rational(x) for x in vertex_coordinates(v, n)],
            "chains": [_chain_record(c) for c in sorted(v, key=Chain.sort_key)],
        })
    return {"n": n, "count": len(records), "vertices": records}


def render_dot(graph: RewriteGraph) -> str:
    lines = ["graph rewrite {"]
    for i, b in enumerate(graph.vertices):
        lines.append(f'  {i} [label="{print_bracketing(b)}"];')
    for i, j, kind in sorted(graph.edges):
        lines.append(f'  {i} -- {j} [kind="{kind}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_faces(n: int, dim: int, classify: bool, max_n: int | None = None) -> dict:
    if classify:
        if dim != 2:
            raise ValueError("--classify only applies to --dim 2")
        census = diagram_census(n, max_n=max_n)
        labelled = census.faces
    else:
        labelled = [(f, None) for f in sorted(faces(n, dim, max_n=max_n), key=nested_key)]
    records = {c: _chain_record(c) for c in enumerate_chains(n)}
    entries = []
    for f, kind in labelled:
        entry: dict = {"chains": [records[c] for c in sorted(f, key=Chain.sort_key)]}
        if kind is not None:
            entry["type"] = kind.value
        entries.append(entry)
    payload = {"n": n, "dim": dim, "count": len(entries), "faces": entries}
    if classify:
        payload["census"] = {kind.value: count for kind, count in sorted(census.counts.items())}
        payload["body_faces"] = census.body_faces
    return payload


def render_bracketing_record(text: str, n: int) -> dict:
    b = parse_bracketing(text, n)
    v = to_nested(b)
    return {
        "n": n,
        "bracketing": print_bracketing(b),
        "permutation": list(b.perm),
        "coordinates": [_fmt_rational(x) for x in vertex_coordinates(v, n)],
        "tight": [_chain_record(c) for c in sorted(v, key=Chain.sort_key)],
    }


def render_off(n: int, max_n: int | None = None) -> str:
    """OFF mesh of the 3-dimensional polytope: vertices in normalized
    3-space coordinates, one polygon per facet in boundary-cycle order."""
    if n != 3:
        raise ValueError("OFF export is only defined for n = 3")
    chart = normalization_map(n)
    order = [to_nested(b) for b in all_bracketings(n, max_n=max_n)]
    index = {v: i for i, v in enumerate(order)}
    fv = f_vector(n, max_n=max_n)
    lines = ["OFF", f"{fv[0]} {fv[2]} {fv[1]}"]
    for v in order:
        image = chart.apply(vertex_coordinates(v, n))
        lines.append(" ".join(f"{float(x):.17g}" for x in image))
    for chain in enumerate_chains(n):
        cycle = boundary_cycle(frozenset([chain]), n, max_n=max_n)
        lines.append(" ".join([str(len(cycle))] + [str(index[v]) for v in cycle]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_generate(args) -> int:
    if args.hrep is None and args.vrep is None:
        raise UsageError("generate needs --hrep and/or --vrep")
    if args.hrep is not None:
        _emit(args.hrep, render_ine(args.n))
    if args.vrep is not None:
        _emit(args.vrep, render_vrep(args.n, args.max_n))
    return EXIT_OK


def _cmd_check(args) -> int:
    report = realization_report(args.n, perturb=args.perturb, max_n=args.max_n)
    if args.report is not None:
        _emit(args.report, report)
    _emit(None, report)
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


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pa",
        description="Construct, verify and export simple permutoassociahedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cap=DEFAULT_MAX_N):
        p.add_argument("--n", type=int, required=True, help="dimension of the polytope")
        p.add_argument(
            "--max-n",
            type=int,
            default=None,
            help=f"override the enumeration cap (default {cap}, or PA_MAX_N)",
        )

    p = sub.add_parser("generate", help="write the H- and/or V-representation")
    common(p)
    p.add_argument("--hrep", metavar="PATH", type=_output_path, help="write a cdd-style .ine file")
    p.add_argument("--vrep", metavar="PATH", type=_output_path, help="write the vertices as JSON")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("check", help="run the full verification suite")
    common(p, CHECK_MAX_N)
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
        check_cap(args.n, args.max_n)  # every subcommand refuses n above the cap
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
