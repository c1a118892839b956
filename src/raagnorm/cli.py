"""Command-line interface: every subcommand writes one JSON document to
stdout (keys sorted, rationals as normalized "p/q" strings); diagnostics go
to stderr. Exit codes: 0 success, 1 domain error, 2 parse/usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .characters import parse_character
from .complexes import is_chordal, load_json, parse_complex
from .errors import InvalidInput, ParseError, RaagError
from .homology import euler_raag
from .l2 import is_fibered, l2_betti_group
from .polytopes import cut_rank_weights, is_one_ended, l2_polytope, norm_ball, thurston_norm
from .rationals import format_rational
from .splittings import cyclic_cover_truncation, dual_splitting
from .verify import cross_check, run_suite

USAGE_EXIT = 2
DOMAIN_EXIT = 1


class _Usage(Exception):
    """Command-line misuse; the argument is the message."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _emit(doc, compact: bool):
    if compact:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(doc, sort_keys=True, indent=2)
    sys.stdout.write(text + "\n")


def _read(path, what):
    try:
        # utf-8-sig drops a leading byte-order mark, which would otherwise
        # hide a JSON document's opening bracket.
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {what} file {path!r}: not UTF-8 text") from exc


def _load_complex(args):
    return parse_complex(_read(args.complex, "complex"))


def _load_character(args):
    return parse_character(_read(args.char, "character"))


def _cmd_analyze(args):
    L = _load_complex(args)
    witness = is_chordal(L)
    betti = l2_betti_group(L)
    doc = {
        "chordality": witness.to_json_doc(),
        "coherent": witness.chordal,
        "connected": L.is_connected(),
        "one_ended": is_one_ended(L),
        "cut_ranks": cut_rank_weights(L) if len(L.vertices) >= 2 else {},
        "euler": euler_raag(L),
        "l2_betti": {str(i): format_rational(b) for i, b in enumerate(betti)},
    }
    return doc


def _cmd_fibering(args):
    L = _load_complex(args)
    phi = _load_character(args)
    return is_fibered(L, phi).to_json_doc()


def _cmd_norm(args):
    L = _load_complex(args)
    phi = _load_character(args)
    return {"norm": format_rational(thurston_norm(L, phi))}


def _cmd_polytope(args):
    L = _load_complex(args)
    return l2_polytope(L).to_json_doc()


def _cmd_split(args):
    L = _load_complex(args)
    phi = _load_character(args)
    gog, report = dual_splitting(L, phi)
    doc = {"graph_of_groups": gog.to_json_doc(), "report": report.to_json_doc()}
    if args.truncate is not None:
        doc["truncation"] = cyclic_cover_truncation(gog, phi, args.truncate).to_json_doc()
    return doc


def _refuse(args, dests, mode):
    """A usage error naming the first flag in ``dests`` that was given,
    since ``mode`` would ignore it."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise _Usage(f"--{dest.replace('_', '-')} has no effect with {mode}")


def _cmd_verify(args):
    if args.suite:
        _refuse(args, ("complex", "char"), "verify --suite")
        config = {}
        if args.config is not None:
            config = load_json(_read(args.config, "suite config"), "suite config: ")
            if not isinstance(config, dict):
                raise ParseError("suite config must be a JSON object")
        for key, value in (
            ("samples", args.samples),
            ("max_n", args.max_n),
            ("seed", args.seed),
        ):
            if value is not None:
                config[key] = value
        report = run_suite(config)
        return report, (0 if report["ok"] else DOMAIN_EXIT)
    if args.complex is None or args.char is None:
        raise _Usage("verify needs --suite or both --complex and --char")
    _refuse(args, ("samples", "max_n", "seed", "config"), "verify --complex/--char")
    L = _load_complex(args)
    phi = _load_character(args)
    return cross_check(L, phi).to_json_doc()


_SVG_TEMPLATE = """<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.5 -1.5 3 3">
<rect x="-1.5" y="-1.5" width="3" height="3" fill="white"/>
<line x1="-1.5" y1="0" x2="1.5" y2="0" stroke="#bbb" stroke-width="0.01"/>
<line x1="0" y1="-1.5" x2="0" y2="1.5" stroke="#bbb" stroke-width="0.01"/>
{shape}
</svg>
"""


def _ball_svg(ball):
    """Best-effort 2D projection onto the first two coordinates."""
    weights = [ball.weights[v] for v in ball.vertex_order[:2]]
    frame = Fraction(3, 2)

    def extent(w):
        return Fraction(1, w) if w else frame

    a, b = (extent(w) for w in (weights + [0, 0])[:2])
    if all(weights[:2]):
        points = [(a, 0), (0, b), (-a, 0), (0, -b)]
    else:
        points = [(a, b), (-a, b), (-a, -b), (a, -b)]
    path = " ".join(f"{float(x):.6f},{float(-y):.6f}" for x, y in points)
    shape = (
        f'<polygon points="{path}" fill="#9ecae1" fill-opacity="0.7" '
        'stroke="#3182bd" stroke-width="0.02"/>'
    )
    return _SVG_TEMPLATE.format(shape=shape)


def _cmd_ball(args):
    L = _load_complex(args)
    ball = norm_ball(L)
    if args.svg is not None:
        if len(L.vertices) > 3:
            raise InvalidInput("SVG projection supports at most three vertices")
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(_ball_svg(ball))
        except OSError as exc:
            raise ParseError(
                f"cannot write SVG file {args.svg!r}: {exc.strerror}"
            ) from exc
        print(f"wrote {args.svg}", file=sys.stderr)
    return ball.to_json_doc()


def _build_parser():
    parser = _Parser(prog="raagnorm", description=__doc__)
    parser.add_argument("--compact", action="store_true", help="minified JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, helptext, char=False):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=handler)
        p.add_argument("--complex", required=True, help="complex file (JSON or edge list)")
        if char:
            p.add_argument("--char", required=True, help="character file (JSON)")
        return p

    add("analyze", _cmd_analyze, "chordality, coherence, ends, cut ranks, Euler data")
    add("fibering", _cmd_fibering, "living-subcomplex fibering test", char=True)
    add("norm", _cmd_norm, "semi-norm value of a character", char=True)
    add("polytope", _cmd_polytope, "zonotope generators of the group polytope")
    split = add("split", _cmd_split, "dual splitting and its complexity report", char=True)
    split.add_argument("--truncate", type=int, default=None, metavar="K",
                       help="include the level-K cyclic cover window")
    verify = sub.add_parser("verify", help="cross check one case or run the suite")
    verify.set_defaults(handler=_cmd_verify)
    verify.add_argument("--complex", default=None)
    verify.add_argument("--char", default=None)
    verify.add_argument("--suite", action="store_true", help="run the invariant suites")
    verify.add_argument("--config", default=None, help="suite config JSON file")
    verify.add_argument("--samples", type=int, default=None)
    verify.add_argument("--max-n", dest="max_n", type=int, default=None)
    verify.add_argument("--seed", type=int, default=None)
    ball = add("ball", _cmd_ball, "norm unit ball: weights, vertices, lineality")
    ball.add_argument("--svg", default=None, metavar="PATH",
                      help="also write a best-effort 2D projection (at most 3 vertices)")
    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        outcome = args.handler(args)
        if isinstance(outcome, tuple):
            doc, code = outcome
        else:
            doc, code = outcome, 0
        _emit(doc, args.compact)
        return code
    except _Usage as exc:
        # argparse's own errors come before ``args`` exists.
        compact = args is not None and args.compact
        _emit({"error": {"kind": "usage", "detail": str(exc)}}, compact=compact)
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except RaagError as exc:
        _emit({"error": exc.payload()}, compact=args.compact)
        print(f"error: {exc.detail}", file=sys.stderr)
        return USAGE_EXIT if isinstance(exc, ParseError) else DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
