"""Command-line front end.

Every decision procedure is exposed as a subcommand with a stable JSON output
mode (--json).  The alphabet is always explicit (--alphabet) or inferred only
on request (--infer-alphabet), because the answers genuinely depend on it:
the same pattern pair can be regular over {0,1} and non-regular over {0,1,2}.
The chosen alphabet is echoed in every output.

Exit codes: 0 computed, 1 usage or domain error, 2 the `dfa` subcommand found
the language non-regular (the certificate is printed as JSON on stdout).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import automata, finiteness, interlace, oracle, regularity
from .errors import NotRegularError, OcclangError
from .words import Alphabet, count_occurrences


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_alphabet_flags(sub):
    sub.add_argument("--alphabet", help="alphabet symbols in order, e.g. 01 or 012")
    sub.add_argument(
        "--infer-alphabet",
        action="store_true",
        help="infer the alphabet from the input words (sorted distinct symbols)",
    )


def _add_json_flag(sub):
    sub.add_argument("--json", action="store_true", help="machine-readable JSON output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process (parse_args leaves it unchanged)."""
    parser = _Parser(prog="occlang", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("count", help="count overlapping occurrences of a pattern")
    p.add_argument("word")
    p.add_argument("pattern")
    _add_json_flag(p)

    p = commands.add_parser("interlaced", help="is X interlaced by Y (Y in every X-bordered word)?")
    p.add_argument("x")
    p.add_argument("y")
    _add_alphabet_flags(p)
    p.add_argument("--method", choices=["auto", "general"], default="auto")
    _add_json_flag(p)

    p = commands.add_parser("regular", help="are the occurrence-comparison languages for X, Y regular?")
    p.add_argument("x")
    p.add_argument("y")
    _add_alphabet_flags(p)
    p.add_argument("--relation", choices=[r.value for r in regularity.Relation], default="eq")
    _add_json_flag(p)

    p = commands.add_parser("dfa", help="emit the minimal DFA for |z|_X rel |z|_Y")
    p.add_argument("x")
    p.add_argument("y")
    _add_alphabet_flags(p)
    p.add_argument("--relation", choices=[r.value for r in regularity.Relation], default="eq")
    p.add_argument("--out", choices=["dot", "json"], default="json")

    p = commands.add_parser("witness", help="shortest X-bordered word avoiding Y, or none")
    p.add_argument("x")
    p.add_argument("y")
    _add_alphabet_flags(p)
    _add_json_flag(p)

    p = commands.add_parser("finite", help="is the occurrence-equality language for X, Y finite?")
    p.add_argument("x")
    p.add_argument("y")
    _add_alphabet_flags(p)
    _add_json_flag(p)

    p = commands.add_parser("debruijn", help="canonical cyclic de Bruijn word of a given order")
    p.add_argument("order", type=int)
    _add_alphabet_flags(p)
    _add_json_flag(p)

    p = commands.add_parser("validate", help="cross-check the decision procedures against the oracle")
    p.add_argument("x")
    p.add_argument("y")
    _add_alphabet_flags(p)
    p.add_argument("--max-len", type=int, default=10)
    _add_json_flag(p)

    return parser


def _resolve_alphabet(args, *inputs: str) -> Alphabet:
    if args.alphabet is not None:
        alphabet = Alphabet(args.alphabet)
    elif args.infer_alphabet:
        symbols = sorted(set("".join(inputs)))
        if not symbols:
            raise OcclangError("cannot infer an alphabet from empty inputs")
        alphabet = Alphabet(symbols)
    else:
        raise OcclangError("an explicit --alphabet is required (or pass --infer-alphabet)")
    for w in inputs:
        alphabet.require(w)
    return alphabet


def _emit(doc: dict, human: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        print(human)


def _alphabet_list(alphabet: Alphabet) -> list[str]:
    return list(alphabet.symbols)


def _cmd_count(args) -> int:
    n = count_occurrences(args.word, args.pattern)
    _emit({"command": "count", "word": args.word, "pattern": args.pattern, "count": n}, str(n), args.json)
    return 0


def _cmd_interlaced(args) -> int:
    alphabet = _resolve_alphabet(args, args.x, args.y)
    decide = interlace.is_interlaced_by if args.method == "general" else interlace.interlaced
    verdict = decide(args.x, args.y, alphabet)
    doc = {
        "command": "interlaced",
        "x": args.x,
        "y": args.y,
        "alphabet": _alphabet_list(alphabet),
        "method": verdict.method.value,
        "holds": verdict.holds,
        "witness": verdict.witness,
    }
    if verdict.holds:
        human = f"yes: every {args.x}-bordered word over {{{''.join(alphabet)}}} contains {args.y}"
    else:
        human = f"no: {verdict.witness} is {args.x}-bordered and avoids {args.y}"
    _emit(doc, human, args.json)
    return 0


def _outcome_doc(args, alphabet, outcome) -> dict:
    return {
        "command": "regular",
        "x": args.x,
        "y": args.y,
        "alphabet": _alphabet_list(alphabet),
        "relation": args.relation,
        "regular": outcome.regular,
        "direction": outcome.direction.value if outcome.direction else None,
        "certificate": outcome.certificate.to_json_dict() if outcome.certificate else None,
    }


def _cmd_regular(args) -> int:
    alphabet = _resolve_alphabet(args, args.x, args.y)
    outcome = regularity.decide_regularity(args.x, args.y, alphabet)
    doc = _outcome_doc(args, alphabet, outcome)
    if outcome.regular:
        human = f"regular over {{{''.join(alphabet)}}} ({outcome.direction.value})"
    else:
        human = "not regular over {%s}\n%s" % (
            "".join(alphabet),
            json.dumps(outcome.certificate.to_json_dict(), indent=2),
        )
    _emit(doc, human, args.json)
    return 0


def _cmd_dfa(args) -> int:
    alphabet = _resolve_alphabet(args, args.x, args.y)
    rel = regularity.Relation(args.relation)
    try:
        dfa = regularity.build_comparison_dfa(args.x, args.y, alphabet, rel)
    except NotRegularError as err:
        print(json.dumps(err.certificate.to_json_dict(), indent=2))
        return 2
    print(automata.serialize(dfa, args.out), end="" if args.out == "dot" else "\n")
    return 0


def _cmd_witness(args) -> int:
    alphabet = _resolve_alphabet(args, args.x, args.y)
    verdict = interlace.interlaced(args.x, args.y, alphabet)
    doc = {
        "command": "witness",
        "x": args.x,
        "y": args.y,
        "alphabet": _alphabet_list(alphabet),
        "witness": verdict.witness,
    }
    _emit(doc, verdict.witness if verdict.witness is not None else "none", args.json)
    return 0


def _cmd_finite(args) -> int:
    alphabet = _resolve_alphabet(args, args.x, args.y)
    finite = finiteness.is_finite_pair(args.x, args.y, alphabet)
    doc = {
        "command": "finite",
        "x": args.x,
        "y": args.y,
        "alphabet": _alphabet_list(alphabet),
        "finite": finite,
    }
    _emit(doc, "finite" if finite else "infinite", args.json)
    return 0


def _cmd_debruijn(args) -> int:
    if args.alphabet is None:
        raise OcclangError("debruijn requires an explicit --alphabet")
    alphabet = Alphabet(args.alphabet)
    db = finiteness.de_bruijn_word(args.order, alphabet)
    doc = {
        "command": "debruijn",
        "order": db.order,
        "alphabet": _alphabet_list(alphabet),
        "word": db.word,
        "length": len(db.word),
    }
    _emit(doc, db.word, args.json)
    return 0


def _cmd_validate(args) -> int:
    alphabet = _resolve_alphabet(args, args.x, args.y)
    x, y = args.x, args.y
    max_len = args.max_len
    checks: list[dict] = []

    def check(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "pass": passed, "detail": detail})

    outcome = regularity.decide_regularity(x, y, alphabet)
    sym = regularity.decide_regularity(y, x, alphabet)
    check("criterion-symmetry", outcome.regular == sym.regular, "regularity is symmetric in x and y")

    general: dict[tuple[str, str], interlace.InterlaceVerdict] = {}
    for a, b in ((x, y), (y, x)):
        fast = interlace.interlaced(a, b, alphabet)
        slow = general[a, b] = interlace.is_interlaced_by(a, b, alphabet)
        check(
            f"fast-vs-general-{a}-{b}",
            (fast.holds, fast.witness) == (slow.holds, slow.witness),
            f"fast path and automaton agree on interlaced({a!r}, {b!r}) and its witness",
        )

    if outcome.regular:
        for rel in (regularity.Relation.EQ, regularity.Relation.LT, regularity.Relation.LE):
            dfa = regularity.build_comparison_dfa(x, y, alphabet, rel)
            bad = oracle.bounded_equivalence(dfa, x, y, rel, max_len)
            check(
                f"dfa-oracle-{rel.value}",
                bad is None,
                "agrees with the counter oracle on all words up to length "
                f"{max_len}" + (f" (first mismatch {bad!r})" if bad else ""),
            )
    else:
        cert = outcome.certificate
        check(
            "witness-bounds",
            len(cert.r) <= 2 * len(y) + 3 and len(cert.s) <= 2 * len(x) + 3,
            "certificate witnesses are within the padding bounds |r| <= 2|y|+3 and |s| <= 2|x|+3",
        )
        check(
            "certificate-avoidance",
            count_occurrences(cert.r, x) == 0 and count_occurrences(cert.s, y) == 0,
            "r avoids x and s avoids y",
        )
        check(
            "certificate-vs-automaton",
            cert.r == general[y, x].witness and cert.s == general[x, y].witness,
            "r and s are the shortest witnesses of the avoider automata",
        )

    doc = {
        "command": "validate",
        "x": x,
        "y": y,
        "alphabet": _alphabet_list(alphabet),
        "max_length": max_len,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    lines = [f"{'PASS' if c['pass'] else 'FAIL'} {c['name']}: {c['detail']}" for c in checks]
    lines.append("all checks passed" if doc["pass"] else "SOME CHECKS FAILED")
    _emit(doc, "\n".join(lines), args.json)
    return 0


_HANDLERS = {
    "count": _cmd_count,
    "interlaced": _cmd_interlaced,
    "regular": _cmd_regular,
    "dfa": _cmd_dfa,
    "witness": _cmd_witness,
    "finite": _cmd_finite,
    "debruijn": _cmd_debruijn,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _HANDLERS[args.command](args)
    except (OcclangError, ValueError) as err:
        if getattr(args, "json", False):
            print(json.dumps({"error": {"type": type(err).__name__, "message": str(err)}}, indent=2))
        else:
            print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
