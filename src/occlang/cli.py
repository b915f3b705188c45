"""Command-line front end.

Every decision procedure is exposed as a subcommand with a stable JSON output
mode (--json).  The alphabet is always explicit (--alphabet) or inferred only
on request (--infer-alphabet), because the answers genuinely depend on it:
the same pattern pair can be regular over {0,1} and non-regular over {0,1,2}.
The chosen alphabet is echoed in every output.

Exit codes: 0 computed, 1 usage or domain error or a closed stdout, 2 the `dfa`
subcommand found the language non-regular (the certificate is printed as JSON).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import automata, finiteness, interlace, oracle, regularity
from .errors import NotRegularError, OcclangError
from .words import Alphabet, count_occurrences


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process (parse_args leaves it unchanged)."""
    parser = _Parser(prog="occlang", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *words, alphabet=True, infer=True, as_json=True, **options):
        """Subcommand name: its words, the alphabet flags, each option as --option, then --json."""
        p = commands.add_parser(name, help=summary)
        for word in words:
            # a de Bruijn order is the only numeric word
            p.add_argument(word, type=int if word == "order" else None)
        if alphabet:
            p.add_argument("--alphabet", help="alphabet symbols in order, e.g. 01 or 012")
        if alphabet and infer:
            p.add_argument(
                "--infer-alphabet",
                action="store_true",
                help="infer the alphabet from the input words (sorted distinct symbols)",
            )
        for option, spec in options.items():
            p.add_argument("--" + option.replace("_", "-"), **spec)
        if as_json:
            p.add_argument("--json", action="store_true", help="machine-readable JSON output")
        p.set_defaults(run=run, words=words)

    relations = [r.value for r in regularity.Relation]
    command("count", _count, "count overlapping occurrences of a pattern", "word", "pattern",
            alphabet=False)
    command("interlaced", _interlaced, "is X interlaced by Y (Y in every X-bordered word)?", "x", "y")
    command("regular", _regular, "are the occurrence-comparison languages for X, Y regular?", "x", "y")
    command("dfa", _dfa, "emit the minimal DFA for |z|_X rel |z|_Y", "x", "y", as_json=False,
            relation=dict(choices=relations, default="eq"),
            out=dict(choices=["dot", "json"], default="json"))
    command("witness", _witness, "shortest X-bordered word avoiding Y, or none", "x", "y")
    command("finite", _finite, "is the occurrence-equality language for X, Y finite?", "x", "y")
    command("debruijn", _debruijn, "canonical cyclic de Bruijn word of a given order", "order",
            infer=False)
    command("validate", _validate, "cross-check the decision procedures against the oracle", "x", "y",
            max_len=dict(type=int, default=10))
    return parser


def _alphabet(args) -> Alphabet:
    """The --alphabet given, or under --infer-alphabet the symbols of x and y; x and y must be over it."""
    words = (args.x, args.y) if "x" in args else ()
    if args.alphabet is not None:
        alphabet = Alphabet(args.alphabet)
    elif "infer_alphabet" not in args:
        raise OcclangError(f"{args.command} requires an explicit --alphabet")
    elif args.infer_alphabet:
        symbols = sorted(set("".join(words)))
        if not symbols:
            raise OcclangError("cannot infer an alphabet from empty inputs")
        alphabet = Alphabet(symbols)
    else:
        raise OcclangError("an explicit --alphabet is required (or pass --infer-alphabet)")
    for w in words:
        alphabet.require(w)
    return alphabet


# Each handler but _dfa returns its JSON fields and its human text; main prints one of them.


def _count(args, alphabet):
    n = count_occurrences(args.word, args.pattern)
    return {"count": n}, str(n)


def _interlaced(args, alphabet):
    verdict = interlace.interlaced(args.x, args.y, alphabet)
    if verdict.holds:
        human = f"yes: every {args.x}-bordered word over {{{''.join(alphabet)}}} contains {args.y}"
    else:
        human = f"no: {verdict.witness} is {args.x}-bordered and avoids {args.y}"
    return {"method": verdict.method.value, "holds": verdict.holds, "witness": verdict.witness}, human


def _regular(args, alphabet):
    outcome = regularity.decide_regularity(args.x, args.y, alphabet)
    if outcome.regular:
        direction, certificate = outcome.direction.value, None
        human = f"regular over {{{''.join(alphabet)}}} ({direction})"
    else:
        direction, certificate = None, outcome.certificate.to_json_dict()
        human = f"not regular over {{{''.join(alphabet)}}}\n{json.dumps(certificate, indent=2)}"
    return {"regular": outcome.regular, "direction": direction, "certificate": certificate}, human


def _dfa(args, alphabet) -> int:
    rel = regularity.Relation(args.relation)
    try:
        dfa = regularity.build_comparison_dfa(args.x, args.y, alphabet, rel)
    except NotRegularError as err:
        print(json.dumps(err.certificate.to_json_dict(), indent=2))
        return 2
    print(automata.serialize(dfa, args.out), end="" if args.out == "dot" else "\n")
    return 0


def _witness(args, alphabet):
    witness = interlace.interlaced(args.x, args.y, alphabet).witness
    return {"witness": witness}, witness if witness is not None else "none"


def _finite(args, alphabet):
    finite = finiteness.is_finite_pair(args.x, args.y, alphabet)
    return {"finite": finite}, "finite" if finite else "infinite"


def _debruijn(args, alphabet):
    word = finiteness.de_bruijn_word(args.order, alphabet).word
    return {"word": word, "length": len(word)}, word


def _validate(args, alphabet):
    x, y = args.x, args.y
    max_len = args.max_len
    # checked here, since only a regular pair reaches the oracle's own check
    if max_len < 0:
        raise ValueError(f"max_length must be nonnegative, got {max_len}")
    checks: list[dict] = []

    def check(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "pass": passed, "detail": detail})

    general: dict[tuple[str, str], interlace.InterlaceVerdict] = {}
    for a, b in ((x, y), (y, x)):
        fast = interlace.interlaced(a, b, alphabet)
        slow = general[a, b] = interlace.is_interlaced_by(a, b, alphabet)
        check(
            f"fast-vs-general-{a}-{b}",
            (fast.holds, fast.witness) == (slow.holds, slow.witness),
            f"fast path and automaton agree on interlaced({a!r}, {b!r}) and its witness",
        )

    # The reference verdicts give the whole decision: regular iff one holds, the direction, and
    # for a non-regular pair the certificate's r and s, their witnesses of (y, x) and (x, y).
    outcome = regularity.decide_regularity(x, y, alphabet)
    x_by_y, y_by_x, cert = general[x, y], general[y, x], outcome.certificate
    Direction = regularity.Direction
    direction = {(True, True): Direction.BOTH, (True, False): Direction.X_INTERLACED_BY_Y,
                 (False, True): Direction.Y_INTERLACED_BY_X}.get((x_by_y.holds, y_by_x.holds))
    check(
        "decision-vs-automaton",
        (outcome.regular, outcome.direction, cert and (cert.r, cert.s))
        == (direction is not None, direction, None if direction else (y_by_x.witness, x_by_y.witness)),
        "the verdict, its direction and the certificate's r and s agree with the avoider automata",
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
        check(
            "witness-bounds",
            len(cert.r) <= 2 * len(y) + 3 and len(cert.s) <= 2 * len(x) + 3,
            "certificate witnesses are within the padding bounds |r| <= 2|y|+3 and |s| <= 2|x|+3",
        )

    passed = all(c["pass"] for c in checks)
    lines = [f"{'PASS' if c['pass'] else 'FAIL'} {c['name']}: {c['detail']}" for c in checks]
    lines.append("all checks passed" if passed else "SOME CHECKS FAILED")
    return {"max_length": max_len, "checks": checks, "pass": passed}, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        # every document starts with the command, its words and the alphabet
        doc = {"command": args.command, **{w: getattr(args, w) for w in args.words}}
        alphabet = None
        if "alphabet" in args:
            alphabet = _alphabet(args)
            doc["alphabet"] = list(alphabet.symbols)
        if args.command == "dfa":  # prints the DFA, or the certificate with exit code 2
            return args.run(args, alphabet)
        fields, human = args.run(args, alphabet)
        print(json.dumps({**doc, **fields}, indent=2) if args.json else human)
        return 0
    except (OcclangError, ValueError) as err:
        if getattr(args, "json", False):
            print(json.dumps({"error": {"type": type(err).__name__, "message": str(err)}}, indent=2))
        else:
            print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: point fd 1 at devnull so that the exit flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
