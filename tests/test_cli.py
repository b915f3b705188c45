import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlang import Alphabet, Direction, decide_regularity, is_interlaced_by, regularity
from occlang.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def _env_with_src():
    """The environment for a fresh interpreter that imports occlang from this tree."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


SUBCOMMANDS = ("count", "interlaced", "regular", "dfa", "witness", "finite", "debruijn", "validate")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_has_help(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0 and out.startswith(f"usage: occlang {command}")


@pytest.mark.parametrize(
    "argv",
    [
        ("interlaced", "01", "10", "--alphabet", "01", "--method", "general"),
        ("regular", "01", "10", "--alphabet", "01", "--relation", "lt"),
        ("debruijn", "2", "--alphabet", "01", "--infer-alphabet"),
    ],
)
def test_flags_that_changed_nothing_are_gone(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "unrecognized arguments" in err


def test_count_human(capsys):
    code, out, _ = run(capsys, "count", "banana", "ana")
    assert code == 0
    assert out.strip() == "2"


def test_count_json(capsys):
    code, doc, _ = run_json(capsys, "count", "banana", "ana")
    assert code == 0
    assert doc == {"command": "count", "word": "banana", "pattern": "ana", "count": 2}


def test_interlaced_golden(capsys):
    code, doc, _ = run_json(capsys, "interlaced", "000100", "1000", "--alphabet", "01")
    assert code == 0
    assert doc["holds"] is True
    assert doc["alphabet"] == ["0", "1"]

    code, doc, _ = run_json(capsys, "interlaced", "01", "10", "--alphabet", "012")
    assert code == 0
    assert doc["holds"] is False and doc["witness"] == "01201"


def test_regular_json_verdicts(capsys):
    code, doc, _ = run_json(capsys, "regular", "01", "10", "--alphabet", "01")
    assert code == 0 and doc["regular"] is True

    code, doc, _ = run_json(capsys, "regular", "01", "10", "--alphabet", "012")
    assert code == 0 and doc["regular"] is False
    assert doc["certificate"]["s"] == "01201"

    code, out, _ = run(capsys, "regular", "01", "10", "--alphabet", "012")
    assert code == 0 and out.startswith("not regular")


def test_dfa_json_reports_five_states(capsys):
    code, out, _ = run(capsys, "dfa", "01", "10", "--alphabet", "01", "--relation", "eq")
    assert code == 0
    doc = json.loads(out)
    assert doc["state_count"] == 5
    assert doc["alphabet"] == ["0", "1"]


def test_dfa_dot_output(capsys):
    code, out, _ = run(capsys, "dfa", "01", "10", "--alphabet", "01", "--out", "dot")
    assert code == 0
    assert out.startswith("digraph dfa {") and "doublecircle" in out


def test_dfa_not_regular_exits_two_with_certificate(capsys):
    code, out, _ = run(capsys, "dfa", "0011", "1100", "--alphabet", "01")
    assert code == 2
    cert = json.loads(out)
    assert cert["r"] == "1100101100"


def test_witness(capsys):
    code, out, _ = run(capsys, "witness", "01", "10", "--alphabet", "012")
    assert code == 0 and out.strip() == "01201"

    code, out, _ = run(capsys, "witness", "01", "10", "--alphabet", "01")
    assert code == 0 and out.strip() == "none"


@pytest.mark.parametrize(
    "x, y, symbols",
    [
        ("01", "10", "012"),
        ("01", "10", "01"),
        ("01001010", "10100", "01"),
        ("1000", "000100", "01"),
        ("0011", "1100", "01"),
        ("000", "00000", "01"),
        ("aaa", "aaaaa", "a"),
        ("aa", "aaa", "a"),
    ],
)
def test_interlaced_and_witness_print_the_same_witness(capsys, x, y, symbols):
    witnesses = [is_interlaced_by(x, y, Alphabet(symbols)).witness]
    for command in ("interlaced", "witness"):
        code, doc, _ = run_json(capsys, command, x, y, "--alphabet", symbols)
        assert code == 0
        witnesses.append(doc["witness"])
    assert witnesses[0] == witnesses[1] == witnesses[2]


def test_finite(capsys):
    code, out, _ = run(capsys, "finite", "aa", "aaa", "--alphabet", "a")
    assert code == 0 and out.strip() == "finite"
    code, doc, _ = run_json(capsys, "finite", "01", "10", "--alphabet", "01")
    assert doc["finite"] is False


def test_debruijn(capsys):
    code, out, _ = run(capsys, "debruijn", "2", "--alphabet", "01")
    assert code == 0 and out.strip() == "0011"
    code, doc, _ = run_json(capsys, "debruijn", "3", "--alphabet", "01")
    assert doc["length"] == 8


def test_validate_passes(capsys):
    code, doc, _ = run_json(capsys, "validate", "01", "10", "--alphabet", "01", "--max-len", "8")
    assert code == 0 and doc["pass"] is True
    assert any(c["name"].startswith("dfa-oracle") for c in doc["checks"])

    code, doc, _ = run_json(capsys, "validate", "01", "10", "--alphabet", "012", "--max-len", "6")
    assert code == 0 and doc["pass"] is True
    assert any(c["name"] == "witness-bounds" for c in doc["checks"])


@pytest.mark.parametrize(
    "x, y, symbols", [("01", "10", "012"), ("10100", "01001010", "01"), ("0011", "1100", "01")]
)
def test_validate_checks_the_padding_bound_on_golden_nonregular_pairs(capsys, x, y, symbols):
    code, doc, _ = run_json(capsys, "validate", x, y, "--alphabet", symbols, "--max-len", "4")
    assert code == 0 and doc["pass"] is True
    (bounds,) = [c for c in doc["checks"] if c["name"] == "witness-bounds"]
    assert bounds["pass"] is True
    assert "2|y|+3" in bounds["detail"] and "2|x|+3" in bounds["detail"]
    _, outcome, _ = run_json(capsys, "regular", x, y, "--alphabet", symbols)
    cert = outcome["certificate"]
    assert len(cert["r"]) <= 2 * len(y) + 3 and len(cert["s"]) <= 2 * len(x) + 3


def test_validate_long_unary_sweep_has_no_recursion_limit(capsys):
    code, doc, err = run_json(capsys, "validate", "a", "aa", "--alphabet", "a", "--max-len", "5000")
    assert code == 0 and doc["pass"] is True
    assert "Traceback" not in err


def test_validate_over_budget_is_a_domain_error(capsys):
    code, doc, _ = run_json(capsys, "validate", "01", "10", "--alphabet", "01", "--max-len", "40")
    assert code == 1
    assert doc["error"]["type"] == "BudgetExceededError"
    code, _, err = run(capsys, "validate", "01", "10", "--alphabet", "01", "--max-len", "40")
    assert code == 1 and "budget" in err


@pytest.mark.parametrize(
    "x, y, symbols",
    [("01", "10", "012"), ("10100", "01001010", "01"), ("0011", "1100", "01")],
)
def test_validate_checks_certificates_against_the_automaton(capsys, x, y, symbols):
    code, doc, _ = run_json(capsys, "validate", x, y, "--alphabet", symbols, "--max-len", "4")
    assert code == 0 and doc["pass"] is True
    assert [c["pass"] for c in doc["checks"] if c["name"] == "decision-vs-automaton"] == [True]


@pytest.fixture
def replace_decision(monkeypatch):
    """Makes regularity.decide_regularity, where the CLI and the synthesis look it up, return
    change(outcome); the synthesis cached from a changed decision is dropped afterwards."""
    decide = regularity.decide_regularity

    def replace(change):
        monkeypatch.setattr(regularity, "decide_regularity", lambda x, y, a: change(decide(x, y, a)))

    yield replace
    regularity._synthesis.cache_clear()


def _failed_checks(capsys, *argv):
    code, doc, _ = run_json(capsys, "validate", *argv, "--max-len", "6")
    assert code == 0
    return doc["pass"], [c["name"] for c in doc["checks"] if not c["pass"]]


@pytest.mark.parametrize(
    "x, y, last",
    [("000100", "1000", ["dfa-oracle-eq", "dfa-oracle-lt", "dfa-oracle-le"]), ("0011", "1100", ["witness-bounds"])],
)
def test_validate_names_the_checks_it_runs(capsys, x, y, last):
    _, doc, _ = run_json(capsys, "validate", x, y, "--alphabet", "01", "--max-len", "6")
    first = [f"fast-vs-general-{x}-{y}", f"fast-vs-general-{y}-{x}", "decision-vs-automaton"]
    assert [c["name"] for c in doc["checks"]] == first + last


def test_validate_catches_a_wrong_direction(capsys, replace_decision):
    # only x is interlaced by y; the tracker's DFAs are right in that orientation all the same
    assert decide_regularity("000100", "1000", Alphabet("01")).direction is Direction.X_INTERLACED_BY_Y
    replace_decision(lambda outcome: outcome._replace(direction=Direction.BOTH))
    assert _failed_checks(capsys, "000100", "1000", "--alphabet", "01") == (False, ["decision-vs-automaton"])


def test_validate_catches_swapped_certificate_witnesses(capsys, replace_decision):
    def swap(outcome):
        cert = outcome.certificate
        return outcome._replace(certificate=cert._replace(r=cert.s, s=cert.r))

    replace_decision(swap)
    passed, failed = _failed_checks(capsys, "0011", "1100", "--alphabet", "01")
    assert not passed and "decision-vs-automaton" in failed


def test_validate_builds_one_certificate(capsys, monkeypatch):
    built = []
    certificate = regularity._certificate
    monkeypatch.setattr(regularity, "_certificate", lambda *words: built.append(words) or certificate(*words))
    assert _failed_checks(capsys, "0011", "1100", "--alphabet", "01") == (True, [])
    assert len(built) == 1


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "0011", "1100", "--alphabet", "01", "--max-len", "5", "--json"],
        ["regular", "0011", "1100", "--alphabet", "01", "--json"],
        ["dfa", "01", "10", "--alphabet", "01"],
        ["count", "banana", "ana"],
    ],
)
def test_closed_stdout_exits_one_without_a_traceback(argv, unbuffered):
    env = _env_with_src()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        run = subprocess.run(
            [sys.executable, "-m", "occlang.cli", *argv], env=env, stdout=write_end, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(write_end)
    assert run.returncode == 1, run.stderr
    assert "BrokenPipeError" not in run.stderr and "Traceback" not in run.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (("regular", "0", "0", "--alphabet", "00"), "distinct"),
        (("validate", "01", "10", "--alphabet", "01", "--max-len", "-1"), "nonnegative"),
        (("validate", "0011", "1100", "--alphabet", "01", "--max-len", "-1"), "nonnegative"),
    ],
)
def test_value_errors_are_json_in_json_mode(capsys, argv, message):
    code, doc, _ = run_json(capsys, *argv)
    assert code == 1
    assert doc["error"]["type"] == "ValueError" and message in doc["error"]["message"]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and message in err


def test_debruijn_over_budget_is_a_domain_error(capsys):
    code, doc, _ = run_json(capsys, "debruijn", "5000", "--alphabet", "01")
    assert code == 1
    assert doc["error"]["type"] == "BudgetExceededError"
    code, _, err = run(capsys, "debruijn", "5000", "--alphabet", "01")
    assert code == 1 and "budget" in err and "Traceback" not in err


def test_alphabet_is_required(capsys):
    code, _, err = run(capsys, "regular", "01", "10")
    assert code == 1
    assert "alphabet" in err


def test_alphabet_inference_needs_the_flag(capsys):
    code, doc, _ = run_json(capsys, "regular", "01", "10", "--infer-alphabet")
    assert code == 0 and doc["alphabet"] == ["0", "1"]


def test_foreign_symbols_are_rejected(capsys):
    code, _, err = run(capsys, "regular", "012", "10", "--alphabet", "01")
    assert code == 1 and "not in alphabet" in err


def test_domain_errors_are_json_in_json_mode(capsys):
    code, out, _ = run(capsys, "regular", "012", "10", "--alphabet", "01", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "ForeignSymbolError"


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_json_output_is_deterministic(capsys):
    first = run(capsys, "regular", "0011", "1100", "--alphabet", "01", "--json")
    second = run(capsys, "regular", "0011", "1100", "--alphabet", "01", "--json")
    assert first == second

    first = run(capsys, "dfa", "01", "10", "--alphabet", "01", "--out", "json")
    second = run(capsys, "dfa", "01", "10", "--alphabet", "01", "--out", "json")
    assert first == second


def test_alphabet_is_echoed_everywhere(capsys):
    for argv in [
        ("interlaced", "01", "10", "--alphabet", "01"),
        ("regular", "01", "10", "--alphabet", "01"),
        ("witness", "01", "10", "--alphabet", "01"),
        ("finite", "01", "10", "--alphabet", "01"),
        ("debruijn", "2", "--alphabet", "01"),
        ("validate", "01", "10", "--alphabet", "01"),
    ]:
        _, doc, _ = run_json(capsys, *argv)
        assert doc["alphabet"] == ["0", "1"], argv


FUZZ_ALPHABETS = ("a", "01", "012")
# Not alphabets at all: a symbol repeats.
FUZZ_BAD_ALPHABETS = ("00", "011")


@st.composite
def cli_argv(draw):
    """argv for every command, over short words, any --max-len and any de Bruijn order."""
    command = draw(
        st.sampled_from(
            ["count", "interlaced", "regular", "witness", "dfa", "validate", "debruijn"]
        )
    )
    symbols = draw(st.sampled_from(FUZZ_ALPHABETS))
    word = st.text(alphabet=symbols, max_size=6)
    if command == "debruijn":
        argv = [command, str(draw(st.integers(min_value=-10, max_value=10**6)))]
    else:
        argv = [command, draw(word), draw(word)]
    if command != "count":
        infer = [] if command == "debruijn" else [["--infer-alphabet"]]
        argv += draw(
            st.sampled_from(
                [["--alphabet", symbols], [], *infer]
                + [["--alphabet", other] for other in FUZZ_ALPHABETS if other != symbols]
                + [["--alphabet", bad] for bad in FUZZ_BAD_ALPHABETS]
            )
        )
    if command == "dfa":
        argv += ["--relation", draw(st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]))]
        argv += ["--out", draw(st.sampled_from(["json", "dot"]))]
    if command == "validate":
        argv += ["--max-len", str(draw(st.integers(min_value=-10, max_value=10**6)))]
    if command != "dfa" and draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(cli_argv())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    dfa_json = argv[0] == "dfa" and (code == 2 or (code == 0 and "json" in argv))
    if "--json" in argv or dfa_json:
        json.loads(out.getvalue())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # In a fresh interpreter, dataclasses pulls in inspect and with it ast,
    # dis and tokenize, about 15 ms of every cold `occlang` process.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import occlang.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = _env_with_src()
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(run.stdout.split())
    assert "occlang.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_main_reuses_one_parser_across_subcommands(capsys):
    assert build_parser() is build_parser()
    assert run(capsys, "count", "banana", "ana")[:2] == (0, "2\n")
    assert run(capsys, "regular", "0", "0", "--alphabet", "00")[0] == 1
    code, doc, _ = run_json(capsys, "witness", "0011", "1100", "--alphabet", "01")
    assert code == 0 and doc["witness"] == "0011010011"
    code, doc, _ = run_json(capsys, "regular", "01", "10", "--alphabet", "01")
    assert code == 0 and doc["regular"] is True and "relation" not in doc


# The paper's golden pairs (perfbench/workloads.py::GOLDEN) and unary pairs.
DIGEST_PAIRS = (
    ("01", "10", "01"),
    ("01", "10", "012"),
    ("000100", "1000", "01"),
    ("10100", "01001010", "01"),
    ("0011", "1100", "01"),
    ("aa", "aaa", "a"),
    ("a", "aaaa", "a"),
    ("000", "00000", "01"),
)
RELATIONS = ("eq", "ne", "lt", "le", "gt", "ge")
# Identical on Python 3.10 to 3.13.
CLI_DIGEST = "1a4fc11f86816e87606f6ff2f8bdb49bb3ed8d10060e4be8499231e6e68f5f11"


def digest_argvs():
    """Every subcommand in human and --json form on DIGEST_PAIRS, and the error paths."""
    argvs = []
    for x, y, symbols in DIGEST_PAIRS:
        alphabet = ["--alphabet", symbols]
        max_len = "8" if len(symbols) == 2 else "5"
        for as_json in ([], ["--json"]):
            argvs += [
                ["count", x + y + x, x, *as_json],
                ["interlaced", x, y, *alphabet, *as_json],
                ["interlaced", y, x, *alphabet, *as_json],
                ["witness", x, y, *alphabet, *as_json],
                ["witness", y, x, *alphabet, *as_json],
                ["regular", x, y, *alphabet, *as_json],
                ["finite", x, y, *alphabet, *as_json],
                ["validate", x, y, *alphabet, "--max-len", max_len, *as_json],
            ]
        argvs += [
            ["dfa", x, y, *alphabet, "--relation", rel, "--out", out]
            for rel in RELATIONS
            for out in ("json", "dot")
        ]
    for symbols in ("a", "01", "012"):
        for order in ("0", "1", "3"):
            argvs += [["debruijn", order, "--alphabet", symbols, *j] for j in ([], ["--json"])]
    for as_json in ([], ["--json"]):
        argvs += [
            ["regular", "01", "10", *as_json],
            ["regular", "01", "10", "--infer-alphabet", *as_json],
            ["interlaced", "0011", "1100", "--infer-alphabet", *as_json],
            ["validate", "a", "aa", "--infer-alphabet", *as_json],
            ["regular", "012", "10", "--alphabet", "01", *as_json],
            ["regular", "0", "0", "--alphabet", "00", *as_json],
            ["interlaced", "", "0", "--alphabet", "01", *as_json],
            ["validate", "01", "10", "--alphabet", "01", "--max-len", "40", *as_json],
            ["validate", "01", "10", "--alphabet", "01", "--max-len", "-1", *as_json],
            ["debruijn", "5000", "--alphabet", "01", *as_json],
            ["debruijn", "2", *as_json],
        ]
    argvs += [
        ["dfa", "01", "10"],
        ["dfa", "01", "10", "--infer-alphabet"],
        ["dfa", "0", "0", "--alphabet", "00"],
        ["frobnicate"],
        [],
    ]
    return argvs


def cli_digest():
    """sha256 over (argv, exit code, stdout, stderr) of every digest_argvs() run.

    stderr enters only as a domain error ("error: ..."); argparse's own usage
    text differs between Python versions and enters only as being there.
    """
    h = hashlib.sha256()
    for argv in digest_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        # `regular --json` printed "relation": "eq" while `regular --relation`, which changed
        # no answer, existed; the digest leaves the key out, so it holds before and after.
        out = out.replace('  "relation": "eq",\n', "") if argv[:1] == ["regular"] else out
        record = [argv, code, out, err if err.startswith("error: ") else bool(err)]
        h.update(json.dumps(record).encode())
    return h.hexdigest()


def test_cli_output_digest_is_pinned():
    assert len(digest_argvs()) >= 250
    assert cli_digest() == CLI_DIGEST
