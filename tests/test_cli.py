import contextlib
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

from occlang.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


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

    code, doc, _ = run_json(
        capsys, "interlaced", "01", "10", "--alphabet", "012", "--method", "general"
    )
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
    witnesses = []
    for extra in ([], ["--method", "general"]):
        code, doc, _ = run_json(capsys, "interlaced", x, y, "--alphabet", symbols, *extra)
        assert code == 0
        witnesses.append(doc["witness"])
    code, doc, _ = run_json(capsys, "witness", x, y, "--alphabet", symbols)
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
    assert [c["pass"] for c in doc["checks"] if c["name"] == "certificate-vs-automaton"] == [True]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("regular", "0", "0", "--alphabet", "00"), "distinct"),
        (("validate", "01", "10", "--alphabet", "01", "--max-len", "-1"), "nonnegative"),
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
        argv += draw(
            st.sampled_from(
                [["--alphabet", symbols], ["--infer-alphabet"], []]
                + [["--alphabet", other] for other in FUZZ_ALPHABETS if other != symbols]
                + [["--alphabet", bad] for bad in FUZZ_BAD_ALPHABETS]
            )
        )
    if command == "interlaced":
        argv += ["--method", draw(st.sampled_from(["auto", "general"]))]
    if command in ("regular", "dfa"):
        argv += ["--relation", draw(st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]))]
    if command == "dfa":
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
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
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
    assert code == 0 and doc["regular"] is True and doc["relation"] == "eq"
