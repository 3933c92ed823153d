import functools
import json
import re

import pytest

import ugb.cli
from conftest import FIXTURES, GOLDEN
from ugb.cli import main
from ugb.division import divide

MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden_outputs_are_byte_stable(name, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    case = MANIFEST[name]
    code = main(case["argv"])
    first = capsys.readouterr().out
    assert first == (GOLDEN / f"{name}.txt").read_text()
    assert code == case["exit"]
    # a second run must produce identical bytes
    assert main(case["argv"]) == code
    assert capsys.readouterr().out == first


def test_golden_manifest_names_every_golden_file():
    # a .txt golden missing from the manifest would never be compared
    assert {path.stem for path in GOLDEN.glob("*.txt")} == set(MANIFEST)
    assert len(MANIFEST) == 61


def test_records_are_valid_json(capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    for name, case in MANIFEST.items():
        if "records" not in case["argv"]:
            continue
        main(case["argv"])
        doc = json.loads(capsys.readouterr().out)
        assert isinstance(doc, dict)


def test_exit_codes():
    assert main(["check-gb", str(FIXTURES / "example1.gb")]) == 0
    assert main(["check-gb", str(FIXTURES / "not_gb.gb")]) == 1
    assert main(["check-unital", str(FIXTURES / "nonunital.gb")]) == 1
    assert main(["pbw", str(FIXTURES / "perturbed_sl2.lie"), "--max-deg", "2"]) == 1
    assert main(["member", str(FIXTURES / "nonunital.gb"), "--poly", "1", "--max-deg", "2"]) == 1


def test_not_unital_input_is_a_no_verdict(capsys):
    # check-gb on a non-unital set cannot run the criterion: verdict-style
    # failure, not a usage error
    assert main(["check-gb", str(FIXTURES / "nonunital.gb")]) == 1
    err = capsys.readouterr().err
    assert "NotUnital" in err


def test_usage_and_parse_errors_exit_2(tmp_path, capsys):
    assert main(["check-gb", str(tmp_path / "missing.gb")]) == 2
    bad = tmp_path / "bad.gb"
    bad.write_text("ring Z\nalphabet x\ngen w\n")
    assert main(["check-gb", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.gb:3" in err
    # no generators for a gens command
    empty = tmp_path / "empty.gb"
    empty.write_text("ring Z\n")
    assert main(["check-gb", str(empty)]) == 2
    # member bound below the generator degree
    assert main([
        "member", str(FIXTURES / "inverse_pair.gb"), "--poly", "1", "--max-deg", "1",
    ]) == 2
    # pbw on a file without a lie block
    assert main(["pbw", str(FIXTURES / "example1.gb"), "--max-deg", "2"]) == 2
    # a zero denominator is malformed input, not a mathematical "no"
    capsys.readouterr()
    assert main(["normal-form", str(FIXTURES / "inverse_pair.gb"), "--poly", "1/0*x"]) == 2
    assert "--poly: zero denominator" in capsys.readouterr().err
    # a bare coefficient the ring rejects is not an unknown symbol
    assert main(["normal-form", str(FIXTURES / "inverse_pair.gb"), "--poly", "x + 1/0"]) == 2
    assert "--poly: zero denominator" in capsys.readouterr().err
    # the same rule inside a word
    assert main(["normal-form", str(FIXTURES / "inverse_pair.gb"), "--poly", "x 1/0"]) == 2
    assert "--poly: zero denominator" in capsys.readouterr().err
    over_z = tmp_path / "over_z.gb"
    over_z.write_text("ring Z\nalphabet x\ngen x x\n")
    assert main(["normal-form", str(over_z), "--poly", "1/2"]) == 2
    assert "--poly: not an integer" in capsys.readouterr().err
    # an oracle line after a generator would be ignored, so it is refused
    late = tmp_path / "late_oracle.gb"
    late.write_text("ring Q\nalphabet x y z\ngen x z\noracle commutative\n")
    assert main(["quotient-basis", str(late), "--max-deg", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "late_oracle.gb:4" in captured.err
    assert "oracle must be declared before generators" in captured.err
    # a lie block runs in the free algebra, so another oracle is refused
    lie = tmp_path / "commutative_sl2.lie"
    sl2 = (FIXTURES / "sl2.lie").read_text()
    lie.write_text(sl2.replace("ring Z\n", "ring Z\noracle commutative\n"))
    assert main(["pbw", str(lie), "--max-deg", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "commutative_sl2.lie:3" in captured.err
    assert "oracle must be free" in captured.err
    # a lie block and generators in one file: neither half is dropped silently
    both = tmp_path / "both.gb"
    both.write_text("ring Z\nrank 2\nbasis e f\nalphabet x\ngen x\n")
    for command in (["pbw", str(both), "--max-deg", "2"], ["check-gb", str(both)]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "both.gb:4" in captured.err
        assert "cannot share a file" in captured.err


def test_alphabet_limit_is_a_parse_error_at_its_line(tmp_path, capsys):
    # a word holds one byte per letter, so 257 symbols are refused
    names = " ".join(f"x{i}" for i in range(257))
    wide = tmp_path / "wide.gb"
    wide.write_text(f"ring Z\nalphabet {names}\ngen x0\n")
    assert main(["check-gb", str(wide)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wide.gb:2: an alphabet holds at most 256 symbols" in captured.err
    # a lie block names its generators x1..x257 itself: the rank line is at fault
    lie = tmp_path / "wide.lie"
    lie.write_text("ring Z\n# no basis line\nrank 257\n")
    assert main(["pbw", str(lie), "--max-deg", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wide.lie:3: an alphabet holds at most 256 symbols" in captured.err
    # with a basis line the names are at fault
    lie.write_text("ring Z\nrank 257\nbasis " + names + "\n")
    assert main(["pbw", str(lie), "--max-deg", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wide.lie:3: an alphabet holds at most 256 symbols" in captured.err


def test_strict_flag_controls_normal_form(capsys):
    path = str(FIXTURES / "not_gb.gb")
    assert main(["normal-form", path, "--poly", "x x x"]) == 1
    capsys.readouterr()
    assert main(["normal-form", path, "--poly", "x x x", "--no-strict"]) == 0
    out = capsys.readouterr().out
    assert "remainder: y x" in out


def test_seeded_strategy_flag(capsys):
    path = str(FIXTURES / "not_gb.gb")
    remainders = set()
    for seed in range(6):
        assert main([
            "normal-form", path, "--poly", "x x x", "--no-strict",
            "--strategy", f"seeded:{seed}",
        ]) == 0
        out = capsys.readouterr().out
        remainders.add(out.splitlines()[-1])
    # the non-Groebner set gives strategy-dependent remainders
    assert len(remainders) == 2


def test_bad_strategy_is_a_usage_error(capsys):
    path = str(FIXTURES / "not_gb.gb")
    for strategy, message in (
        ("seeded:abc", "error: bad seed in strategy 'seeded:abc'"),
        ("random", "error: unknown strategy 'random' (expected first or seeded:<n>)"),
    ):
        assert main(["normal-form", path, "--poly", "x x x", "--strategy", strategy]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"


def test_quotient_no_strict_labels_output(capsys):
    path = str(FIXTURES / "not_gb.gb")
    assert main(["quotient-basis", path, "--max-deg", "2", "--no-strict"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("basis: G-normal words")


def test_no_strict_then_strict_on_one_parser(capsys):
    # the parser is built once per process; a flag from one call must not
    # leak into the next
    path = str(FIXTURES / "not_gb.gb")
    assert main(["normal-form", path, "--poly", "x x x", "--no-strict"]) == 0
    capsys.readouterr()
    assert main(["normal-form", path, "--poly", "x x x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("NotAGroebnerBasis: ")


def test_complete_max_rounds(capsys):
    path = str(FIXTURES / "not_gb.gb")
    assert main(["complete", path, "--max-deg", "3", "--max-rounds", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "RoundsExceeded: no Groebner basis after 1 rounds\n"


def test_division_over_its_step_budget_is_an_error(tmp_path, capsys, monkeypatch):
    # c rewrites to b + a, so c^21 takes far more than 50 steps
    path = tmp_path / "sum.gb"
    path.write_text("ring Z\nalphabet a b c\ngen c - b - a\n")
    monkeypatch.setattr(ugb.cli, "divide", functools.partial(divide, step_budget=50))
    assert main(["normal-form", str(path), "--poly", " ".join(["c"] * 21)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: division exceeded 50 steps\n"


# The options each subcommand's --help lists, in order.
OPTIONS = {
    "check-unital": ["--help", "--format"],
    "spolys": ["--help", "--format"],
    "check-gb": ["--help", "--format"],
    "complete": ["--help", "--format", "--max-deg", "--max-rounds"],
    "normal-form": ["--help", "--format", "--poly", "--no-strict", "--strategy"],
    "quotient-basis": ["--help", "--format", "--max-deg", "--no-strict"],
    "decompose": ["--help", "--format", "--poly", "--no-strict"],
    "pbw": ["--help", "--format", "--max-deg"],
    "member": ["--help", "--format", "--poly", "--max-deg"],
}


def _help(capsys, argv):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    return capsys.readouterr().out


def test_cli_surface(capsys):
    commands = re.search(r"\{([a-z,-]+)\}", _help(capsys, ["--help"])).group(1)
    assert commands.split(",") == list(OPTIONS)
    for command, expected in OPTIONS.items():
        text = _help(capsys, [command, "--help"])
        section = text.split("\noptions:\n", 1)[1]
        listed = [
            flag
            for line in section.splitlines()
            if line.startswith("  -")
            for flag in re.findall(r"--[a-z-]+", line)
        ]
        assert listed == expected, command
