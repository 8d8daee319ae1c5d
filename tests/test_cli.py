import json
import random
import re
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import curvesig
import curvesig.cli
from curvesig import (
    Cusp,
    DeformationScenario,
    EqualityVerdict,
    ObstructionReport,
    RationalVerdict,
    SweepVerdict,
    full_report,
    integral,
    torus_signature_function,
)
from curvesig.cli import format_rational, main
from curvesig.documents import (
    ScenarioFormatError,
    parse_rational,
    parse_report,
    parse_scenario,
    serialize_report,
)

ROOT = Path(__file__).resolve().parent.parent
FLOAT_NOTATION = re.compile(r"\d\.\d|[0-9]e[+-]|\binf\b|\bnan\b")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/2", Fraction(1, 2)),
            ("-5/6", Fraction(-5, 6)),
            ("+7/9", Fraction(7, 9)),
            ("3", Fraction(3)),
            ("-4", Fraction(-4)),
            ("10/4", Fraction(5, 2)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["1.5", "1e3", " 1/2", "1/2 ", "1 /2", "2/0", "/3", "2/", "a/b", ""])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)


class TestFormatRational:
    def test_integer_collapses(self):
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(0) == "0"

    def test_fraction_form(self):
        assert format_rational(Fraction(-5, 6)) == "-5/6"


class TestInvariantsCommand:
    def test_2_3(self, capsys):
        code, out, err = run(capsys, "invariants", "2", "3")
        assert code == 0 and err == ""
        assert out.splitlines() == ["mu = 2", "M_bar = 1", "M = 11/6", "N2 = -5/6"]

    def test_2_7(self, capsys):
        code, out, _ = run(capsys, "invariants", "2", "7")
        assert code == 0
        assert out.splitlines() == ["mu = 6", "M_bar = 3", "M = 59/14", "N2 = -17/14"]

    def test_non_coprime_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "invariants", "2", "4")
        assert code == 2 and out == ""
        assert "coprime" in err

    def test_unprintable_m_is_an_input_error_with_empty_stdout(self, capsys):
        # mu and M_bar fit the int-to-str digit limit, but the numerator of M,
        # about q**2, does not: that error must come before any line is printed
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("no int-to-str digit limit")
        q = 10 ** (limit // 2 + 100) + 1
        code, out, err = run(capsys, "invariants", "2", str(q))
        assert code == 2 and out == ""
        assert "error:" in err


class TestSignatureCommand:
    def test_full_function(self, capsys):
        code, out, _ = run(capsys, "signature", "2", "3")
        assert code == 0
        assert out.splitlines() == [
            "(0, 1/6): 0",
            "(1/6, 5/6): -2",
            "(5/6, 1): 0",
            "integral = -4/3",
        ]

    def test_ends_render_as_their_fractions(self, capsys):
        # the reference writes each end through Fraction and format_rational;
        # the pairs are the tabulate pool (pq <= 260) and (100, 101)
        pairs = [(p, q) for p in range(2, 17) for q in range(p + 1, 131) if gcd(p, q) == 1 and p * q <= 260]
        for p, q in [*pairs, (100, 101)]:
            fn = torus_signature_function(Cusp(p, q))
            points = [Fraction(0), *(Fraction(c, fn.denominator) for c in fn.cuts), Fraction(1)]
            expected = "".join(
                f"({format_rational(lo)}, {format_rational(hi)}): {value}\n"
                for lo, hi, value in zip(points, points[1:], fn.values)
            )
            expected += f"integral = {format_rational(integral(fn))}\n"
            assert run(capsys, "signature", str(p), str(q)) == (0, expected, ""), (p, q)

    def test_at_point(self, capsys):
        code, out, _ = run(capsys, "signature", "2", "3", "--at", "1/2")
        assert code == 0 and out.strip() == "-2"

    def test_at_jump_point_reports_the_offender(self, capsys):
        code, out, err = run(capsys, "signature", "2", "3", "--at", "1/6")
        assert code == 2 and out == ""
        assert "1/6" in err

    def test_bad_rational_argument(self, capsys):
        code, _, err = run(capsys, "signature", "2", "3", "--at", "0.5")
        assert code == 2 and "rational" in err


class TestClosedStdout:
    def test_reader_closing_early_is_not_an_input_error(self, start_cli):
        # about 295 kB of output, more than a pipe buffer holds, so the
        # command is still writing when the reader goes away
        with start_cli(["signature", "100", "101"]) as child:
            assert child.stdout.readline() == b"(0, 1/10100): 0\n"
            child.stdout.close()
            assert child.stderr.read() == b""
            assert child.wait(timeout=120) == 141


class TestCheckCommand:
    def write_scenario(self, tmp_path, payload):
        path = tmp_path / "scenario.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_obstructed_scenario(self, tmp_path, capsys):
        path = self.write_scenario(
            tmp_path,
            {"central": [2, 7], "cusps": [[2, 3], [2, 3], [2, 3]], "double_points": 0, "genus": 0},
        )
        code, out, _ = run(capsys, "check", path)
        assert code == 1
        document = json.loads(out)
        assert document["overall"] == "obstructed"
        assert document["m_number_bound"] == {
            "verdict": "fails",
            "left": "9/7",
            "right": "2/9",
            "margin": "-67/63",
        }
        assert document["genus_formula"]["verdict"] == "holds"

    def test_admissible_scenario(self, tmp_path, capsys):
        path = self.write_scenario(
            tmp_path, {"central": [2, 3], "cusps": [], "double_points": 1, "genus": 0}
        )
        code, out, _ = run(capsys, "check", path)
        assert code == 0
        assert json.loads(out)["overall"] == "admissible"

    def test_non_coprime_cusp_is_status_two(self, tmp_path, capsys):
        path = self.write_scenario(
            tmp_path, {"central": [2, 3], "cusps": [[2, 4]], "double_points": 0, "genus": 0}
        )
        code, out, err = run(capsys, "check", path)
        assert code == 2 and out == ""
        assert "cusps[0]" in err

    def test_unknown_key_is_status_two(self, tmp_path, capsys):
        path = self.write_scenario(
            tmp_path,
            {"central": [2, 3], "cusps": [], "double_points": 0, "genus": 0, "color": "red"},
        )
        code, _, err = run(capsys, "check", path)
        assert code == 2 and "color" in err

    def test_repeated_key_is_status_two(self, tmp_path, capsys):
        # json.loads alone keeps the last "central", and the (2, 5) check exits 1
        path = self.write_scenario(
            tmp_path, '{"central": [2, 3], "cusps": [[2, 3]], "double_points": 0, "genus": 0, "central": [2, 5]}'
        )
        code, out, err = run(capsys, "check", path)
        assert code == 2 and out == ""
        assert err == "error: repeated key: central\n"

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, '{"central": [2, 3],\n  "cusps": }')
        code, _, err = run(capsys, "check", path)
        assert code == 2
        assert "line 2" in err

    def test_missing_file_is_status_two(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/scenario.json")
        assert code == 2 and err != ""

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("double_points", -1, "double_points must be a non-negative integer, got -1"),
            ("genus", True, "genus must be a non-negative integer, got True"),
        ],
    )
    def test_bad_count_is_status_two(self, tmp_path, capsys, key, value, message):
        payload = {"central": [2, 3], "cusps": [], "double_points": 0, "genus": 0, key: value}
        code, out, err = run(capsys, "check", self.write_scenario(tmp_path, payload))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_deeply_nested_json_is_status_two(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, "[" * 100_000)
        for argv in (("check", path), ("bmy", "2", "3", "--cusps-file", path)):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestMilnorCap:
    HUGE = "9999999999999999999999"

    @pytest.mark.parametrize(
        "argv",
        [
            ["signature", HUGE, "7"],
            ["signature", HUGE, "7", "--at", "1/2"],
            ["check", "huge.json"],
            ["enumerate", HUGE, "7", "--max-genus", "1", "--max-double-points", "1"],
        ],
        ids=["signature", "signature-at", "check", "enumerate"],
    )
    def test_huge_cusp_is_status_two_at_once(self, tmp_path, monkeypatch, capsys, deadline, argv):
        scenario = {"central": [7, int(self.HUGE)], "cusps": [[2, 3]], "double_points": 0, "genus": 0}
        (tmp_path / "huge.json").write_text(json.dumps(scenario))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "above the cap of 100000" in err
        assert err.count("\n") == 1


class TestScenarioParsing:
    def test_round_trip_of_fields(self):
        scenario = parse_scenario(
            json.dumps(
                {"central": [7, 2], "cusps": [[2, 3], [3, 4]], "double_points": 2, "genus": 1}
            )
        )
        assert scenario.central == Cusp(2, 7)
        assert scenario.cusps == (Cusp(2, 3), Cusp(3, 4))
        assert scenario.double_points == 2 and scenario.genus == 1

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            '{"central": [2, 3]}',
            '{"central": [2], "cusps": [], "double_points": 0, "genus": 0}',
            '{"central": [2, 3], "cusps": [[2, "3"]], "double_points": 0, "genus": 0}',
            '{"central": [2, 3], "cusps": [], "double_points": -1, "genus": 0}',
            '{"central": [2, 3], "cusps": [], "double_points": 0, "genus": true}',
            '{"central": [2, 3], "cusps": 3, "double_points": 0, "genus": 0}',
            '{"central": [2, 3], "cusps": [], "double_points": 0, "genus": 0, "central": [2, 5]}',
        ],
    )
    def test_rejects_malformed_documents(self, payload):
        with pytest.raises(ScenarioFormatError):
            parse_scenario(payload)


class TestEnumerateCommand:
    def test_trefoil_budget_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2", "3", "--max-genus", "0", "--max-double-points", "1")
        assert code == 0
        assert out.splitlines() == [
            "cusps=[] genus=0 double_points=1",
            "cusps=[(2,3)] genus=0 double_points=0",
        ]

    def test_count_flag(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "2", "3", "--max-genus", "0", "--max-double-points", "1", "--count"
        )
        assert code == 0 and out.strip() == "2"

    def test_a6_excludes_three_trefoils(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2", "7", "--max-genus", "0", "--max-double-points", "0")
        assert code == 0
        assert "cusps=[(2,7)] genus=0 double_points=0" in out.splitlines()
        assert "cusps=[(2,3),(2,3),(2,3)]" not in out

    def test_non_coprime_central(self, capsys):
        code, _, err = run(capsys, "enumerate", "2", "4")
        assert code == 2 and "coprime" in err

    def test_without_genus_formula_requirement(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "2", "3", "--max-genus", "0", "--max-double-points", "1",
            "--no-genus-formula",
        )
        assert code == 0
        # the single-trefoil fiber with one extra node fails the genus
        # formula (2 != 4) but passes the signature and M-number checks
        assert out.splitlines() == [
            "cusps=[] genus=0 double_points=1",
            "cusps=[(2,3)] genus=0 double_points=0",
            "cusps=[(2,3)] genus=0 double_points=1",
        ]

    def test_output_is_stable_across_runs(self, capsys):
        argv = ("enumerate", "2", "9", "--max-genus", "1", "--max-double-points", "1")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestBmyCommand:
    def test_three_a2_on_3_4_violated(self, capsys):
        code, out, _ = run(
            capsys, "bmy", "3", "4", "--cusps", "2,3", "2,3", "2,3", "--double-points", "0"
        )
        assert code == 1
        assert out.splitlines() == ["sum_M = 11/2", "bound = 149/36", "verdict = violated"]

    def test_no_cusps_holds(self, capsys):
        code, out, _ = run(capsys, "bmy", "2", "3", "--double-points", "0")
        assert code == 0
        assert out.splitlines() == ["sum_M = 0", "bound = 37/18", "verdict = holds"]

    def test_cusps_file(self, tmp_path, capsys):
        path = tmp_path / "cusps.json"
        path.write_text(json.dumps([[2, 3], [2, 3], [2, 3]]))
        code, out, _ = run(capsys, "bmy", "3", "4", "--cusps-file", str(path))
        assert code == 1 and "sum_M = 11/2" in out

    def test_cusps_file_of_an_object_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "cusps.json"
        path.write_text(json.dumps({"cusps": [[2, 3]]}))
        code, out, err = run(capsys, "bmy", "3", "4", "--cusps-file", str(path))
        assert (code, out) == (2, "")
        assert "cusp file must contain a JSON list of [p, q] pairs" in err

    def test_non_coprime_is_status_two(self, capsys):
        code, _, err = run(capsys, "bmy", "2", "4")
        assert code == 2 and "coprime" in err

    @pytest.mark.parametrize(
        "cusp,message",
        [
            ("2-3", "cusp must be written 'p,q', got '2-3'"),
            ("4,6", "cusp '4,6': p and q must be coprime"),
            ("2,x", "cusp '2,x': invalid literal for int()"),
        ],
        ids=["not_a_pair", "not_coprime", "not_an_integer"],
    )
    def test_malformed_inline_cusp(self, capsys, cusp, message):
        code, out, err = run(capsys, "bmy", "2", "3", "--cusps", cusp)
        assert (code, out) == (2, "") and message in err

    def test_unprintable_bound_is_an_input_error_with_empty_stdout(self, capsys):
        # the double-point count fits the digit limit, the bound's numerator
        # does not, and sum_M = 11/6 must not be printed before the error
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("no int-to-str digit limit")
        nines = "9" * (limit - 1)
        code, out, err = run(capsys, "bmy", "3", "4", "--cusps", "2,3", "--double-points", nines)
        assert code == 2 and out == ""
        assert "error:" in err


def reference_parser():
    """The hand-written argparse builder `curvesig.cli` had before its grammar
    became a table, kept as the reference for the table and the reader."""
    import argparse

    cli = curvesig.cli
    parser = argparse.ArgumentParser(
        prog="curvesig",
        description="Exact invariants of plane curve singularities and deformation obstruction checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="print mu, M_bar, M and N2 of the (p, q) cusp")
    p_inv.add_argument("p", type=int)
    p_inv.add_argument("q", type=int)
    p_inv.set_defaults(handler=cli._cmd_invariants)

    p_sig = sub.add_parser("signature", help="signature function of the (p, q) torus knot")
    p_sig.add_argument("p", type=int)
    p_sig.add_argument("q", type=int)
    p_sig.add_argument("--at", metavar="X", help="evaluate at the rational X instead of printing the whole function")
    p_sig.set_defaults(handler=cli._cmd_signature)

    p_check = sub.add_parser("check", help="evaluate all obstruction checks for a scenario file")
    p_check.add_argument("path")
    p_check.set_defaults(handler=cli._cmd_check)

    p_enum = sub.add_parser("enumerate", help="list non-obstructed fiber configurations for a central cusp")
    p_enum.add_argument("p", type=int)
    p_enum.add_argument("q", type=int)
    p_enum.add_argument("--max-genus", type=int, default=0)
    p_enum.add_argument("--max-double-points", type=int, default=0)
    p_enum.add_argument("--count", action="store_true", help="print only the number of configurations")
    p_enum.add_argument(
        "--no-genus-formula",
        action="store_true",
        help="do not require the genus formula to hold for emitted configurations",
    )
    p_enum.set_defaults(handler=cli._cmd_enumerate)

    p_bmy = sub.add_parser("bmy", help="cuspidal-content bound for a parametric curve of bidegree (p, q)")
    p_bmy.add_argument("p", type=int)
    p_bmy.add_argument("q", type=int)
    p_bmy.add_argument("--cusps", nargs="*", default=[], metavar="P,Q", help="cusps of the curve, written p,q")
    p_bmy.add_argument("--cusps-file", metavar="PATH", help="JSON file with a list of [p, q] pairs")
    p_bmy.add_argument("--double-points", type=int, default=0)
    p_bmy.set_defaults(handler=cli._cmd_bmy)

    return parser


def subparsers(parser):
    import argparse

    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# token pools of the random command lines: well-formed values, then tokens
# only argparse reads (abbreviations, '=' forms, '--', help, values starting
# with '-') and tokens int() or argparse refuse
ARGV_VALUES = {
    "int": ["2", "3", "5", "7", "0", "12", "+4", " 5", "٣", "1_0", "007"],
    "text": ["2/5", "3/10", "x", "", "2,3", "bench/cli_inputs/mixed.json", "a b", "=", "1e3"],
}
ARGV_NOISE = [
    "invariants", "signature", "check", "enumerate", "bmy", "-1", "-2,3", "-1/3", "2.5", "²",
    "--at", "--max-genus", "--max-double-points", "--count", "--no-genus-formula", "--cusps",
    "--cusps-file", "--double-points", "--max-g", "--cusps-f", "--co", "--no", "--max-genus=1",
    "--at=2/5", "--cusps=2,3", "--", "-h", "--help", "-", "-x", "--unknown", "9" * 5000,
]
# command -> (positional pools, option -> value pool or None for a flag)
ARGV_GRAMMAR = {
    "invariants": (["int", "int"], {}),
    "signature": (["int", "int"], {"--at": "text"}),
    "check": (["text"], {}),
    "enumerate": (["int", "int"], {"--max-genus": "int", "--max-double-points": "int",
                                   "--count": None, "--no-genus-formula": None}),
    "bmy": (["int", "int"], {"--cusps": "list", "--cusps-file": "text", "--double-points": "int"}),
}


def random_argv(rng: random.Random) -> list[str]:
    if rng.random() < 0.25:
        pool = ARGV_NOISE + ARGV_VALUES["int"] + ARGV_VALUES["text"]
        return [rng.choice(pool) for _ in range(rng.randrange(8))]
    command = rng.choice(list(ARGV_GRAMMAR))
    positionals, options = ARGV_GRAMMAR[command]
    argv = [command, *(rng.choice(ARGV_VALUES[pool]) for pool in positionals)]
    for _ in range(rng.randrange(4)):
        option = rng.choice([*options, "--count"]) if options else "--count"
        pool = options.get(option)
        spelling = option[:rng.randrange(3, len(option))] if rng.random() < 0.15 else option
        if pool in ("int", "text") and rng.random() < 0.15:
            argv.append(f"{spelling}={rng.choice(ARGV_VALUES[pool])}")
            continue
        argv.append(spelling)
        if pool == "list":
            argv += rng.choices(ARGV_VALUES["text"] + ARGV_VALUES["int"], k=rng.randrange(4))
        elif pool is not None:
            argv.append(rng.choice(ARGV_VALUES[pool]))
    for _ in range(rng.choice([0, 0, 1, 2])):
        at = rng.randrange(len(argv) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            argv.insert(at, rng.choice(ARGV_NOISE))
        elif at < len(argv):
            if edit == 1:
                del argv[at]
            else:
                argv[at] = rng.choice(ARGV_NOISE)
    return argv


def reference_namespace(parser, argv):
    """vars() of the reference's namespace, or None where argparse exits."""
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


class TestArgvReader:
    """`_read_argv` reads a well-formed line to exactly argparse's namespace
    and leaves every other line to argparse, which the table also builds."""

    GOLDEN = [c["args"] for c in json.loads((ROOT / "bench" / "expected" / "cli.json").read_text())]

    def test_help_is_the_reference_help(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        built, reference = curvesig.cli._build_parser(), reference_parser()
        assert built.format_help() == reference.format_help()
        ours, theirs = subparsers(built), subparsers(reference)
        assert list(ours) == list(theirs) == list(curvesig.cli._COMMANDS)
        for command in theirs:
            assert ours[command].format_help() == theirs[command].format_help(), command

    def test_golden_lines(self):
        reference = reference_parser()
        read = {" ".join(argv) for argv in self.GOLDEN if curvesig.cli._read_argv(argv) is not None}
        assert read == {" ".join(argv) for argv in self.GOLDEN} - {
            "invariants 2", "enumerate 2 7 --max-genus -1"}
        for argv in self.GOLDEN:
            self.assert_agrees(reference, argv)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_lines_agree_with_argparse(self, seed):
        rng = random.Random(2500 + seed)
        reference = reference_parser()
        outcomes = [self.assert_agrees(reference, random_argv(rng)) for _ in range(1500)]
        # both readers get a real share of the lines, refused lines included
        assert outcomes.count("read") > 200
        assert outcomes.count("refused") > 500
        assert outcomes.count("argparse") > 30

    @staticmethod
    def assert_agrees(reference, argv) -> str:
        ours = curvesig.cli._read_argv(list(argv))
        theirs = reference_namespace(reference, list(argv))
        if ours is None:
            return "refused" if theirs is None else "argparse"
        assert theirs is not None, argv
        ours = vars(ours)
        assert ours.pop("handler") is theirs.pop("handler"), argv
        assert ours == theirs, argv
        assert [type(v) for v in ours.values()] == [type(theirs[k]) for k in ours], argv
        return "read"

    def test_help_goes_through_argparse(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: curvesig")

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "2", "7", "--max-g", "0", "--max-d", "1"],
            ["enumerate", "2", "7", "--max-genus=0", "--max-double-points=1"],
        ],
        ids=["abbreviated", "equals"],
    )
    def test_other_spellings_go_through_argparse(self, capsys, argv):
        assert curvesig.cli._read_argv(argv) is None
        expected = run(capsys, "enumerate", "2", "7", "--max-genus", "0", "--max-double-points", "1")
        assert expected[0] == 0 and expected[1]
        assert run(capsys, *argv) == expected


class TestReportDocuments:
    def scenarios(self):
        a2, a4, a6 = Cusp(2, 3), Cusp(2, 5), Cusp(2, 7)
        yield DeformationScenario(a2, (), 1, 0)
        yield DeformationScenario(a6, (a2, a2, a2), 0, 0)
        yield DeformationScenario(a6, (a4,), 1, 0)
        yield DeformationScenario(Cusp(3, 4), (a2, a2), 0, 1)

    def test_round_trip_is_exact(self):
        for scenario in self.scenarios():
            report = full_report(scenario)
            assert parse_report(serialize_report(report)) == report

    def test_serialization_is_stable(self):
        for scenario in self.scenarios():
            report = full_report(scenario)
            text = serialize_report(report)
            assert serialize_report(parse_report(text)) == text

    def test_randomized_round_trips(self):
        rng = random.Random(99)
        pool = [Cusp(2, 3), Cusp(2, 5), Cusp(2, 7), Cusp(3, 4), Cusp(3, 5)]
        for _ in range(50):
            scenario = DeformationScenario(
                rng.choice(pool),
                tuple(rng.choice(pool) for _ in range(rng.randint(0, 3))),
                rng.randint(0, 2),
                rng.randint(0, 2),
            )
            report = full_report(scenario)
            assert parse_report(serialize_report(report)) == report

    @pytest.mark.parametrize("seed", range(5))
    def test_constructed_reports_round_trip(self, seed):
        # any report the records accept serializes to a document that parses
        # back to it, not only the reports full_report builds
        rng = random.Random(700 + seed)

        def side():
            return rng.randint(-10**rng.randint(1, 30), 10**rng.randint(1, 30))

        def witness():
            denominator = rng.randint(2, 10**rng.randint(1, 20))
            return Fraction(rng.randint(1, denominator - 1), denominator)

        def rational():
            value = Fraction(side(), rng.randint(1, 10**rng.randint(1, 20)))
            return value.numerator if rng.random() < 0.3 else value

        for _ in range(40):
            report = ObstructionReport(
                EqualityVerdict(side(), side()),
                SweepVerdict(witness(), side(), side()),
                SweepVerdict(witness(), side(), side()),
                RationalVerdict(rational(), rational()),
            )
            text = serialize_report(report)
            again = parse_report(text)
            assert again == report
            assert serialize_report(again) == text

    def test_rationals_are_strings_with_denominators(self):
        report = full_report(DeformationScenario(Cusp(2, 3), (), 1, 0))
        document = json.loads(serialize_report(report))
        assert document["m_number_bound"]["left"] == "-11/6"
        assert document["m_number_bound"]["right"] == "20/9"
        assert isinstance(document["signature_bound"]["witness"], str)

    @pytest.mark.parametrize(
        "path,value",
        [
            (("genus_formula",), {"verdict": "holds", "left": 99, "right": 2}),
            (("signature_bound",), {"verdict": "holds", "witness": "1/2", "left": 50, "right": 1, "margin": -49}),
            (("signature_bound", "margin"), 1),
            (("m_number_bound", "margin"), "181/17"),
            (("overall",), "obstructed"),
            (("one_sided_bound", "margin"), 2.0),
            (("one_sided_bound", "verdict"), "fails"),
            (("one_sided_bound", "witness"), "2/24"),
            (("one_sided_bound", "witness"), "0/1"),
            (("signature_bound", "witness"), "1/1"),
            (("signature_bound", "left"), True),
            (("m_number_bound", "right"), "74/9 "),
            (("m_number_bound", "right"), "148/18"),
            (("betti", ), True),
            (("betti", ), 5),
            (("colour",), "red"),
        ],
    )
    def test_rejects_documents_inconsistent_with_their_sides(self, path, value):
        document = json.loads(serialize_report(full_report(DeformationScenario(Cusp(2, 3), (), 0, 1))))
        assert document["one_sided_bound"]["margin"] == 2
        parse_report(json.dumps(document))
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ScenarioFormatError):
            parse_report(json.dumps(document))

    def test_rejects_bad_documents(self):
        with pytest.raises(ScenarioFormatError):
            parse_report("{")
        with pytest.raises(ScenarioFormatError):
            parse_report("[]")
        with pytest.raises(ScenarioFormatError):
            parse_report('{"betti": 0}')
        text = serialize_report(full_report(DeformationScenario(Cusp(2, 3), (), 1, 0)))
        assert '"overall": "admissible"' in text
        with pytest.raises(ScenarioFormatError, match="repeated key: overall"):
            parse_report(text.replace('"overall"', '"overall": "obstructed",\n  "overall"'))


class TestNoFloatNotation:
    def test_core_outputs_are_exact(self, capsys, tmp_path):
        commands = [
            ("invariants", "2", "3"),
            ("invariants", "4", "9"),
            ("signature", "2", "5"),
            ("signature", "3", "4"),
            ("signature", "2", "3", "--at", "1/2"),
            ("enumerate", "2", "5", "--max-genus", "1", "--max-double-points", "1"),
            ("bmy", "3", "4", "--cusps", "2,3", "2,3"),
        ]
        scenario = tmp_path / "s.json"
        scenario.write_text(
            json.dumps({"central": [2, 7], "cusps": [[2, 3]], "double_points": 1, "genus": 1})
        )
        commands.append(("check", str(scenario)))
        for argv in commands:
            main(list(argv))
            out = capsys.readouterr().out
            assert not FLOAT_NOTATION.search(out), (argv, out)


class TestImportPath:
    """numpy is an optional extra: only the Seifert cross-check imports it.
    The value types are plain records, so dataclasses and inspect stay out
    of a cold start too."""

    BLOCK_NUMPY = "import sys\nsys.modules['numpy'] = None\n"
    KEPT_OUT = ["numpy", "dataclasses", "inspect"]

    def test_package_import_leaves_numpy_out(self, run_python):
        proc = run_python(
            "import sys\nimport curvesig, curvesig.cli\n"
            f"print([name for name in {self.KEPT_OUT!r} if name in sys.modules])"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_seifert_route_names_the_extra(self, run_python):
        proc = run_python(
            self.BLOCK_NUMPY
            + "from fractions import Fraction\n"
            + "from curvesig import bidiagonal_seifert, seifert_signature_at\n"
            + "try:\n"
            + "    seifert_signature_at(bidiagonal_seifert(3), Fraction(1, 2))\n"
            + "except ImportError as err:\n"
            + "    print(err)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "curvesig[oracle]" in proc.stdout

    # what a cold `python -m curvesig.cli` loads: curvesig modules, then json
    @pytest.mark.parametrize(
        "argv,modules,loads_json",
        [
            (["invariants", "2", "3"], ["singularities"], False),
            (["signature", "2", "5"], ["singularities", "signature"], False),
            (["signature", "3", "7", "--at", "2/5"], ["singularities", "documents", "signature"], False),
            (["check", "bench/cli_inputs/mixed.json"], ["singularities", "documents", "deformation"], True),
            (["bmy", "3", "4", "--cusps", "2,3"], ["singularities", "deformation"], False),
            (["enumerate", "2", "7", "--count"], ["singularities", "deformation", "enumeration"], False),
        ],
        ids=["invariants", "signature", "signature_at", "check", "bmy", "enumerate"],
    )
    def test_command_loads_only_the_modules_it_runs(self, run_cli, argv, modules, loads_json):
        proc = run_cli(argv)
        assert proc.returncode in (0, 1), proc.stderr
        self.assert_loaded(proc, modules, loads_json)

    def test_cusps_file_loads_documents(self, run_cli, tmp_path):
        path = tmp_path / "cusps.json"
        path.write_text(json.dumps([[2, 3], [2, 3], [2, 3]]))
        proc = run_cli(["bmy", "3", "4", "--cusps-file", str(path)])
        assert proc.returncode == 1, proc.stderr
        self.assert_loaded(proc, ["singularities", "documents", "deformation"], True)

    # an input error found in argv or in the document stops before the library computes
    @pytest.mark.parametrize(
        "argv,modules,loads_json",
        [
            (["check", "bench/cli_inputs/does_not_exist.json"], ["singularities"], False),
            (["check", "bench/cli_inputs/bad_json.json"], ["singularities", "documents"], True),
            (["check", "bench/cli_inputs/unknown_key.json"], ["singularities", "documents"], True),
            (["check", "bench/cli_inputs/not_coprime.json"], ["singularities", "documents"], True),
            (["bmy", "3", "4", "--cusps", "2,3,4"], ["singularities"], False),
        ],
        ids=["missing", "bad_json", "unknown_key", "not_coprime", "bmy_bad_pair"],
    )
    def test_input_error_stops_before_the_library(self, run_cli, argv, modules, loads_json):
        proc = run_cli(argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        self.assert_loaded(proc, modules, loads_json)

    # a line the reader refuses goes to argparse, which words help and diagnostics
    @pytest.mark.parametrize("argv,status", [(["invariants", "2"], 2), (["--help"], 0)], ids=["invariants_2", "help"])
    def test_refused_line_loads_argparse(self, run_cli, argv, status):
        proc = run_cli(argv)
        assert proc.returncode == status
        self.assert_loaded(proc, ["singularities"], False, loads_argparse=True)

    @staticmethod
    def assert_loaded(proc, modules, loads_json, loads_argparse=False):
        loaded = {
            line.rpartition("|")[2].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert {name for name in loaded if name.startswith("curvesig.")} == {f"curvesig.{m}" for m in modules}
        assert ("json" in loaded) == loads_json
        assert ("argparse" in loaded) == loads_argparse
        # the running module is __main__; importing curvesig.cli would compile it twice
        assert "curvesig.cli" not in loaded
        assert "cmath" not in loaded

    def test_deformation_and_enumeration_leave_signature_unloaded(self, run_python):
        proc = run_python(
            "import sys\nimport curvesig.deformation, curvesig.enumeration\n"
            "print('curvesig.signature' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_bare_import_loads_no_module(self, run_python):
        proc = run_python(
            "import sys\nimport curvesig\n"
            "loaded = lambda: sorted(name for name in sys.modules if name.startswith('curvesig.'))\n"
            "print(loaded())\ncurvesig.Cusp\nprint(loaded())\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "['curvesig.singularities']"]

    # the curvesig modules that the first use of a name of each module loads
    LOADS = {
        "singularities": ["singularities"],
        "signature": ["signature", "singularities"],
        "deformation": ["deformation", "singularities"],
        "enumeration": ["deformation", "enumeration", "singularities"],
    }

    def test_package_map_holds_each_module_all(self):
        from curvesig import deformation, enumeration, signature, singularities

        assert list(curvesig._EXPORTS) == list(self.LOADS)
        for module in (singularities, signature, deformation, enumeration):
            home = module.__name__.rpartition(".")[2]
            assert module.__all__ == curvesig._EXPORTS[home]
        for name, home in curvesig._HOMES.items():
            assert getattr(curvesig, name).__module__ == f"curvesig.{home}", name

    def test_each_name_loads_only_its_module(self, run_python):
        # one interpreter, with every curvesig module dropped before each name,
        # so each first use starts from a package that has loaded nothing
        proc = run_python(
            "import importlib, json, sys\nimport curvesig\nloads = {}\n"
            f"for name in [*curvesig.__all__, *{list(self.LOADS)!r}]:\n"
            "    for key in [key for key in sys.modules if key.startswith('curvesig')]:\n"
            "        del sys.modules[key]\n"
            "    getattr(importlib.import_module('curvesig'), name)\n"
            "    loads[name] = sorted(key[9:] for key in sys.modules if key.startswith('curvesig.'))\n"
            "print(json.dumps(loads))\n"
        )
        assert proc.returncode == 0, proc.stderr
        loads = json.loads(proc.stdout)
        homes = curvesig._HOMES
        assert loads == {"__version__": [], **{name: self.LOADS[homes.get(name, name)] for name in [*homes, *self.LOADS]}}
        assert loads["full_report"] == ["deformation", "singularities"]

    def test_namespace_lists_every_module_name_in_order(self, run_python):
        from curvesig import deformation, enumeration, signature, singularities

        expected = ["__version__"]
        for module in (singularities, signature, deformation, enumeration):
            expected += module.__all__
        assert len(expected) == 27 and curvesig.__all__ == expected
        proc = run_python(
            "import json\nnamespace = {}\nexec('from curvesig import *', namespace)\nimport curvesig\n"
            "print(json.dumps([curvesig.__all__, sorted(set(namespace) - {'__builtins__'}), dir(curvesig)]))\n"
        )
        assert proc.returncode == 0, proc.stderr
        cold_all, star, listed = json.loads(proc.stdout)
        assert cold_all == expected
        assert star == sorted(expected)
        assert set(expected) <= set(listed)

    def test_jump_set_is_gone(self):
        # the jump numerators stay integers in singularities._numerators
        assert "jump_set" not in curvesig.__all__
        assert not hasattr(curvesig, "jump_set") and not hasattr(curvesig.signature, "jump_set")

    def test_full_report_is_the_one_route_to_the_verdicts(self):
        for name in ("check_genus_formula", "check_m_number_bound"):
            assert name not in curvesig.__all__
            assert not hasattr(curvesig, name)

    def test_cli_names(self):
        assert curvesig.cli.__all__ == ["format_rational", "main"]

    def test_document_names_resolve_in_documents(self):
        from curvesig import documents

        assert documents.__all__ == [
            "ScenarioFormatError",
            "parse_rational",
            "parse_scenario",
            "serialize_report",
            "parse_report",
        ]
        for name in documents.__all__:
            assert getattr(documents, name).__module__ == "curvesig.documents"
        # the one document name curvesig.cli still resolves, for bench/workloads.py
        assert curvesig.cli.serialize_report is documents.serialize_report
        for name in ("ScenarioFormatError", "parse_rational", "parse_scenario", "parse_report", "no_such_name"):
            with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
                getattr(curvesig.cli, name)

    def test_console_script_runs_main(self):
        # a generated console script calls sys.exit on what main returns
        target = re.search(r'^curvesig = "(.*)"$', (ROOT / "pyproject.toml").read_text(), re.M)
        assert target.group(1) == "curvesig.cli:main"

    def test_module_attribute_and_unknown_name(self, run_python):
        proc = run_python(
            "import curvesig\n"
            "print(curvesig.deformation.full_report is curvesig.full_report)\n"
            "try:\n    curvesig.no_such_name\nexcept AttributeError as err:\n    print(err)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["True", "module 'curvesig' has no attribute 'no_such_name'"]

    # tests/test_golden.py replays in process, where every module is loaded
    # already, so it cannot see an import missing from a cold process
    COLD_REPLAYS = [
        "invariants 2 3",
        "invariants 2",
        "signature 2 5",
        "signature 3 7 --at 2/5",
        "check bench/cli_inputs/mixed.json",
        "check bench/cli_inputs/bad_json.json",
        "enumerate 2 7 --max-genus 0 --max-double-points 1",
        "bmy 3 4 --cusps 2,3 2,3 2,3 --double-points 0",
    ]

    @pytest.mark.parametrize("command", COLD_REPLAYS)
    def test_cold_process_replays_golden_output(self, run_cli, command):
        golden = {" ".join(c["args"]): c for c in json.loads((ROOT / "bench" / "expected" / "cli.json").read_text())}
        proc = run_cli(command.split())
        assert (proc.returncode, proc.stdout) == (golden[command]["status"], golden[command]["stdout"])
