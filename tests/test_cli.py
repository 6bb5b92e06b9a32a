import argparse
import csv
import importlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import carmlab
import carmlab.cli
from carmlab.bench import DEFAULT_BIT_LENGTHS, composite_for_bits
from carmlab.cli import (_MAX_INPUT_BITS, EXIT_BUDGET, EXIT_OK, EXIT_USAGE, _parse_int,
                         build_parser, main)
from carmlab.detector import DEFAULT_THRESHOLD
from carmlab.reproduce import HIGH_WITNESS_CATALOG
from carmlab.schemas import SCHEMAS


def run_fresh(code: str) -> str:
    src = str(Path(carmlab.cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={"PYTHONPATH": src}, timeout=60)
    return done.stdout.strip()


def loaded_after(*argvs: str) -> tuple[list[int], set[str]]:
    # runs each command through main in one fresh interpreter; returns the
    # exit codes and the names of the modules then loaded
    codes, modules = json.loads(run_fresh(
        "import contextlib, io, json, sys; from carmlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv.split()) for argv in {argvs!r}]\n"
        "print(json.dumps([codes, list(sys.modules)]))"))
    return codes, set(modules)


def test_commands_without_extended_precision_do_not_load_mpmath():
    argvs = ("census 561 --exact", "enumerate --limit 2000", "classify 561 --t 40",
             "reproduce --table 2", "schema verdict")
    codes, modules = loaded_after(*argvs)
    assert codes == [0] * 5 and "mpmath" not in modules


@pytest.mark.parametrize("argv", ["model --bits 64", "bound 561"])
def test_commands_with_extended_precision_load_mpmath(argv):
    codes, modules = loaded_after(argv)
    assert codes == [0] and "mpmath" in modules


def test_importing_the_cli_loads_only_the_cli():
    # library modules, numpy and mpmath are imported by the code that uses
    # them, on first use, and the serial sieve needs no process pool
    codes, modules = loaded_after()
    assert {m for m in modules if m.startswith("carmlab")} == {
        "carmlab", "carmlab.cli", "carmlab.errors"}
    assert modules.isdisjoint({"numpy", "mpmath", "concurrent.futures"})


# each command imports only the modules it runs; these stay unloaded
UNLOADED_AFTER = {
    "schema verdict": ("carmlab.detector", "carmlab.census", "carmlab.factoring",
                       "carmlab.korselt", "numpy", "mpmath"),
    "census 561": ("carmlab.detector", "carmlab.korselt", "carmlab.accuracy",
                   "carmlab.bound", "carmlab.bench", "carmlab.reproduce"),
    "classify 561 --t 40": ("carmlab.census", "carmlab.korselt", "carmlab.accuracy",
                            "carmlab.bound", "carmlab.bench", "carmlab.reproduce", "numpy"),
    "enumerate --limit 2000": ("carmlab.detector", "carmlab.census", "carmlab.accuracy",
                               "carmlab.bound", "carmlab.bench", "carmlab.reproduce"),
    "bound 561": ("carmlab.detector", "carmlab.census", "carmlab.accuracy",
                  "carmlab.bench", "carmlab.reproduce", "numpy"),
    "model --bits 64": ("carmlab.census", "carmlab.korselt", "carmlab.bound", "carmlab.bench",
                        "carmlab.reproduce", "numpy"),
    "reproduce --table 2": ("carmlab.detector", "carmlab.accuracy", "carmlab.bench"),
}


@pytest.mark.parametrize("argv", UNLOADED_AFTER)
def test_a_command_loads_only_the_modules_it_runs(argv):
    codes, modules = loaded_after(argv)
    assert codes == [0] and modules.isdisjoint(UNLOADED_AFTER[argv])


def test_parser_defaults_equal_the_library_constants():
    # the parser spells them as strings, so that it loads neither module
    parse = build_parser().parse_args
    assert parse(["classify", "5"]).threshold == DEFAULT_THRESHOLD
    assert parse(["model"]).threshold == DEFAULT_THRESHOLD
    assert parse(["bench"]).bits == DEFAULT_BIT_LENGTHS


def test_every_export_is_its_submodules_object():
    assert len(carmlab.__all__) == 48
    for name in carmlab.__all__:
        module = importlib.import_module(f"carmlab.{carmlab._SUBMODULE[name]}")
        value = getattr(carmlab, name)
        assert value is getattr(module, name), name
        if callable(value):
            assert value.__module__ == module.__name__, name
    namespace = {}
    exec("from carmlab import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(carmlab.__all__)
    assert set(carmlab.__all__) <= set(dir(carmlab))


def test_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'carmlab' has no attribute 'nope'$"):
        carmlab.nope  # noqa: B018


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestCensusCommand:
    def test_text_table_for_21(self, capsys):
        code, out, _ = run(capsys, "census", "21")
        assert code == EXIT_OK
        assert "4/5 = 80.00%" in out
        assert "count_A = 4  count_B = 8  count_C = 8" in out
        # residue row from the reference table
        assert "1    4    9   16    4   15    7    1   18" in out

    def test_json_output_validates(self, capsys):
        payload = run_json(capsys, "census", "21", "--json")
        jsonschema.validate(payload, SCHEMAS["census"])
        assert payload["count_B"] == 8
        assert payload["manifest"]["command"] == "census"

    def test_json_payload_for_561(self, capsys):
        payload = run_json(capsys, "census", "561", "--json")
        manifest = payload.pop("manifest")
        assert payload == {"n": 561, "count_A": 320, "count_B": 0, "count_C": 240,
                           "proportion_num": 3, "proportion_den": 7, "method": "BruteForce"}
        assert manifest["parameters"] == {"command": "census", "csv": "False",
                                          "exact": "False", "json": "True", "n": "561"}

    def test_exact_census(self, capsys):
        payload = run_json(capsys, "census", "561", "--exact", "--json")
        assert payload["proportion_num"] == 3 and payload["proportion_den"] == 7
        assert payload["method"] == "TotientExact"

    def test_exact_text_percentage(self, capsys):
        code, out, _ = run(capsys, "census", "561", "--exact")
        assert code == EXIT_OK and "42.86%" in out

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "census", "21", "--csv")
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header.split(",")[:4] == ["n", "count_A", "count_B", "count_C"]
        assert row.split(",")[:4] == ["21", "4", "8", "8"]

    def test_usage_error_for_tiny_n(self, capsys):
        code, _, err = run(capsys, "census", "2")
        assert code == EXIT_USAGE and "error" in err

    def test_cap_error(self, capsys):
        code, _, err = run(capsys, "census", "10_000_001")
        assert code == EXIT_BUDGET and "census_exact" in err

    def test_exact_counts_plain_composites(self, capsys):
        payload = run_json(capsys, "census", "21", "--exact", "--json")
        assert (payload["count_A"], payload["count_B"], payload["count_C"]) == (4, 8, 8)
        assert payload["method"] == "TotientExact"

    def test_json_and_csv_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["census", "21", "--json", "--csv"])
        assert exit_info.value.code == EXIT_USAGE
        assert "not allowed with argument" in capsys.readouterr().err

    def test_csv_output_file_with_manifest_sidecar(self, capsys, tmp_path):
        target = tmp_path / "census.csv"
        code, out, _ = run(capsys, "census", "21", "--csv", "--output", str(target))
        assert code == EXIT_OK and out == ""
        assert target.read_text() == ("n,count_A,count_B,count_C,proportion_num,"
                                      "proportion_den,method\n21,4,8,8,4,5,BruteForce\n")
        sidecar = json.loads((tmp_path / "census.csv.manifest.json").read_text())
        jsonschema.validate(sidecar, SCHEMAS["manifest"])
        assert sidecar["parameters"]["csv"] == "True"


class TestClassifyCommand:
    def test_carmichael(self, capsys):
        payload = run_json(capsys, "classify", "1729", "--seed", "7")
        jsonschema.validate(payload, SCHEMAS["verdict"])
        assert payload["label"] == "Carmichael"
        assert payload["seed"] == 7

    def test_prime(self, capsys):
        payload = run_json(capsys, "classify", "1009", "--seed", "7")
        assert payload["label"] == "Prime"
        assert payload["basis"] == "DeterministicPrimality"

    @pytest.mark.parametrize("n, probabilistic", [
        ("170141183460469231731687303715884105727", True),   # 2^127 - 1
        ("1009", False), ("1729", False)])
    def test_probabilistic_flag(self, capsys, n, probabilistic):
        payload = run_json(capsys, "classify", n)
        jsonschema.validate(payload, SCHEMAS["verdict"])
        assert payload["probabilistic"] is probabilistic
        if payload["label"] == "Prime":
            assert payload["basis"] == ("ProbablePrime" if probabilistic
                                        else "DeterministicPrimality")

    def test_assume_composite(self, capsys):
        payload = run_json(capsys, "classify", "21", "--seed", "7")
        assert payload["label"] == "OtherComposite"
        assert payload["evidence_a"] is not None

    def test_flags_respected(self, capsys):
        payload = run_json(capsys, "classify", "8911", "--seed", "3", "--t", "25",
                           "--threshold", "2/5")
        assert payload["t"] == 25
        assert payload["threshold"] == "2/5"

    def test_deterministic_given_seed(self, capsys):
        first = run_json(capsys, "classify", "561", "--seed", "11")
        second = run_json(capsys, "classify", "561", "--seed", "11")
        first.pop("manifest")
        second.pop("manifest")
        assert first == second

    @pytest.mark.parametrize("n, t", [("1009574349859", 763), ("1009574349860", 764)])
    def test_default_t_next_to_an_integer(self, capsys, n, t):
        # (ln n)^2 - 764 is -5.4e-11 and +7.8e-13: both gaps are below 2^-30
        assert run_json(capsys, "classify", n)["t"] == t

    def test_precondition_error(self, capsys):
        code, _, err = run(capsys, "classify", "1")
        assert code == EXIT_USAGE and "error" in err


class TestEnumerateCommand:
    def test_plain_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--limit", "2000")
        assert code == EXIT_OK
        assert out == "561\n1105\n1729\n"

    def test_empty_listing_is_success(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--limit", "500")
        assert code == EXIT_OK and out == ""

    def test_above_cap(self, capsys):
        code, _, err = run(capsys, "enumerate", "--limit", "10**9")
        assert code == EXIT_BUDGET and "cap" in err

    def test_certificates(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--limit", "2000", "--certificates")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["n"] for r in records] == [561, 1105, 1729]
        for record in records:
            jsonschema.validate(record, SCHEMAS["certificate"])
            assert record["is_carmichael"]

    def test_output_file_with_manifest_sidecar(self, capsys, tmp_path):
        target = tmp_path / "carmichael.txt"
        code, out, _ = run(capsys, "enumerate", "--limit", "2000",
                           "--output", str(target))
        assert code == EXIT_OK and out == ""
        assert target.read_text() == "561\n1105\n1729\n"
        sidecar = json.loads((tmp_path / "carmichael.txt.manifest.json").read_text())
        jsonschema.validate(sidecar, SCHEMAS["manifest"])
        assert sidecar["command"] == "enumerate"


class TestBoundCommand:
    def test_inconclusive_carmichael(self, capsys):
        payload = run_json(capsys, "bound", "561")
        jsonschema.validate(payload, SCHEMAS["bound"])
        assert payload["verdict"] == "Inconclusive"
        assert abs(float(payload["x2"]) - 6.023343281054275) < 1e-12

    def test_guaranteed_case(self, capsys):
        payload = run_json(capsys, "bound", "294409")
        assert payload["verdict"] == "GuaranteedBelowHalf"

    def test_non_carmichael_has_null_verdict(self, capsys):
        payload = run_json(capsys, "bound", "8")
        jsonschema.validate(payload, SCHEMAS["bound"])
        assert payload["verdict"] is None

    def test_no_factoring_unless_base_2_lies(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        # the handler imports factorize when it runs, so patch its module
        monkeypatch.setattr("carmlab.factoring.factorize", refuse)
        payload = run_json(capsys, "bound", str(composite_for_bits(128)))
        assert payload["verdict"] is None
        monkeypatch.undo()
        assert run_json(capsys, "bound", "561")["verdict"] == "Inconclusive"

    def test_bracket_straddles_root(self, capsys):
        payload = run_json(capsys, "bound", "1729")
        assert float(payload["root_lo"]) <= float(payload["x2"])
        assert float(payload["root_hi"]) - float(payload["root_lo"]) <= 1.1e-9

    def test_bracket_width_is_not_a_flag(self, capsys):
        # the bisection always narrows to DEFAULT_BRACKET_WIDTH
        with pytest.raises(SystemExit) as exit_info:
            main(["bound", "561", "--bracket-width", "1e-3"])
        assert exit_info.value.code == EXIT_USAGE


class TestModelCommand:
    def test_posterior_at_1024_bits(self, capsys):
        payload = run_json(capsys, "model", "--bits", "1024",
                           "--threshold", "0.45")
        jsonschema.validate(payload, SCHEMAS["model"])
        assert payload["t"] == 503791
        assert float(payload["posterior"]) >= 0.999999

    def test_general_variant(self, capsys):
        payload = run_json(capsys, "model", "--bits", "1024", "--general")
        assert payload["model"] == "general"
        assert float(payload["posterior"]) >= 0.999999

    def test_explicit_assumptions(self, capsys):
        payload = run_json(capsys, "model", "--bits", "64", "--t", "100",
                           "--fraction-a", "1/3", "--fraction-b", "1/3")
        assert payload["fraction_A_num"] == 1 and payload["fraction_A_den"] == 3

    def test_threshold_as_decimal_string_is_exact(self, capsys):
        payload = run_json(capsys, "model", "--bits", "64", "--t", "10",
                           "--threshold", "0.45")
        assert payload["threshold_num"] == 9 and payload["threshold_den"] == 20

    def test_bits_above_input_limit_rejected(self, capsys):
        code, out, err = run(capsys, "model", "--bits", "100000")
        assert code == EXIT_USAGE and out == "" and "--bits" in err


class TestReproduceCommand:
    def test_table_1_text(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--table", "1")
        assert code == EXIT_OK
        assert "all cells match: True" in out

    def test_table_1_csv(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--table", "1", "--csv")
        lines = out.strip().splitlines()
        assert lines[0] == "a,computed,published,match,witness"
        assert len(lines) == 21

    def test_table_2_csv_parses_to_the_header_width(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--table", "2", "--csv")
        assert code == EXIT_OK
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert len(header) == 8 and len(rows) == 16
        assert all(len(row) == len(header) for row in rows)
        printed = [row[header.index("printed_n")] for row in rows]
        assert printed == [entry.printed_n for entry in HIGH_WITNESS_CATALOG]

    def test_table_2_json(self, capsys):
        payload = run_json(capsys, "reproduce", "--table", "2", "--json")
        assert payload["all_match"] is True
        assert len(payload["rows"]) == 16
        assert payload["flagged_rows"] == ["26,904,099,2399,565"]

    def test_proportions_report_discrepancy(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--proportions")
        assert code == EXIT_OK
        assert "DIFF" in out and "0.2504" in out

    def test_proportions_have_no_csv_form(self, capsys, tmp_path):
        target = tmp_path / "proportions.csv"
        code, out, err = run(capsys, "reproduce", "--proportions", "--csv",
                             "--output", str(target))
        assert code == EXIT_USAGE and out == "" and "no CSV form" in err
        assert not target.exists()

    def test_figure_1_series(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--figure", "1")
        lines = out.strip().splitlines()
        assert lines[0] == "a,value"
        assert lines[1].startswith("1.000000,1")

    def test_figure_2_histogram(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--figure", "2", "--n", "21",
                           "--t", "9", "--trials", "50", "--seed", "1")
        lines = out.strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 11  # t + 1 bins
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 50

    def test_figure_2_draw_cap_is_a_budget_error(self, capsys):
        code, out, err = run(capsys, "reproduce", "--figure", "2", "--n", "561",
                             "--t", "10**9", "--trials", "1")
        assert code == EXIT_BUDGET and out == "" and "exceeds the cap" in err

    @pytest.mark.parametrize("figure", ["1", "2"])
    def test_figure_n_zero_is_a_domain_error(self, capsys, figure):
        code, out, err = run(capsys, "reproduce", "--figure", figure, "--n", "0")
        assert code == EXIT_USAGE and out == ""
        assert "got 0" in err

    def test_json_output_embeds_manifest(self, capsys, tmp_path):
        target = tmp_path / "table1.json"
        code, _, _ = run(capsys, "reproduce", "--table", "1", "--json",
                         "--output", str(target))
        assert code == EXIT_OK
        payload = json.loads(target.read_text())
        jsonschema.validate(payload["manifest"], SCHEMAS["manifest"])


class TestBenchCommand:
    def test_small_run(self, capsys):
        payload = run_json(capsys, "bench", "--bits", "16:24:32", "--t", "4",
                           "--repeats", "1")
        jsonschema.validate(payload, SCHEMAS["bench"])
        assert len(payload["points"]) == 3
        assert payload["slope_limit"] == 3.5

    def test_bad_bit_length_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--bits", "64:abc"])
        assert exit_info.value.code == EXIT_USAGE
        assert "'abc' is not an integer" in capsys.readouterr().err

    def test_lengths_that_produce_one_size_are_a_usage_error(self, capsys):
        code, _, err = run(capsys, "bench", "--bits", "8:9")
        assert code == EXIT_USAGE
        assert "bit lengths 8:9 all produce 8-bit moduli" in err

    def test_bit_length_above_cap_is_a_budget_error(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "bench", "--bits", "64:10**6")
        assert time.perf_counter() - start < 1
        assert code == EXIT_BUDGET
        assert "exceeds the bench cap" in err


class TestSchemaCommand:
    def test_dumps_known_schema(self, capsys):
        code, out, _ = run(capsys, "schema", "census")
        assert code == EXIT_OK
        assert json.loads(out)["type"] == "object"


class TestIntegerParsing:
    def test_forms(self, capsys):
        for spelling in ("100000", "100_000", "10**5", "1e5"):
            code, out, _ = run(capsys, "enumerate", "--limit", spelling)
            assert code == EXIT_OK
            assert out.strip().splitlines()[-1] == "75361"

    def test_rejects_non_integer(self, capsys):
        with pytest.raises(SystemExit):
            main(["enumerate", "--limit", "1.5"])

    def test_power_size_checked_before_computing(self, capsys):
        assert _parse_int("2**1024") == 1 << 1024
        with pytest.raises(argparse.ArgumentTypeError, match="14000 bits"):
            _parse_int("2**100000")
        with pytest.raises(SystemExit) as exit_info:
            main(["census", "2**100000"])
        assert exit_info.value.code == EXIT_USAGE

    def test_too_long_decimal_exceeds_bits(self, capsys):
        # int() refuses a decimal past 4,300 digits; it still spells an integer
        for text in ("7" * 4400, "-" + "7" * 4400, "7_" * 4400 + "7"):
            with pytest.raises(argparse.ArgumentTypeError, match="14000 bits"):
                _parse_int(text)
        assert _parse_int("0" * 4400 + "7") == 7
        # padded past that limit, a value above 2^53 still parses exactly
        assert _parse_int("0" * 4400 + "9007199254740993") == 9007199254740993
        assert _parse_int("-" + "0" * 4400 + "9007199254740993") == -9007199254740993
        for text in ("_1", "1.5", "0x10"):
            with pytest.raises(argparse.ArgumentTypeError, match="not an integer"):
                _parse_int(text)
        with pytest.raises(SystemExit) as exit_info:
            main(["census", "7" * 4400])
        assert exit_info.value.code == EXIT_USAGE
        assert "exceeds 14000 bits" in capsys.readouterr().err

    def test_largest_accepted_power_prints(self, capsys):
        # str() of an int is limited to 4,300 digits
        largest = _parse_int(f"2**{_MAX_INPUT_BITS - 1}")
        assert largest.bit_length() == _MAX_INPUT_BITS and len(str(largest)) == 4215
        with pytest.raises(argparse.ArgumentTypeError, match="exceeds"):
            _parse_int(f"2**{_MAX_INPUT_BITS}")
        with pytest.raises(SystemExit) as exit_info:
            main(["census", "2**20000"])
        assert exit_info.value.code == EXIT_USAGE

    def test_negative_exponent_is_not_an_integer(self, capsys):
        with pytest.raises(argparse.ArgumentTypeError, match="not an integer"):
            _parse_int("2**-1")
        with pytest.raises(SystemExit) as exit_info:
            main(["enumerate", "--limit", "4**-1"])
        assert exit_info.value.code == EXIT_USAGE
