import ast
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symbidisc import SymPoint, cli, in_sigma2, orbit_sample, sampling
from symbidisc.cli import CSV_HEADER, main
from symbidisc.jsonio import (
    candidate_from_json,
    dumps,
    g2_from_json,
    sympoint_from_json,
    sympoint_to_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def point(s, p):
    return json.dumps({"s": s, "p": p})


IDENTITY_AUTO = '{"h": {"tau": 1, "a": 0}}'
IDENTITY_CANDIDATE = json.dumps({
    "degree_cap": 4,
    "terms": [{"j": 0, "k": 1, "S": 0, "P": 1}, {"j": 1, "k": 0, "S": 1, "P": 0}],
})
SHEAR_CANDIDATE = json.dumps({
    "degree_cap": 4,
    "terms": [{"j": 0, "k": 1, "S": 1, "P": 2}, {"j": 1, "k": 0, "S": 1, "P": 0}],
})


class TestMembership:
    def test_interior_origin(self, capsys):
        code, out, _ = run(capsys, "membership", point(0, 0))
        assert code == 0
        payload = json.loads(out)
        assert payload["region"] == "interior"
        assert payload["margin"] == 1.0
        assert payload["sigma2_residual"] == 0.0

    def test_boundary(self, capsys):
        code, out, _ = run(capsys, "membership", point(2, 1))
        assert code == 1
        assert json.loads(out)["region"] == "boundary"

    def test_exterior(self, capsys):
        code, out, _ = run(capsys, "membership", point(3, 0))
        assert code == 2
        assert json.loads(out)["region"] == "exterior"

    def test_malformed_json(self, capsys):
        code, out, err = run(capsys, "membership", "{not json")
        assert code == 64 and out == "" and err != ""

    def test_missing_key(self, capsys):
        code, _, _ = run(capsys, "membership", '{"s": 0}')
        assert code == 64

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(point(0, 0)))
        code, out, _ = run(capsys, "membership", "-")
        assert code == 0 and json.loads(out)["region"] == "interior"


class TestApply:
    def test_identity(self, capsys):
        code, out, _ = run(capsys, "apply", IDENTITY_AUTO, point(0.4, 0.1))
        assert code == 0
        payload = json.loads(out)
        assert payload["s"] == {"re": 0.4, "im": 0.0}
        assert payload["p"] == {"re": 0.1, "im": 0.0}
        assert payload["check"] <= 1e-15

    def test_royal_transport_map(self, capsys):
        auto = '{"h": {"tau": 1, "a": 0.4}}'
        code, out, _ = run(capsys, "apply", auto, point(0.8, 0.16))
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["s"]["re"]) <= 1e-14 and abs(payload["p"]["re"]) <= 1e-14

    def test_rotation_by_i(self, capsys):
        auto = '{"h": {"tau": {"re": 0, "im": 1}, "a": 0}}'
        code, out, _ = run(capsys, "apply", auto, point(0.4, 0.1))
        assert code == 0
        payload = json.loads(out)
        assert payload["s"] == {"re": 0.0, "im": 0.4}
        assert payload["p"] == {"re": -0.1, "im": 0.0}

    def test_invalid_automorphism_is_input_error(self, capsys):
        code, _, _ = run(capsys, "apply", '{"h": {"tau": 1, "a": 2}}', point(0, 0))
        assert code == 64

    def test_automorphism_without_a_exits_64(self, capsys):
        code, out, err = run(capsys, "apply", '{"h":{"tau":1}}', point(0, 0))
        assert (code, out) == (64, "") and "needs keys 'tau' and 'a'" in err

    def test_degenerate_point_fails(self, capsys):
        auto = '{"h": {"tau": 1, "a": 0.5}}'
        code, _, err = run(capsys, "apply", auto, point(2, 0))
        assert code == 65 and err != ""
        # a non-finite result is refused rather than printed as NaN
        code, out, err = run(capsys, "apply", auto, point(1e300, 1e300))
        assert code == 65 and "NaN" not in out and err != ""

    def test_overflowing_denominator_is_named(self, capsys):
        # |den| = |-8.5e307 + 1.7e308j| lies beyond the largest float
        auto = '{"h":{"tau":{"re":-1,"im":0},"a":{"re":-0.5,"im":0.5}}}'
        code, out, err = run(capsys, "apply", auto,
                             '{"s":{"re":0,"im":1.7e308},"p":{"re":1.7e308,"im":0}}')
        assert (code, out) == (65, "")
        assert err == "error: the modulus of the denominator (-8.5e+307+1.7e+308j) overflows\n"


class TestTransport:
    def test_origin_gives_identity(self, capsys):
        code, out, _ = run(capsys, "transport", point(0, 0))
        assert code == 0
        assert out.strip() == '{"h":{"tau":{"re":1.0,"im":0.0},"a":{"re":0.0,"im":0.0}}}'

    def test_royal_point(self, capsys):
        code, out, _ = run(capsys, "transport", point(1.0, 0.25))
        assert code == 0
        assert out.strip() == '{"h":{"tau":{"re":1.0,"im":0.0},"a":{"re":0.5,"im":0.0}}}'

    def test_non_royal_exits_three(self, capsys):
        code, out, err = run(capsys, "transport", point(1, 0))
        assert code == 3 and out == "" and err != ""

    @pytest.mark.parametrize("s,p,reason", [
        (1, 0, "discriminant residual 1.0 exceeds 1e-09"),
        (4, 4, "|s/2| = 2.0 is not below 1 + 1e-09"),
    ], ids=["residual", "off_the_disc"])
    def test_error_names_the_failed_condition(self, capsys, s, p, reason):
        # (4, 4) = (2*2, 2**2) has residual 0: only |s/2| < 1 + tol fails
        code, out, err = run(capsys, "transport", point(s, p))
        assert (code, out, err) == (3, "", f"not on the royal variety: {reason}\n")


class TestOrbit:
    def test_royal_orbit_csv(self, capsys):
        code, out, _ = run(capsys, "orbit", point(0, 0), "--samples", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        for line in lines[1:]:
            assert float(line.split(",")[4]) <= 1e-10

    def test_non_royal_orbit_has_positive_residuals(self, capsys):
        code, out, _ = run(capsys, "orbit", point(0.5, 0), "--samples", "5")
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[4]) > 0

    def test_zero_samples_header_only(self, capsys):
        code, out, _ = run(capsys, "orbit", point(0, 0), "--samples", "0")
        assert code == 0 and out == CSV_HEADER + "\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "orbit", point(0.5, 0), "--samples", "3", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert len(rows) == 3 and all("sigma2_residual" in row for row in rows)

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run(capsys, "orbit", point(0.5, 0), "--samples", "3", "--seed", "1")
        _, out2, _ = run(capsys, "orbit", point(0.5, 0), "--samples", "3", "--seed", "2")
        assert out1 != out2

    def test_csv_bytes_are_pinned(self, capsys):
        # golden digest: any drift in the seeded draw, the array kernel's rounding or
        # the CSV formatting changes it (numpy 2.4 on x86-64)
        code, out, _ = run(capsys, "orbit", '{"s":0.5,"p":0}', "--samples", "1000", "--seed", "42")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "084729bd88456c06e6a39b361d1d894797faa292be97348fdf1982e578d9204d")

    def test_json_bytes_are_pinned(self, capsys):
        # golden digest taken while rows were still built one SymPoint and dumps at a time
        code, out, _ = run(capsys, "orbit", '{"s":0.5,"p":0}', "--samples", "200", "--seed", "42",
                           "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e3734081e497d16f9ad2126a01f21c81f37c78aeaa44c3c3afc2ce1d11e358c9")

    def test_origin_csv_bytes_are_pinned(self, capsys):
        # the royal case: every residual is rounding-level, so its last digits pin the
        # order of the arithmetic in |s*s - 4p|
        code, out, _ = run(capsys, "orbit", '{"s":0,"p":0}', "--samples", "1000", "--seed", "42")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "923485fbe77e5d7a90930534cdb79b536e0c3842a323c9cd365fbb935553e246")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_spanning_several_chunks_match_each_image(self, capsys, fmt):
        # two full chunks and a remainder, against one row per image built on its own
        count = 2 * cli.ORBIT_CHUNK + 123
        code, out, _ = run(capsys, "orbit", point(0.5, 0), "--samples", str(count),
                           "--seed", "7", "--format", fmt)
        assert code == 0
        images = orbit_sample(SymPoint(0.5, 0.0), count, 7)
        if fmt == "csv":
            rows = [CSV_HEADER] + [",".join("%.17g" % x for x in (q.s.real, q.s.imag, q.p.real,
                                                                  q.p.imag, in_sigma2(q)[1]))
                                   for q in images]
        else:
            rows = [dumps({**sympoint_to_json(q), "sigma2_residual": in_sigma2(q)[1]})
                    for q in images]
        assert out == "".join(row + "\n" for row in rows)

    def test_unallocatable_sample_count_exits_65(self, capsys):
        # 21 PiB of draws: the allocation fails at once, before any memory is touched
        code, out, err = run(capsys, "orbit", '{"s":0,"p":0}', "--samples", "1000000000000000")
        assert (code, out) == (65, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_image_exits_65(self, capsys, monkeypatch, fmt):
        nan = np.array([0.5, complex("nan")])
        monkeypatch.setattr(sampling, "_orbit_arrays", lambda pt, count, seed: (nan, nan))
        code, out, err = run(capsys, "orbit", point(0.5, 0), "--samples", "2", "--format", fmt)
        assert code == 65 and out == "" and err != ""


class TestCommutator:
    def test_identity_candidate_consistent(self, capsys):
        code, out, _ = run(capsys, "commutator", IDENTITY_CANDIDATE, "--tau", "-1")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_star"] is None
        assert payload["bound"] == 2.0
        assert payload["b"] == {"re": 0.0, "im": 0.0}

    def test_shear_candidate_violates(self, capsys):
        code, out, _ = run(capsys, "commutator", SHEAR_CANDIDATE, "--tau", "-1")
        assert code == 4
        payload = json.loads(out)
        assert payload["n_star"] == 2
        assert payload["jacobian_of_G"][0][1] == {"re": -2.0, "im": 0.0}

    def test_small_determinant_above_the_floor_violates(self, capsys):
        # d = 1e-13 lies above the shared pole floor DENOM_THRESHOLD = 1e-14
        cand = '{"terms":[{"j":1,"k":0,"S":1,"P":0},{"j":0,"k":1,"S":0.3,"P":1e-13}]}'
        code, out, _ = run(capsys, "commutator", cand, "--tau", "-1")
        assert code == 4 and json.loads(out)["n_star"] == 4

    def test_tau_as_json_object(self, capsys):
        code, out, _ = run(capsys, "commutator", IDENTITY_CANDIDATE,
                           "--tau", '{"re": 0, "im": 1}')
        assert code == 0 and json.loads(out)["n_star"] is None

    def test_non_unit_tau_rejected(self, capsys):
        code, _, _ = run(capsys, "commutator", IDENTITY_CANDIDATE, "--tau", "3")
        assert code == 64

    def test_unnormalized_candidate_fails(self, capsys):
        cand = json.dumps({"terms": [{"j": 1, "k": 0, "S": 2, "P": 0},
                                     {"j": 0, "k": 1, "S": 0, "P": 1}]})
        code, _, err = run(capsys, "commutator", cand, "--tau", "-1")
        assert code == 65 and err != ""

    def test_negative_exponent_exits_64(self, capsys):
        cand = '{"terms":[{"j":-1,"k":1,"S":0,"P":1}]}'
        code, out, err = run(capsys, "commutator", cand, "--tau", "-1")
        assert (code, out) == (64, "") and "negative exponents (-1, 1)" in err

    @pytest.mark.parametrize("cap", [-3, 6])
    def test_degree_cap_other_than_4_exits_64(self, capsys, cap):
        cand = json.dumps({"terms": [], "degree_cap": cap})
        code, out, err = run(capsys, "commutator", cand, "--tau", "-1")
        assert (code, out) == (64, "") and f"degree cap {cap} is not 4" in err

    def test_unnormalized_error_names_the_jacobian(self, capsys):
        # the message embeds Jacobian2's repr
        code, out, err = run(capsys, "commutator", '{"terms":[]}', "--tau", '{"re":0,"im":1}')
        assert (code, out) == (65, "")
        assert err == ("error: origin Jacobian Jacobian2(m11=0j, m12=0j, m21=0j, m22=0j) "
                       "is not of the form [[1, b], [0, d]]\n")

    @pytest.mark.parametrize("cap", [{"degree_cap": 4}, {}], ids=["cap", "no_cap"])
    def test_output_bytes_are_pinned(self, capsys, cap):
        # tau = exp(0.9i) and a complex d leave rounding-level digits in jacobian_of_G,
        # so any change to the order or kind of its 2x2 arithmetic changes these bytes
        cand = json.dumps({**cap, "terms": [
            {"j": 0, "k": 1, "S": 0.7, "P": {"re": 0.5, "im": 0.3}},
            {"j": 1, "k": 0, "S": 1, "P": 0}]})
        tau = '{"re": 0.6216099682706644, "im": 0.7833269096274834}'
        code, out, _ = run(capsys, "commutator", cand, "--tau", tau)
        assert code == 4
        assert out == (
            '{"tau":{"re":0.6216099682706644,"im":0.7833269096274834},"b":{"re":0.7,"im":0.0},'
            '"jacobian_of_G":[[{"re":1.0,"im":0.0},'
            '{"re":-0.2648730222105349,"im":0.5483288367392385}],'
            '[{"re":0.0,"im":0.0},{"re":1.0000000000000002,"im":0.0}]],'
            '"n_star":4,"bound":2.0}\n')


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("membership", '{"s": {"re": 0.1, "im": 0.2}, "p": {"re": 0.05, "im": -0.01}}'),
        ("apply", '{"h": {"tau": {"re": 0, "im": 1}, "a": {"re": 0.2, "im": 0.1}}}',
         '{"s": 0.3, "p": 0.1}'),
        ("transport", '{"s": 0.8, "p": 0.16}'),
        ("orbit", '{"s": 0.5, "p": 0}', "--samples", "20", "--seed", "42"),
        ("orbit", '{"s": 0, "p": 0}', "--samples", "20", "--format", "json"),
        ("commutator", SHEAR_CANDIDATE, "--tau", '{"re": 0, "im": 1}', "--n-max", "32"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2

    def test_usage_error_is_exit_64(self, capsys):
        for argv in [
            ("orbit",),  # missing point argument
            ("orbit", point(0, 0), "--samples", "-5"),
            ("orbit", point(0, 0), "--seed", "-1"),
            ("commutator", IDENTITY_CANDIDATE, "--tau", "-1", "--n-max", "0"),
            ("membership", '{"s": NaN, "p": 0}'),
            ("apply", '{"h": {"tau": 1, "a": NaN}}', point(0, 0)),
            ("membership", point(0, 0), "--tol", "NaN"),
            ("membership", point(0, 0), "--tol", "-1"),
            ("transport", point(0.8, 0.16), "--tol", "inf"),
            ("transport", point(0.8, 0.16), "--tol", "-1e-9"),
            ("orbit", point(0, 0), "--tol", "1e-9"),  # orbit has no tolerance
            ("membership", '{"s": {"re": null}, "p": 0}'),  # a part that is no number
            ("commutator", IDENTITY_CANDIDATE, "--tau", "3"),  # |tau| != 1
            ("commutator", IDENTITY_CANDIDATE, "--tau", "0"),
        ]:
            code, out, err = run(capsys, *argv)
            assert code == 64 and out == "" and err != "", argv

    def test_unknown_command_is_exit_64(self, capsys):
        code, _, _ = run(capsys, "fly")
        assert code == 64


def _reason(decode, text):
    """What json.loads or the decoder says about text."""
    with pytest.raises(ValueError) as excinfo:
        decode(json.loads(text))
    return str(excinfo.value)


# Every JSON argument: its command, its name in argparse's messages, its decoder, a
# valid text for it, and the command's arguments with X in its place.
JSON_ARGUMENTS = {
    "membership": ("membership", "point", sympoint_from_json, point(0.5, 0),
                   lambda x: [x]),
    "apply_automorphism": ("apply", "automorphism", g2_from_json, IDENTITY_AUTO,
                           lambda x: [x, point(0.5, 0)]),
    "apply_point": ("apply", "point", sympoint_from_json, point(0.5, 0),
                    lambda x: [IDENTITY_AUTO, x]),
    "transport": ("transport", "point", sympoint_from_json, point(1.0, 0.25),
                  lambda x: [x]),
    "orbit": ("orbit", "point", sympoint_from_json, point(0.5, 0),
              lambda x: [x, "--samples", "3"]),
    "commutator_candidate": ("commutator", "candidate", candidate_from_json,
                             IDENTITY_CANDIDATE, lambda x: [x, "--tau", "-1"]),
    "commutator_tau": ("commutator", "--tau", cli._rotation_from_json, "-1",
                       lambda x: [IDENTITY_CANDIDATE, "--tau", x]),
}


# For each JSON argument, a text whose object, or an object inside it, carries a key
# it does not define. The candidate's second term spells S as "s": read as a missing
# S, that typo made b = 0 and passed the commutator test with exit 0.
UNKNOWN_KEY = {
    "membership": '{"s": 0.5, "p": 0, "q": 1}',
    "apply_automorphism": '{"h": {"tau": 1, "a": 0, "b": 0}}',
    "apply_point": '{"s": {"re": 0.5, "img": 0}, "p": 0}',
    "transport": '{"s": 1.0, "p": 0.25, "tol": 1}',
    "orbit": '{"s": 0.5, "p": 0, "samples": 3}',
    "commutator_candidate": '{"terms":[{"j":1,"k":0,"S":1},{"j":0,"k":1,"s":0.5,"P":1}]}',
    "commutator_tau": '{"re": -1, "imag": 0}',
}


class TestInputErrors:
    @pytest.mark.parametrize("argv,argument,expected", [
        (("orbit", point(0, 0), "--samples", "1.5"), "--samples", "1.5 is not an integer >= 0"),
        (("commutator", IDENTITY_CANDIDATE, "--tau", "-1", "--n-max", "x"), "--n-max",
         "x is not an integer >= 1"),
        (("membership", point(0, 0), "--tol", "abc"), "--tol",
         "abc is not a finite tolerance >= 0"),
        # an over-long number is echoed in part; int() refuses more than 4,300 digits
        (("orbit", point(0, 0), "--samples", "1" * 5_000), "--samples",
         f"{'1' * 40}... (5,000 characters) has too many digits"),
        (("membership", point(0, 0), "--tol", "1" * 500), "--tol",
         f"{'1' * 40}... (500 characters) is not a finite tolerance >= 0"),
    ], ids=["samples", "n_max", "tol", "samples_too_long", "tol_too_long"])
    def test_non_number_names_what_is_expected(self, capsys, argv, argument, expected):
        # argparse names the type function when it raises a bare ValueError
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert err.startswith(f"usage: symbidisc {argv[0]} ")
        assert err.endswith(f"\nsymbidisc {argv[0]}: error: argument {argument}: {expected}\n")

    @pytest.mark.parametrize("stdin", [False, True], ids=["argv", "stdin"])
    @pytest.mark.parametrize("text", ["{not json", "[]", None],
                             ids=["malformed", "rejected", "unknown_key"])
    @pytest.mark.parametrize("name", sorted(JSON_ARGUMENTS))
    def test_every_json_argument_exits_64_with_usage_and_reason(self, capsys, monkeypatch,
                                                                 name, text, stdin):
        # "[]" is valid JSON that every decoder rejects with a ValueError; None stands
        # for the argument's own UNKNOWN_KEY text
        command, argument, decode, _, args = JSON_ARGUMENTS[name]
        text = UNKNOWN_KEY[name] if text is None else text
        if stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, command, *args("-" if stdin else text))
        assert (code, out) == (64, "")
        assert err.startswith(f"usage: symbidisc {command} ")
        assert err.endswith(f"\nsymbidisc {command}: error: argument {argument}: "
                            f"{_reason(decode, text)}\n")

    @pytest.mark.parametrize("stdin", [False, True], ids=["argv", "stdin"])
    def test_deeply_nested_json_exits_64(self, capsys, monkeypatch, stdin):
        # json.loads raises RecursionError, not ValueError; 10,000 bytes stay well
        # under the 128 KiB limit on one command-line argument
        text = "[" * 5_000 + "]" * 5_000
        if stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "membership", "-" if stdin else text)
        assert (code, out) == (64, "")
        assert err.startswith("usage: symbidisc membership ")
        assert "\nsymbidisc membership: error: argument point: maximum recursion depth" in err

    @pytest.mark.parametrize("name", sorted(JSON_ARGUMENTS))
    def test_every_json_argument_reads_stdin(self, capsys, monkeypatch, name):
        command, _, _, valid, args = JSON_ARGUMENTS[name]
        expected = run(capsys, command, *args(valid))
        monkeypatch.setattr("sys.stdin", io.StringIO(valid))
        assert run(capsys, command, *args("-")) == expected

    @pytest.mark.parametrize("argv", [["--help"], ["orbit", "--help"]], ids=["top", "command"])
    def test_help_returns_0(self, capsys, argv):
        # argparse exits after printing help; main returns its 0 instead of raising
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: symbidisc")


def test_scalar_commands_do_not_import_numpy():
    script = "\n".join([
        "import sys",
        "from symbidisc.cli import main",
        "main(['membership', '{\"s\": 0.9, \"p\": 0.2}'])",
        "main(['apply', '{\"h\": {\"tau\": 1, \"a\": 0.4}}', '{\"s\": 0.8, \"p\": 0.16}'])",
        "main(['transport', '{\"s\": 1.0, \"p\": 0.25}'])",
        f"main(['commutator', {SHEAR_CANDIDATE!r}, '--tau', '-1'])",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4


LAB_AND_NUMPY = ["symbidisc.candidates", "symbidisc.proof_lab", "symbidisc.sampling",
                 "dataclasses", "numpy"]


def test_scalar_commands_do_not_load_the_proof_lab(capsys):
    # neither half of the lab, nor the dataclasses module that proof_lab's
    # PipelineReport needs, loads; commutator then prints the bytes that
    # TestCommutator.test_output_bytes_are_pinned pins in process
    candidate = json.dumps({"degree_cap": 4, "terms": [
        {"j": 0, "k": 1, "S": 0.7, "P": {"re": 0.5, "im": 0.3}},
        {"j": 1, "k": 0, "S": 1, "P": 0}]})
    tau = '{"re": 0.6216099682706644, "im": 0.7833269096274834}'
    script = "\n".join([
        "import sys",
        "from symbidisc.cli import main",
        "main(['membership', '{\"s\": 0.9, \"p\": 0.2}'])",
        "main(['apply', '{\"h\": {\"tau\": 1, \"a\": 0.4}}', '{\"s\": 0.8, \"p\": 0.16}'])",
        "main(['transport', '{\"s\": 1.0, \"p\": 0.25}'])",
        f"print([name for name in {LAB_AND_NUMPY!r} if name in sys.modules])",
        f"sys.exit(main(['commutator', {candidate!r}, '--tau', {tau!r}]))",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 4, proc.stderr
    lines = proc.stdout.splitlines(keepends=True)
    assert lines[3] == "[]\n"
    assert run(capsys, "commutator", candidate, "--tau", tau) == (4, lines[4], "")


# numpy 2.x imports typing itself, so typing is absent only from the scalar commands
@pytest.mark.parametrize("argv,loaded,absent", [
    (["membership", point(0.9, 0.2)], [], LAB_AND_NUMPY + ["typing"]),
    (["apply", IDENTITY_AUTO, point(0.8, 0.16)], [], LAB_AND_NUMPY + ["typing"]),
    (["transport", point(1.0, 0.25)], [], LAB_AND_NUMPY + ["typing"]),
    (["commutator", SHEAR_CANDIDATE, "--tau", "-1"], ["symbidisc.candidates"],
     ["symbidisc.proof_lab", "symbidisc.sampling", "dataclasses", "inspect", "numpy",
      "typing"]),
    (["orbit", point(0.5, 0), "--samples", "10"], ["symbidisc.sampling", "numpy"],
     ["symbidisc.proof_lab", "dataclasses"]),
], ids=["membership", "apply", "transport", "commutator", "orbit"])
def test_each_command_loads_only_what_it_needs(argv, loaded, absent):
    # one fresh interpreter per command, so that no other command's imports count; -S
    # skips the site hooks, which may preload a module and so hide or fake a load, and
    # numpy's own directory stands in for site-packages on the path
    script = "\n".join([
        "import sys",
        "from symbidisc.cli import main",
        f"code = main({argv!r})",
        f"print([name for name in {loaded + absent!r} if name in sys.modules])",
        "sys.exit(code)",
    ])
    path = [Path(__file__).resolve().parents[1] / "src", Path(np.__file__).resolve().parents[1]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))}
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == repr(loaded)


# The numpy boundary: the modules that import numpy when they load, and the functions
# that import it when called. Moving the boundary means editing these two sets.
NUMPY_AT_LOAD = {"sampling", "proof_lab"}
NUMPY_IN_FUNCTIONS = {("g2_group", "_lift_form"), ("cli", "_cmd_orbit")}


def _numpy_imports(node, function=None):
    """The enclosing function's name, None at module level, for each numpy import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _numpy_imports(child, child.name)
        elif isinstance(child, ast.Import):
            yield from (function for alias in child.names
                        if alias.name.partition(".")[0] == "numpy")
        elif isinstance(child, ast.ImportFrom):
            if (child.module or "").partition(".")[0] == "numpy":
                yield function
        else:
            yield from _numpy_imports(child, function)


def test_numpy_is_imported_only_inside_the_boundary():
    # the scalar modules stay numpy-free, so that the scalar commands never load it
    at_load, in_functions = set(), set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "symbidisc").glob("*.py"):
        for function in _numpy_imports(ast.parse(path.read_text())):
            if function is None:
                at_load.add(path.stem)
            else:
                in_functions.add((path.stem, function))
    assert at_load == NUMPY_AT_LOAD
    assert in_functions == NUMPY_IN_FUNCTIONS


# ---------------------------------------------------------------------------
# Exit-code properties: bad numbers never reach stdout
# ---------------------------------------------------------------------------

def run_quiet(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


# Each template puts the value X in one numeric slot of a subcommand's input.
TEMPLATES = {
    "membership_s": lambda x: ("membership", f'{{"s": {x}, "p": 0.1}}'),
    "membership_p_im": lambda x: ("membership", f'{{"s": 0.1, "p": {{"re": 0, "im": {x}}}}}'),
    "membership_tol": lambda x: ("membership", point(0.1, 0), "--tol", x),
    "apply_tau": lambda x: ("apply", f'{{"h": {{"tau": {x}, "a": 0.2}}}}', point(0.1, 0)),
    "apply_a": lambda x: ("apply", f'{{"h": {{"tau": 1, "a": {{"re": 0.1, "im": {x}}}}}}}',
                          point(0.1, 0)),
    "apply_point": lambda x: ("apply", IDENTITY_AUTO, f'{{"s": 0.1, "p": {x}}}'),
    "transport_s": lambda x: ("transport", f'{{"s": {x}, "p": 0.25}}'),
    "transport_tol": lambda x: ("transport", point(1.0, 0.25), "--tol", x),
    "orbit_p": lambda x: ("orbit", f'{{"s": 0.1, "p": {x}}}', "--samples", "3"),
    "orbit_json": lambda x: ("orbit", f'{{"s": {x}, "p": 0}}', "--samples", "3",
                             "--format", "json"),
    "commutator_term": lambda x: ("commutator", '{"terms": [{"j": 1, "k": 0, "S": 1, "P": 0}, '
                                  f'{{"j": 0, "k": 1, "S": 0, "P": {x}}}]}}', "--tau", "-1"),
    "commutator_tau": lambda x: ("commutator", IDENTITY_CANDIDATE, "--tau", x),
}
EXIT_CODES = {"membership": {0, 1, 2}, "apply": {0}, "transport": {0, 3},
              "orbit": {0}, "commutator": {0, 4}}
BAD_NUMBER = re.compile(r"nan|inf", re.IGNORECASE)
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400, "nan", "inf"]


extreme_floats = st.one_of(
    st.floats(min_value=1e150, max_value=1.7976931348623157e308),
    st.floats(min_value=-1.7976931348623157e308, max_value=-1e150),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_non_finite_input_exits_64_or_65(template, bad):
    code, out = run_quiet(*TEMPLATES[template](bad))
    assert code in (64, 65)
    assert not BAD_NUMBER.search(out), out


@settings(max_examples=50)
@given(st.sampled_from(sorted(TEMPLATES)), extreme_floats)
def test_extreme_input_exits_as_documented(template, x):
    argv = TEMPLATES[template](repr(x))
    code, out = run_quiet(*argv)
    assert code in EXIT_CODES[argv[0]] | {64, 65}
    assert not BAD_NUMBER.search(out), out


def test_overflowing_commutator_iterate_exits_65():
    # finite input whose 10**20-th commutator iterate overflows to NaN in the powering
    cand = '{"terms":[{"j":1,"k":0,"S":1,"P":0},{"j":0,"k":1,"S":1e300,"P":2}]}'
    code, out = run_quiet("commutator", cand, "--tau", "-1", "--n-max", "1" + "0" * 20)
    assert code == 65 and out == ""


def test_overflowing_membership_point_exits_65():
    # finite input whose root extraction overflows: s*s - 4p is NaN, so is the margin
    code, out = run_quiet("membership", '{"s": 0, "p": {"re": 0, "im": 1.7e308}}')
    assert code == 65 and out == ""


@pytest.mark.parametrize("text,shown", [
    ('{"s": {"re": 2e154, "im": 0}, "p": 0}', "SymPoint(s=(2e+154+0j), p=0j)"),
    ('{"s": 0, "p": 1e308}', "SymPoint(s=0j, p=(1e+308+0j))"),
], ids=["s", "p"])
def test_membership_names_an_overflowing_root(capsys, text, shown):
    # a root overflows to infinity: the margin is -inf and the residual inf, which
    # JSON cannot carry, so the error names the point rather than the encoder's refusal
    code, out, err = run(capsys, "membership", text)
    assert code == 65 and out == ""
    assert err == (f"error: the roots of {shown} or its sigma2 residual overflow: "
                   "margin -inf, sigma2_residual inf\n")
