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

from symbidisc import cli, sampling
from symbidisc.cli import CSV_HEADER, main


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

    def test_degenerate_point_fails(self, capsys):
        auto = '{"h": {"tau": 1, "a": 0.5}}'
        code, _, err = run(capsys, "apply", auto, point(2, 0))
        assert code == 65 and err != ""
        # a non-finite result is refused rather than printed as NaN
        code, out, err = run(capsys, "apply", auto, point(1e300, 1e300))
        assert code == 65 and "NaN" not in out and err != ""


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

    def test_negative_degree_cap_exits_64(self, capsys):
        code, out, err = run(capsys, "commutator", '{"terms":[],"degree_cap":-3}', "--tau", "-1")
        assert (code, out) == (64, "") and "degree cap -3" in err

    def test_unnormalized_error_names_the_jacobian(self, capsys):
        # the message embeds Jacobian2's repr
        code, out, err = run(capsys, "commutator", '{"terms":[]}', "--tau", '{"re":0,"im":1}')
        assert (code, out) == (65, "")
        assert err == ("error: origin Jacobian Jacobian2(m11=0j, m12=0j, m21=0j, m22=0j) "
                       "is not of the form [[1, b], [0, d]]\n")

    def test_output_bytes_are_pinned(self, capsys):
        # tau = exp(0.9i) and a complex d leave rounding-level digits in jacobian_of_G,
        # so any change to the order or kind of its 2x2 arithmetic changes these bytes
        cand = json.dumps({"degree_cap": 4, "terms": [
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


@pytest.mark.parametrize("argv,loaded,absent", [
    (["membership", point(0.9, 0.2)], [], LAB_AND_NUMPY),
    (["apply", IDENTITY_AUTO, point(0.8, 0.16)], [], LAB_AND_NUMPY),
    (["transport", point(1.0, 0.25)], [], LAB_AND_NUMPY),
    (["commutator", SHEAR_CANDIDATE, "--tau", "-1"], ["symbidisc.candidates"],
     ["symbidisc.proof_lab", "symbidisc.sampling", "dataclasses", "inspect", "numpy"]),
    (["orbit", point(0.5, 0), "--samples", "10"], ["symbidisc.sampling", "numpy"],
     ["symbidisc.proof_lab", "dataclasses"]),
], ids=["membership", "apply", "transport", "commutator", "orbit"])
def test_each_command_loads_only_what_it_needs(argv, loaded, absent):
    # one fresh interpreter per command, so that no other command's imports count
    script = "\n".join([
        "import sys",
        "from symbidisc.cli import main",
        f"code = main({argv!r})",
        f"print([name for name in {loaded + absent!r} if name in sys.modules])",
        "sys.exit(code)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == repr(loaded)


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
