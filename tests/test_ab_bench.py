"""tools/ab_bench.py's summary of paired benchmark runs, on synthetic run.py output,
and its unpacking of a parent revision."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

END_TO_END = [{"name": "rate", "better": "higher"}, {"name": "ms", "better": "lower"},
              {"name": "absent", "better": "lower"}]


def output(**values):
    """What run.py prints: a table, then one JSON line with the metrics."""
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {name: {"value": value, "unit": "u"} for name, value in values.items()}}
    return "symbidisc benchmark  workload=geometry\n  rate  1.0  1/s\n" + json.dumps(result) + "\n"


def test_reads_the_last_line():
    assert ab_bench.result_of(output(rate=2.0))["metrics"]["rate"]["value"] == 2.0


def test_median_ratio_wins_and_parent_spread():
    pairs = [(output(rate=100.0, ms=10.0), output(rate=150.0, ms=9.0)),
             (output(rate=110.0, ms=10.0), output(rate=120.0, ms=11.0)),
             (output(rate=120.0, ms=10.0), output(rate=100.0, ms=8.0)),
             (output(rate=130.0, ms=10.0), output(rate=260.0))]
    rate, ms = ab_bench.summarize(pairs, END_TO_END)
    assert rate.name == "rate" and rate.better == "higher"
    # ratios 1.5, 12/11, 5/6, 2.0
    assert rate.ratio == pytest.approx((1.5 + 12 / 11) / 2)
    assert (rate.wins, rate.pairs) == (3, 4)
    # exclusive quartiles of 100, 110, 120, 130 are 102.5 and 127.5; median 115
    assert rate.parent_spread == pytest.approx(25.0 / 115.0)
    # the fourth pair lacks ms on the change side and is left out
    assert ms.ratio == pytest.approx(0.9) and (ms.wins, ms.pairs) == (2, 3)
    assert ms.parent_spread == 0.0


def test_a_tie_is_no_win_and_one_pair_has_no_spread():
    (rate,) = ab_bench.summarize([(output(rate=5.0), output(rate=5.0))], END_TO_END[:1])
    assert (rate.ratio, rate.wins, rate.pairs, rate.parent_spread) == (1.0, 0, 1, 0.0)


def test_formats_one_line_per_metric():
    rows = ab_bench.summarize([(output(rate=1.0, ms=2.0), output(rate=2.0, ms=1.0))], END_TO_END)
    lines = ab_bench.format_rows(rows).splitlines()
    assert len(lines) == 3
    assert lines[1].split() == ["rate", "higher", "2.0000", "1/1", "0.0000"]
    assert lines[2].split() == ["ms", "lower", "0.5000", "1/1", "0.0000"]


WORKLOADS = ["geometry", "certify", "cli"]


def test_takes_several_workloads_once_each_in_order():
    args = ab_bench.parse_args(["--workload", "cli", "geometry", "cli", "--pairs", "3"], WORKLOADS)
    assert args.workload == ["cli", "geometry"]
    assert (args.pairs, args.first_seed, args.rev) == (3, 901, "HEAD")


def test_unpack_names_the_parent_by_its_commit(tmp_path, monkeypatch):
    # a throwaway repository with one commit: HEAD unpacks, and is named by its hash
    repo, into = tmp_path / "repo", tmp_path / "into"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "kept.txt").write_text("kept\n")
    (repo / "left.txt").write_text("left\n")
    into.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    for command in (["init", "-q"], ["add", "."], ["commit", "-q", "-m", "one"]):
        subprocess.run(git + command, check=True)
    head = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    monkeypatch.setattr(ab_bench, "ROOT", repo)
    assert ab_bench.unpack("HEAD", into, "src") == head
    assert (into / "src" / "kept.txt").read_text() == "kept\n"
    assert not (into / "left.txt").exists()
    with pytest.raises(subprocess.CalledProcessError):
        ab_bench.unpack("no-such-rev", into)


def test_one_workload_is_a_list_of_one():
    assert ab_bench.parse_args(["--workload", "certify"], WORKLOADS).workload == ["certify"]


@pytest.mark.parametrize("argv", [[], ["--workload"], ["--workload", "geometry", "nope"]])
def test_rejects_a_missing_or_unknown_workload(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.parse_args(argv, WORKLOADS)
    assert exit_info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("value,shown", [("1", "1"), (None, "unset")])
def test_header_states_the_bytecode_setting(monkeypatch, value, shown):
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    args = ab_bench.parse_args(["--workload", "cli", "--first-seed", "7"], WORKLOADS)
    line = ab_bench.header("cli", args, 40)
    assert line.startswith("workload cli, parent HEAD, 10 pairs from seed 7, 40 s per run")
    assert line.endswith(f"PYTHONDONTWRITEBYTECODE={shown}")


CLAIMS = [{"name": "rate", "better": "higher"}, {"name": "ms", "better": "lower"},
          {"name": "noisy", "better": "higher"}]


def test_claim_rule_needs_nine_tenths_of_the_wins_and_a_gap_beyond_the_spread():
    # rate: 10/10 wins by 100 against a parent IQR of 5.5; ms: wins by 5 on 8 of 10
    # pairs only; noisy: 10/10 wins, by 1, against a parent IQR of 55
    pairs = [(output(rate=100.0 + i, ms=10.0, noisy=100.0 + 10 * i),
              output(rate=200.0 + i, ms=5.0 if i < 8 else 20.0, noisy=101.0 + 10 * i))
             for i in range(10)]
    rate, ms, noisy = ab_bench.summarize(pairs, CLAIMS)
    assert (rate.wins, ms.wins, noisy.wins) == (10, 8, 10)
    # exclusive quartiles of 100..109 are 101.75 and 107.25
    assert rate.parent == (101.75, 104.5, 107.25) and rate.change == (201.75, 204.5, 207.25)
    assert noisy.parent.q3 - noisy.parent.q1 == pytest.approx(55.0)
    assert ab_bench.verdict(rate) == "gain"
    assert ab_bench.verdict(ms) == "no gain: 8/10 wins"
    assert ab_bench.verdict(noisy) == "no gain: median gap inside the parent's IQR"
    assert ab_bench.verdict(ab_bench.summarize(pairs[:9], CLAIMS)[0]) == (
        "no gain: 9 pairs, fewer than 10")
    lines = ab_bench.format_quartiles([rate, ms, noisy]).splitlines()
    assert lines[0].split() == ["metric", "parent", "q1", "median", "q3", "change", "q1",
                                "median", "q3", "verdict"]
    assert lines[1].split() == ["rate", "101.75", "104.5", "107.25", "201.75", "204.5",
                                "207.25", "gain"]
    assert lines[2].split()[:7] == ["ms", "10", "10", "10", "5", "5", "8.75"]
    assert lines[2].endswith("no gain: 8/10 wins")


BOUNDED = [{"name": "close", "better": "higher", "bound": 0.25},
           {"name": "slow", "better": "lower", "bound": 0.25},
           {"name": "noisy", "better": "higher", "bound": 0.25},
           {"name": "clear", "better": "higher", "bound": 0.25}]


def test_regression_rule_bounds_the_worsening_of_the_median():
    # close: 5% worse on a parent spread of 5%; slow: 30% worse in time; noisy: a
    # parent spread of 55/145 against a bound of 0.25; clear: the same parent
    # spread, but every change run beats every parent run
    pairs = [(output(close=100.0 + i, slow=10.0, noisy=100.0 + 10 * i, clear=100.0 + 10 * i),
              output(close=95.0 + i, slow=13.0, noisy=99.0 + 10 * i, clear=200.0 + i))
             for i in range(10)]
    close, slow, noisy, clear = ab_bench.summarize(pairs, BOUNDED)
    assert [row.bound for row in (close, slow, noisy, clear)] == [0.25] * 4
    assert (close.beats_all, noisy.beats_all, clear.beats_all) == (False, False, True)
    assert ab_bench.regression(close) == "within bound"
    assert ab_bench.regression(slow) == "worse by 0.3000 > 0.25"
    assert noisy.parent_spread == pytest.approx(55.0 / 145.0)
    assert ab_bench.regression(noisy) == "unresolved"
    assert ab_bench.regression(clear) == "within bound"
    # a higher-is-better metric that halves is worse by half its parent median
    (halved,) = ab_bench.summarize([(output(close=100.0), output(close=50.0))], BOUNDED[:1])
    assert ab_bench.regression(halved) == "worse by 0.5000 > 0.25"


def test_quartiles_table_puts_the_regression_verdict_next_to_the_gain_verdict():
    pairs = [(output(close=100.0 + i, slow=10.0), output(close=95.0 + i, slow=13.0))
             for i in range(10)]
    lines = ab_bench.format_quartiles(ab_bench.summarize(pairs, BOUNDED)).splitlines()
    assert lines[0].split()[-2:] == ["verdict", "regression"]
    assert lines[1].endswith("no gain: 0/10 wins" + " " * 27 + "within bound")
    assert lines[2].endswith("  worse by 0.3000 > 0.25")
    assert lines[1].index("within") == lines[2].index("worse") == lines[0].index("regression")


def test_record_is_one_json_line_with_both_verdicts(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    pairs = [(output(close=100.0 + i, slow=10.0), output(close=150.0 + i, slow=13.0))
             for i in range(10)]
    rows = ab_bench.summarize(pairs, BOUNDED + [{"name": "free", "better": "lower"}])
    args = ab_bench.parse_args(["--workload", "geometry", "--first-seed", "7", "--pairs", "10"],
                               WORKLOADS)
    line = json.dumps(ab_bench.record("geometry", args, 40, rows))
    assert "\n" not in line
    rec = json.loads(line)
    assert {key: rec[key] for key in ("workload", "rev", "seeds", "pairs", "seconds")} == {
        "workload": "geometry", "rev": "HEAD", "seeds": list(range(7, 17)), "pairs": 10,
        "seconds": 40}
    assert rec["PYTHONDONTWRITEBYTECODE"] == "1"
    assert list(rec["metrics"]) == ["close", "slow"]  # metrics without values are left out
    close, slow = rec["metrics"]["close"], rec["metrics"]["slow"]
    assert close["parent"] == [101.75, 104.5, 107.25] and close["change"] == [151.75, 154.5, 157.25]
    assert (close["better"], close["wins"], close["pairs"]) == ("higher", 10, 10)
    assert (close["verdict"], close["regression"]) == ("gain", "within bound")
    assert close["ratio"] == pytest.approx(ab_bench.summarize(pairs, BOUNDED)[0].ratio)
    assert (slow["verdict"], slow["regression"]) == ("no gain: 0/10 wins", "worse by 0.3000 > 0.25")


def test_record_leaves_regression_empty_without_a_bound(monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    rows = ab_bench.summarize([(output(rate=1.0), output(rate=2.0))], END_TO_END[:1])
    args = ab_bench.parse_args(["--workload", "cli"], WORKLOADS)
    rec = ab_bench.record("cli", args, 40, rows)
    assert rec["PYTHONDONTWRITEBYTECODE"] is None and rec["seeds"] == list(range(901, 911))
    assert rec["metrics"]["rate"]["regression"] is None
    assert rec["metrics"]["rate"]["verdict"] == "no gain: 1 pairs, fewer than 10"
