"""tools/inproc_ab.py's report comparison and summary, on synthetic reports and timings."""

import dataclasses
import importlib.util
import json
import math
import types
from pathlib import Path

import pytest

import symbidisc

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("inproc_ab", ROOT / "tools" / "inproc_ab.py")
inproc_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inproc_ab)


def test_summary_of_synthetic_rounds():
    # round ratios parent/change: 2, 1, 1.5, 2; a tie is no win
    summary = inproc_ab.summarize([2.0, 2.0, 3.0, 4.0], [1.0, 2.0, 2.0, 2.0], calls=10)
    assert (summary["rounds"], summary["calls_per_round"], summary["wins"]) == (4, 10, 3)
    # all of a side's time over all its calls: 11 s and 7 s over 40 calls each
    assert summary["parent_us"] == pytest.approx(275_000.0)
    assert summary["change_us"] == pytest.approx(175_000.0)
    # exclusive quartiles of 1, 1.5, 2, 2
    assert summary["ratio_q1"] == pytest.approx(1.125)
    assert summary["ratio_median"] == pytest.approx(1.75)
    assert summary["ratio_q3"] == pytest.approx(2.0)
    line = inproc_ab.format_summary(summary)
    assert "median x1.7500" in line and "quartiles 1.1250-2.0000" in line and "3/4 rounds" in line
    assert json.loads(json.dumps(summary)) == summary


def test_one_round_is_its_own_quartiles():
    summary = inproc_ab.summarize([3.0], [2.0], calls=1)
    assert summary["ratio_q1"] == summary["ratio_median"] == summary["ratio_q3"] == 1.5
    assert summary["wins"] == 1


def test_summary_needs_paired_rounds():
    with pytest.raises(ValueError):
        inproc_ab.summarize([1.0, 2.0], [1.0], calls=1)


def test_fingerprint_tells_one_ulp_apart():
    report = symbidisc.normalize_and_extract(symbidisc.lift(symbidisc.make_moebius(1j, 0.3)))
    alpha = complex(math.nextafter(report.alpha.real, math.inf), report.alpha.imag)
    hexes = inproc_ab.fingerprint(report)
    assert hexes == inproc_ab.fingerprint(dataclasses.replace(report))
    assert hexes != inproc_ab.fingerprint(dataclasses.replace(report, alpha=alpha))
    assert hexes["royal_ok"] is True
    assert hexes["transport_param"] == (report.transport_param.real.hex(),
                                        report.transport_param.imag.hex())
    assert hexes["origin_image"] == tuple((z.real.hex(), z.imag.hex()) for z in report.origin_image)


def test_outcome_of_a_failing_map_is_its_exception():
    def moves_the_origin_off_the_variety(q):
        return symbidisc.SymPoint(q.s + 0.5, q.p)

    name, message = inproc_ab.fingerprint(inproc_ab.result(symbidisc.normalize_and_extract,
                                                           moves_the_origin_off_the_variety))
    assert name == "NotOnRoyalVariety" and "discriminant residual" in message


def test_certify_maps_follow_perfbench():
    # an element as a G2Automorphism and as a black box, then an injected shear
    maps = inproc_ab.certify_maps(symbidisc, [(1j, 0.3)], [((1.0, 0.2j), 0.1)])
    reports = [symbidisc.normalize_and_extract(map_like) for map_like in maps]
    assert isinstance(maps[0], symbidisc.G2Automorphism)
    assert [r.identity_certified for r in reports] == [True, True, False]
    assert inproc_ab.fingerprint(reports[0]) == inproc_ab.fingerprint(reports[1])
    assert not reports[2].royal_ok


def test_rev_defaults_to_head():
    assert inproc_ab.parse_args([]).rev == "HEAD"
    assert inproc_ab.parse_args(["--rev", "abc123"]).rev == "abc123"


def test_drift_of_synthetic_reports():
    # two maps: one report moved in alpha, origin_image and grid_residual, and one
    # report that became an exception; a changed message alone is no changed verdict
    report = symbidisc.normalize_and_extract(symbidisc.lift(symbidisc.make_moebius(1j, 0.3)))
    moved = dataclasses.replace(
        report, alpha=report.alpha + 3e-15j, grid_residual=report.grid_residual + 1e-15,
        origin_image=symbidisc.SymPoint(report.origin_image.s, report.origin_image.p - 2e-16))
    parent = [report, report, ArithmeticError("at 1")]
    change = [moved, ValueError("no report"), ArithmeticError("at 2")]
    summary = inproc_ab.drift(parent, change)
    assert summary["verdicts_changed"] == 1
    largest = summary["largest_difference"]
    assert set(largest) == {"origin_image", "transport_param", "rotation_divided", "alpha", "d",
                            "c", "royal_residual", "grid_residual", "identity_deviation"}
    assert largest["alpha"] == pytest.approx(3e-15)
    assert largest["grid_residual"] == pytest.approx(1e-15)
    assert largest["origin_image"] == pytest.approx(2e-16)
    assert largest["d"] == largest["royal_residual"] == 0.0
    line = inproc_ab.format_drift(summary)
    assert line.startswith("1 maps changed verdict or exception type") and "alpha 3e-15" in line


def test_drift_counts_a_flipped_verdict():
    report = symbidisc.normalize_and_extract(symbidisc.lift(symbidisc.make_moebius(1j, 0.3)))
    flipped = dataclasses.replace(report, identity_certified=False)
    summary = inproc_ab.drift([report], [flipped])
    assert summary["verdicts_changed"] == 1
    assert set(summary["largest_difference"].values()) == {0.0}
    assert "no map gave a report" in inproc_ab.format_drift(inproc_ab.drift([report], [KeyError()]))


def _with(module_name: str, **kernels):
    """symbidisc as inproc_ab's sections read it, with `kernels` in place of the same
    names of its module `module_name`."""
    modules = {name: getattr(symbidisc, name)
               for name in ("disc_moebius", "g2_group", "sym_geometry")}
    modules[module_name] = types.SimpleNamespace(**{**vars(modules[module_name]), **kernels})
    return types.SimpleNamespace(normalize_and_extract=symbidisc.normalize_and_extract, **modules)


def _residual_moved(pt):
    member, residual = symbidisc.in_sigma2(pt)
    return member, math.nextafter(residual, math.inf)


def _image_moved(H, pt):
    s, p = symbidisc.g2_group.apply_g2_via_roots(H, pt)
    return symbidisc.SymPoint(s, complex(math.nextafter(p.real, math.inf), p.imag))


@pytest.mark.parametrize("section,change", [
    ("membership", _with("sym_geometry", in_sigma2=_residual_moved)),
    ("apply", _with("g2_group", apply_g2_via_roots=_image_moved)),
], ids=["membership", "apply"])
def test_a_moved_last_bit_is_not_timed(capsys, monkeypatch, section, change):
    # one side's kernel moves the last bit of every output of one section
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    assert inproc_ab.compare("test", symbidisc, change) == 1
    inputs = {"certify": 440, "membership": 10_000, "apply": 10_000}
    assert capsys.readouterr().out.splitlines() == ["rev test, seed 11"] + [
        f"{name}: {n} inputs, {n if name == section else 0} outputs differ by float.hex"
        for name, n in inputs.items()]
