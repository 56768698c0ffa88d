"""Per-layer metrics derived from the traced run.

Each traced function is attributed to one sub-load (a root span kind). Its
`.calls` is the number of its spans under that sub-load's roots divided by the
operations those roots stand for, which repeats exactly for a given seed; its
`.self_us` is the mean self time per call there.
"""

from __future__ import annotations

import statistics

import numpy as np

from sections import SECTION

# Traced function -> (sub-load it is measured on, whether `.calls` is reported).
# Each function is attributed to the sub-load where it carries the most work.
LAYER_FUNCTIONS = {
    "sampling.random_moebius": ("orbit", True),
    "sampling.random_interior": ("certify", True),
    "sampling.random_disc": ("certify", True),
    "disc_moebius.make_moebius": ("orbit", True),
    "disc_moebius.apply_moebius": ("apply", True),
    "disc_moebius.compose": ("certify", True),
    "sym_geometry.desymmetrize": ("apply", True),
    "sym_geometry.in_g2": ("membership", True),
    "sym_geometry.in_sigma2": ("membership", True),
    "g2_group.apply_g2": ("orbit", True),
    "g2_group.apply_g2_via_roots": ("apply", True),
    "g2_group.transport_to_origin": ("certify", False),
    "g2_group.finite_jacobian": ("certify", False),
    "proof_lab.fit_candidate": ("certify", False),
    "proof_lab.weighted_form_extract": ("certify", False),
    "proof_lab.force_c_zero": ("certify", False),
    "proof_lab.evaluate_candidate": ("certify", True),
    "proof_lab.normalize_and_extract": ("certify", False),
    "proof_lab.orbit_sample": ("orbit", False),
}
DECODERS = {"jsonio.complex_from_json", "jsonio.sympoint_from_json", "jsonio.g2_from_json",
            "jsonio.candidate_from_json"}
ENCODERS = {"jsonio.sympoint_to_json", "jsonio.g2_to_json", "jsonio.verdict_to_json",
            "jsonio.report_to_json", "jsonio.dumps"}
CLI_COMMANDS = ("membership", "apply", "transport", "commutator", "orbit")
TRACED_FUNCTIONS = (*LAYER_FUNCTIONS, *sorted(DECODERS), *sorted(ENCODERS))


def _mean_us(ns: np.ndarray) -> float:
    return float(ns.mean()) / 1e3 if len(ns) else 0.0


def per_layer_metrics(tracer, table: dict, plain, traced_s: dict, untraced_s: dict,
                      floors: dict, orbit_direct_ms: list, orbit_rows: int) -> dict:
    names = np.array(tracer.names)
    span_name = names[table["name"]]
    subload = np.array([n.split(".")[0] for n in names])[table["name"][table["root"]]]
    ops = {}
    for sid, n in tracer.root_ops.items():
        key = span_name[sid].split(".")[0]
        ops[key] = ops.get(key, 0) + n

    metrics = {}
    for fn, (load, with_calls) in LAYER_FUNCTIONS.items():
        mask = (span_name == fn) & (subload == load)
        if with_calls:
            metrics[fn + ".calls"] = (int(mask.sum()) / ops[load], "count")
        metrics[fn + ".self_us"] = (_mean_us(table["self"][mask]), "us")

    evals = plain.blackbox_evals
    metrics["proof_lab.map_evals_per_certify"] = (sum(evals) / len(evals), "count")
    for kind in ("g2", "blackbox"):
        metrics[f"proof_lab.certified_ratio.{kind}"] = (
            plain.certified[kind] / plain.attempted["certify." + kind], "ratio")
    metrics["proof_lab.rejected_ratio.injected"] = (
        1.0 - plain.certified["injected"] / plain.attempted["certify.injected"], "ratio")
    metrics["proof_lab.identity_deviation_max.blackbox"] = (plain.deviation_max, "abs")

    # jsonio: inclusive time of a decode or encode called from outside jsonio
    parent = table["parent"]
    outer = np.array([not n.startswith("jsonio.") for n in names])[table["name"][parent]]
    outer &= parent >= 0
    for metric, group in (("jsonio.decode_us", DECODERS), ("jsonio.encode_us", ENCODERS)):
        mask = np.isin(span_name, list(group)) & outer
        metrics[metric] = (_mean_us(table["duration"][mask]), "us")

    for key, value in floors.items():
        metrics["cli." + key] = (value, "ms")
    for cmd in CLI_COMMANDS:
        metrics[f"cli.main_ms.{cmd}"] = (statistics.median(plain.samples["main." + cmd]), "ms")
    row_ms = statistics.median(plain.samples["main.orbit"]) - statistics.median(orbit_direct_ms)
    metrics["cli.orbit_row_us"] = (row_ms * 1e3 / orbit_rows, "us")

    for section in sorted(set(SECTION.values())):
        base = untraced_s[section]
        metrics[f"trace.overhead_pct.{section}"] = ((traced_s[section] - base) / base * 100.0, "%")
    return metrics
