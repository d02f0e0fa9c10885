"""Output checks made apart from the program.

The best point of a calibration is simulated afresh and checked against
the ground truth with this file's own MRE formula and against bounds the
execution model must respect: bytes are conserved, no job computes faster
than its core, and no run moves its remote bytes faster than the WAN.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.result import CalibrationResult
from repro.hepsim import HEPSimulator
from repro.hepsim.calibration import CaseStudyProblem

#: relative slack for comparing floating-point quantities
TOLERANCE = 1e-9


def point_key(values: Mapping[str, float]) -> tuple[tuple[str, float], ...]:
    return tuple(sorted((str(k), float(v)) for k, v in values.items()))


def mre_pct(reference: Mapping[object, float], candidate: Mapping[object, float]) -> float:
    """Mean relative error in percent: 100/n * sum |c - r| / r."""
    if set(reference) != set(candidate):
        raise ValueError("reference and candidate cover different metrics")
    errors = [abs(candidate[key] - ref) / ref for key, ref in reference.items()]
    return 100.0 * sum(errors) / len(errors)


def check_best_point(problem: CaseStudyProblem, result: CalibrationResult) -> list[str]:
    """Re-simulate ``result``'s best point and check it."""
    failures = []
    scenario = problem.scenario
    values = problem.calibrated_values(result)
    icds = list(scenario.icd_values)
    nodes = list(scenario.node_names)
    simulator = HEPSimulator(scenario)
    trace = simulator.run_trace(values, icd_values=icds)
    mre = mre_pct(
        problem.ground_truth.metrics(nodes=nodes, icds=icds),
        trace.metrics(nodes=nodes, icds=icds),
    )
    if abs(mre - result.best_value) > TOLERANCE * abs(mre):
        failures.append(
            f"best value {result.best_value!r} is not the recomputed MRE {mre!r}"
        )
    specs = {spec.name: spec for spec in simulator.job_specs}
    for icd in icds:
        remote = 0.0
        for job in trace.results(icd):
            spec = specs[job.name]
            moved = job.bytes_from_cache + job.bytes_from_remote
            if abs(moved - spec.input_bytes) > TOLERANCE * spec.input_bytes:
                failures.append(
                    f"ICD {icd}: {job.name} read {moved!r} bytes of {spec.input_bytes!r}"
                )
            compute_s = spec.input_bytes * spec.flops_per_byte / values.core_speed
            if job.execution_time < compute_s * (1 - TOLERANCE):
                failures.append(
                    f"ICD {icd}: {job.name} ran {job.execution_time!r}s, "
                    f"under its compute time {compute_s!r}s"
                )
            remote += job.bytes_from_remote
        wan_s = remote / values.wan_bandwidth
        if trace.makespan(icd) < wan_s * (1 - TOLERANCE):
            failures.append(
                f"ICD {icd}: makespan {trace.makespan(icd)!r}s is under the "
                f"WAN transfer time {wan_s!r}s"
            )
    return failures
