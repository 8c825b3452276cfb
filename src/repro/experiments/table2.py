"""Table 2 — heterogeneous core configurations and derived peaks.

Regenerates the paper's core-type table: the (verbatim) architectural
parameter sets plus the peak throughput and peak power *derived from
our models*, compared against the values the paper derived from
Gem5/McPAT.
"""

from __future__ import annotations

from repro.analysis.reporting import ExperimentResult, Finding
from repro.hardware import microarch, power
from repro.hardware.features import TABLE2_TYPES

#: The paper's derived rows (Gem5 + McPAT, 22 nm).
PAPER_PEAK_IPC = {"Huge": 4.18, "Big": 2.60, "Medium": 1.31, "Small": 0.91}
PAPER_PEAK_POWER_W = {"Huge": 8.62, "Big": 1.41, "Medium": 0.53, "Small": 0.095}


def run() -> ExperimentResult:
    """Build the Table 2 reproduction."""
    headers = [
        "Parameter",
        *[t.name for t in TABLE2_TYPES],
    ]
    rows = [
        ["Issue width", *[t.issue_width for t in TABLE2_TYPES]],
        ["LQ/SQ size", *[f"{t.lq_size}/{t.sq_size}" for t in TABLE2_TYPES]],
        ["IQ size", *[t.iq_size for t in TABLE2_TYPES]],
        ["ROB size", *[t.rob_size for t in TABLE2_TYPES]],
        ["Int/float regs", *[t.num_regs for t in TABLE2_TYPES]],
        ["L1$I size (KB)", *[t.l1i_kb for t in TABLE2_TYPES]],
        ["L1$D size (KB)", *[t.l1d_kb for t in TABLE2_TYPES]],
        ["Freq (MHz)", *[t.freq_mhz for t in TABLE2_TYPES]],
        ["Voltage (V)", *[t.vdd for t in TABLE2_TYPES]],
        ["Area (mm^2)", *[t.area_mm2 for t in TABLE2_TYPES]],
        [
            "Peak IPC (model)",
            *[round(microarch.peak_ipc(t), 2) for t in TABLE2_TYPES],
        ],
        ["Peak IPC (paper)", *[PAPER_PEAK_IPC[t.name] for t in TABLE2_TYPES]],
        [
            "Peak power W (model)",
            *[round(power.peak_power(t), 3) for t in TABLE2_TYPES],
        ],
        [
            "Peak power W (paper)",
            *[PAPER_PEAK_POWER_W[t.name] for t in TABLE2_TYPES],
        ],
    ]
    findings = []
    for t in TABLE2_TYPES:
        findings.append(
            Finding(
                name=f"peak IPC {t.name}",
                measured=microarch.peak_ipc(t),
                paper=PAPER_PEAK_IPC[t.name],
            )
        )
        findings.append(
            Finding(
                name=f"peak power {t.name}",
                measured=power.peak_power(t),
                paper=PAPER_PEAK_POWER_W[t.name],
                unit=" W",
            )
        )
    return ExperimentResult(
        experiment_id="table2",
        title="Table 2: Heterogeneous core configuration parameters",
        headers=headers,
        rows=rows,
        findings=tuple(findings),
        notes=(
            "Architectural parameters are the paper's verbatim; peak IPC "
            "comes from the analytical micro-architecture model and peak "
            "power from the calibrated power model."
        ),
    )
