"""Figure 10: root response bandwidth vs ZSK size and DO fraction.

§5.1: replay the B-Root-16 trace against a signed root zone under six
configurations — ZSK 1024, 2048, and 2048-during-rollover, each at the
2016 DO-bit level (72.3 %) and with the DO bit forced on every query.
Paper results: 225 Mb/s median at 72.3 % DO with a 2048-bit ZSK;
296 Mb/s with all queries DO (a 31 % increase); and a 32 % increase
going from a 1024- to a 2048-bit ZSK.

One base trace is generated once and *mutated* per configuration — the
same one-trace-many-what-ifs workflow the paper's query mutator enables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..trace import quartile_summary
from .common import ExperimentOutput, Scale, SMOKE
from .rootserver import RootRunConfig, run_root_replay

PAPER_MBPS = {
    ("72.3%", 1024, False): 170.0,   # read off Figure 10 (approximate)
    ("72.3%", 2048, False): 225.0,
    ("72.3%", 2048, True): 240.0,
    ("100%", 1024, False): 225.0,
    ("100%", 2048, False): 296.0,
    ("100%", 2048, True): 315.0,
}

CONFIGS: List[Tuple[str, Optional[float], int, bool]] = [
    ("72.3%", None, 1024, False),   # None: keep the trace's own DO mix
    ("72.3%", None, 2048, False),
    ("72.3%", None, 2048, True),
    ("100%", 1.0, 1024, False),
    ("100%", 1.0, 2048, False),
    ("100%", 1.0, 2048, True),
]

# The paper's stated future work: "we could use LDplayer to study the
# traffic under 4096-bit ZSK" (§5.1).  Included by default.
FUTURE_WORK_CONFIGS: List[Tuple[str, Optional[float], int, bool]] = [
    ("72.3%", None, 4096, False),
    ("100%", 1.0, 4096, False),
]


@dataclass
class DnssecPoint:
    do_label: str
    zsk_bits: int
    rollover: bool
    mbps: Dict[str, float]   # quartile summary of the scaled series


def measure(scale: Scale = SMOKE,
            include_future_work: bool = True) -> List[DnssecPoint]:
    configs = list(CONFIGS)
    if include_future_work:
        configs += FUTURE_WORK_CONFIGS
    points = []
    for do_label, do_fraction, zsk_bits, rollover in configs:
        output = run_root_replay(RootRunConfig(
            scale=scale, protocol="original", do_fraction=do_fraction,
            zsk_bits=zsk_bits, rollover=rollover, signed=True))
        series = output.response_mbps_series()
        skip = max(2, len(series) // 10)
        steady = series[skip:-2] if len(series) > skip + 4 else series
        points.append(DnssecPoint(do_label, zsk_bits, rollover,
                                  quartile_summary(steady)))
    return points


def run(scale: Scale = SMOKE,
        include_future_work: bool = True) -> ExperimentOutput:
    output = ExperimentOutput(
        experiment_id="fig10",
        title="Response bandwidth under DNSSEC ZSK sizes and DO fractions",
        headers=["DO", "ZSK", "state", "median Mb/s", "p25", "p75",
                 "paper Mb/s"],
        paper_claims={
            "72.3%→100% DO at 2048": "+31 % response traffic "
                                     "(225 → 296 Mb/s)",
            "1024→2048 ZSK": "+32 % response traffic",
        },
        notes=["bandwidth scaled to full B-Root rate via the client-sample "
               "factor; compare ratios, not absolutes"])

    points = measure(scale, include_future_work=include_future_work)
    medians: Dict[Tuple[str, int, bool], float] = {}
    for point in points:
        key = (point.do_label, point.zsk_bits, point.rollover)
        medians[key] = point.mbps["median"]
        output.add_row(point.do_label, point.zsk_bits,
                       "rollover" if point.rollover else "normal",
                       point.mbps["median"], point.mbps["p25"],
                       point.mbps["p75"], PAPER_MBPS.get(key, "-"))

    base = medians.get(("72.3%", 2048, False))
    full = medians.get(("100%", 2048, False))
    small = medians.get(("72.3%", 1024, False))
    if base and full:
        output.notes.append(
            f"measured DO 72.3%→100% increase: {(full / base - 1) * 100:.0f}% "
            "(paper: +31%)")
    if base and small:
        output.notes.append(
            f"measured ZSK 1024→2048 increase: {(base / small - 1) * 100:.0f}% "
            "(paper: +32%)")
    huge = medians.get(("100%", 4096, False))
    if full and huge:
        output.notes.append(
            f"future work (§5.1): 2048→4096-bit ZSK at 100% DO adds "
            f"{(huge / full - 1) * 100:+.0f}% response traffic")
    return output
