"""Fig. 7: contribution of each technique to Portend's accuracy.

Accuracy of ctrace, pbzip2, memcached and bbuf under four configurations:
single-path analysis only, plus ad-hoc synchronisation detection, plus
multi-path analysis, plus multi-schedule analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import PortendConfig
from repro.engine import EngineOptions
from repro.experiments.metrics import score_workload
from repro.experiments.runner import analyze_workload
from repro.workloads import load_workload

PROGRAMS = ("ctrace", "pbzip2", "memcached", "bbuf")
TECHNIQUES = ("single-path", "+adhoc-detection", "+multi-path", "+multi-schedule")


@dataclass
class Fig7Result:
    #: accuracy[program][technique] in [0, 1]
    accuracy: Dict[str, Dict[str, float]] = field(default_factory=dict)


def _configs(base: PortendConfig) -> Dict[str, PortendConfig]:
    return {
        "single-path": base.single_path_only(),
        "+adhoc-detection": base.with_adhoc_detection(),
        "+multi-path": base.with_multi_path(),
        "+multi-schedule": base.full(),
    }


def run(
    config: Optional[PortendConfig] = None,
    options: Optional[EngineOptions] = None,
    programs: Sequence[str] = PROGRAMS,
) -> Fig7Result:
    """Score every program under each technique's variant of ``config``."""
    base = config or PortendConfig()
    result = Fig7Result()
    for name in programs:
        result.accuracy[name] = {}
        for technique, technique_config in _configs(base).items():
            workload = load_workload(name)
            run_ = analyze_workload(workload, technique_config, options)
            score = score_workload(workload, run_.result.classified)
            result.accuracy[name][technique] = score.accuracy
    return result


def render(result: Fig7Result) -> str:
    header = f"{'Program':<12} " + " ".join(f"{t:>17}" for t in TECHNIQUES)
    lines = ["Fig. 7: accuracy breakdown per technique", header, "-" * len(header)]
    for program, per_technique in result.accuracy.items():
        lines.append(
            f"{program:<12} "
            + " ".join(f"{100 * per_technique.get(t, 0.0):>16.0f}%" for t in TECHNIQUES)
        )
    return "\n".join(lines)
