"""Portend analysis configuration.

The paper exposes a small number of knobs (§3.3, §5): the number of primary
paths ``Mp``, the number of alternate schedules per primary ``Ma`` (so that
``k = Mp × Ma``), the number of symbolic inputs, and the ad-hoc
synchronisation timeout (5x the primary replay cost).  The reproduction adds
explicit ablation switches so the Fig. 7 experiment ("Single-path", "+ ad-hoc
detection", "+ multi-path", "+ multi-schedule") can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class PortendConfig:
    """Tunables for one classification run."""

    #: number of primary paths explored during multi-path analysis (Mp)
    mp: int = 5
    #: number of alternate schedules per primary path (Ma)
    ma: int = 2
    #: how many declared program inputs are marked symbolic (paper uses 2)
    symbolic_inputs: int = 2
    #: alternate-enforcement timeout, as a multiple of the primary's steps
    timeout_factor: int = 5
    #: hard ceiling on the steps of any single analysis execution
    max_steps_per_execution: int = 200_000
    #: upper bound on the states explored while searching for primary paths
    max_explored_states: int = 256
    #: random seed for multi-schedule analysis
    seed: int = 2012
    #: pinned to "default", the only solver; any other value raises.  Kept
    #: only because the benchmark harness passes every field by keyword --
    #: a benchmark change will remove it.
    solver_backend: str = "default"
    #: pinned to "tree", the only interpreter; any other value raises.  Kept
    #: only because the benchmark harness passes every field by keyword --
    #: a benchmark change will remove it.
    interp: str = "tree"

    # ----------------------------------------------------- ablation switches
    #: classify ad-hoc synchronisation (timeouts) as "single ordering";
    #: when False, enforcement failures are conservatively reported as
    #: "spec violated", which is what replay-based classifiers do (§5.4)
    enable_adhoc_detection: bool = True
    #: enable multi-path analysis (Algorithm 2)
    enable_multi_path: bool = True
    #: enable multi-schedule analysis (§3.4)
    enable_multi_schedule: bool = True
    #: compare outputs symbolically; when False, concrete output comparison
    #: is used (ablation for §3.3.1)
    symbolic_output_comparison: bool = True

    def __post_init__(self) -> None:
        if self.solver_backend != "default":
            raise ValueError(
                f"unknown solver backend {self.solver_backend!r}; the only "
                "solver is 'default'"
            )
        if self.interp != "tree":
            raise ValueError(
                f"unknown interpreter {self.interp!r}; the only interpreter is 'tree'"
            )

    @property
    def k(self) -> int:
        """The lower bound k = Mp × Ma on witnessed path/schedule combinations."""
        mp = self.mp if self.enable_multi_path else 1
        ma = self.ma if self.enable_multi_schedule else 1
        return mp * ma

    def effective_mp(self) -> int:
        return self.mp if self.enable_multi_path else 1

    def effective_ma(self) -> int:
        return self.ma if self.enable_multi_schedule else 1

    def race_seed(self, race_id: int, path_index: int = 0) -> int:
        """Deterministic RNG base seed for one race's alternate schedules.

        Every random decision of the analysis derives from ``seed`` and the
        race id (plus the primary-path index), never from global RNG state or
        the order in which races are classified.  This is what makes the
        parallel engine bit-identical to the serial path: each (race, path)
        pair owns its seed regardless of which worker classifies it.
        """
        return self.seed * 1_000_003 + (race_id * 131 + path_index) * 101

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def classification_fingerprint(self) -> Dict:
        """Every knob that can change a classification verdict, sorted.

        Used by the engine's classification cache: a cached
        ``ClassifiedRace`` is only valid for the exact configuration that
        produced it.  *All* knobs participate -- ``seed`` (the base of
        :meth:`race_seed`), the ``mp``/``ma`` exploration limits, the
        ablation switches, the step/state ceilings -- so any config change
        invalidates cached verdicts instead of silently serving stale ones.
        The pinned ``solver_backend`` and ``interp`` are left out, so
        existing cache entries keep hitting.
        """
        data = self.to_dict()
        data.pop("solver_backend", None)
        data.pop("interp", None)
        return dict(sorted(data.items()))

    # ------------------------------------------------------------- factories

    def with_k(self, k: int) -> "PortendConfig":
        """Derive a configuration whose Mp × Ma is (close to) ``k``.

        Used by the Fig. 10 sweep: Ma is kept at min(2, k) and Mp absorbs the
        rest, mirroring the paper's Mp=5 / Ma=2 split.
        """
        if k < 1:
            raise ValueError("k must be positive")
        ma = 2 if k >= 4 and k % 2 == 0 else 1
        mp = max(1, k // ma)
        return replace(self, mp=mp, ma=ma)

    def single_path_only(self) -> "PortendConfig":
        """Fig. 7 leftmost bar: single-pre/single-post analysis only."""
        return replace(
            self,
            enable_adhoc_detection=False,
            enable_multi_path=False,
            enable_multi_schedule=False,
        )

    def with_adhoc_detection(self) -> "PortendConfig":
        """Fig. 7 second bar: single-path plus ad-hoc synchronisation handling."""
        return replace(
            self,
            enable_adhoc_detection=True,
            enable_multi_path=False,
            enable_multi_schedule=False,
        )

    def with_multi_path(self) -> "PortendConfig":
        """Fig. 7 third bar: multi-path analysis, single schedule per primary."""
        return replace(
            self,
            enable_adhoc_detection=True,
            enable_multi_path=True,
            enable_multi_schedule=False,
        )

    def full(self) -> "PortendConfig":
        """Fig. 7 rightmost bar: the complete Portend analysis."""
        return replace(
            self,
            enable_adhoc_detection=True,
            enable_multi_path=True,
            enable_multi_schedule=True,
        )
