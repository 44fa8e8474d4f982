"""Portend: data race consequence prediction and classification.

This package implements the paper's primary contribution:

* :mod:`repro.core.categories` -- the four-category taxonomy (Fig. 1),
* :mod:`repro.core.config` -- analysis knobs (Mp, Ma, symbolic inputs,
  timeouts, ablation switches),
* :mod:`repro.core.spec` -- "basic" and "semantic" specification violation
  checking plus the infinite-loop/ad-hoc-synchronisation diagnosis,
* :mod:`repro.core.alternate` -- primary replay and alternate-ordering
  enforcement (the record/replay choreography shared by all analyses),
* :mod:`repro.core.single_pre_post` -- Algorithm 1,
* :mod:`repro.core.multi_path` -- Algorithm 2 (multi-path and
  multi-schedule) with symbolic output comparison,
* :mod:`repro.core.classifier` -- the per-race classification pipeline,
* :mod:`repro.core.report` -- debugging-aid reports (Fig. 6),
* :mod:`repro.core.portend` -- the user-facing facade.
"""

from repro.core.categories import RaceClass, ClassifiedRace
from repro.core.config import PortendConfig
from repro.core.spec import SemanticPredicate, SpecChecker
from repro.core.report import PortendReport
from repro.core.portend import Portend, PortendResult

__all__ = [
    "RaceClass",
    "ClassifiedRace",
    "PortendConfig",
    "SemanticPredicate",
    "SpecChecker",
    "PortendReport",
    "Portend",
    "PortendResult",
]
