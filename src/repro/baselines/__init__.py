"""Baseline race classifiers that Portend is compared against (§5.4).

* :mod:`repro.baselines.replay_analyzer` -- the Record/Replay-Analyzer of
  Narayanasamy et al. [45]: replay the alternate ordering and diff the
  concrete post-race memory state; replay failures are classified as harmful.
* :mod:`repro.baselines.adhoc_detector` -- Helgrind+ [27] / Ad-Hoc-Detector
  [55] style classification: statically recognise ad-hoc synchronisation
  (busy-wait loops on the racing variable) and mark those races harmless;
  everything else is left unclassified.
"""

from repro.baselines.replay_analyzer import RecordReplayAnalyzer, ReplayAnalyzerVerdict
from repro.baselines.adhoc_detector import AdHocSyncDetector, AdHocVerdict

__all__ = [
    "RecordReplayAnalyzer",
    "ReplayAnalyzerVerdict",
    "AdHocSyncDetector",
    "AdHocVerdict",
]
