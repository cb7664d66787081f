"""Adversarial analysis of longitudinal LDP protocols.

* :mod:`repro.attacks.change_detection` — the data-change detection attack on
  dBitFlipPM quantified in Table 2 of the paper: because dBitFlipPM has no
  instantaneous round, a change of bucket usually changes the (memoized)
  report, and the server can locate every change point of a user.
"""

from .change_detection import ChangeDetectionResult, change_detection_rate

__all__ = [
    "ChangeDetectionResult",
    "change_detection_rate",
]
