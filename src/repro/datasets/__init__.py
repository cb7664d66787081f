"""Evaluation workloads used by the paper's experiments (Section 5.1).

Four longitudinal datasets are provided as reproducible synthetic generators:

* :func:`make_syn` — the paper's *Syn* dataset: ``k = 360`` (minutes in six
  hours), ``n = 10000`` users, ``tau = 120`` collections, change probability
  ``p_ch = 0.25`` per round.
* :func:`make_adult` — an *Adult*-shaped dataset: the ``hours-per-week``
  marginal of the UCI Adult census (``k = 96``, ``n = 45222``), permuted
  independently at each of ``tau = 260`` rounds so that the population
  histogram is constant while individual sequences change.
* :func:`make_census_counters` (presets :func:`make_db_mt` / :func:`make_db_de`)
  — folktables-like replicate-weight counters: heavy-tailed per-user base
  weights observed through ``tau = 80`` noisy replicates, yielding a very
  large value domain (``k`` in the low thousands).

Because this environment has no network access, the two real datasets are
replaced by synthetic populations with matching shape parameters (domain
size, population size, number of rounds, marginal skew and per-round change
behaviour).  Frequency-estimation error depends on the population only
through these, so the substitution preserves each experiment's behaviour.
"""

from .base import LongitudinalDataset
from .adult import ADULT_HOURS_DISTRIBUTION, make_adult
from .census import make_census_counters, make_db_de, make_db_mt
from .registry import DATASET_BUILDERS, dataset_summaries, make_dataset
from .synthetic import make_syn, make_uniform_changing

__all__ = [
    "LongitudinalDataset",
    "make_syn",
    "make_uniform_changing",
    "make_adult",
    "ADULT_HOURS_DISTRIBUTION",
    "make_census_counters",
    "make_db_mt",
    "make_db_de",
    "make_dataset",
    "dataset_summaries",
    "DATASET_BUILDERS",
]
