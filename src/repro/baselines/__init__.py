"""Baseline optimizers the paper compares against or mentions.

* :mod:`~repro.baselines.ga` — the genetic-algorithm flow of Ben Chehida
  & Auguin [6] (the paper's experimental comparator): GA spatial
  partitioning, deterministic clustering for temporal partitioning,
  critical-path list scheduling.
* :mod:`~repro.baselines.tabu` — tabu search (the paper's related-work
  discussion singles out its tabu-list tuning burden).
* :mod:`~repro.baselines.hill_climber`, :mod:`~repro.baselines.random_search`
  — sanity baselines for the ablation benches.
"""

from repro.baselines.clustering import cluster_into_contexts
from repro.baselines.list_scheduler import list_schedule_software, decode_partition
from repro.baselines.ga import GeneticConfig, GeneticPartitioner
from repro.baselines.tabu import TabuConfig, TabuSearch
from repro.baselines.hill_climber import HillClimber
from repro.baselines.random_search import RandomSearch

__all__ = [
    "cluster_into_contexts",
    "list_schedule_software",
    "decode_partition",
    "GeneticConfig",
    "GeneticPartitioner",
    "TabuConfig",
    "TabuSearch",
    "HillClimber",
    "RandomSearch",
]
