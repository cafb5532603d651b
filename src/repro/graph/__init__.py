"""Graph substrate: DAGs, reachability and longest paths.

This subpackage is self-contained (no dependency on the application or
architecture models) and provides:

* :class:`~repro.graph.dag.Dag` — a mutable directed acyclic graph with
  node/edge attributes, the base structure for task graphs and search
  graphs.
* :class:`~repro.graph.reachability.ReachabilityIndex` — static
  ancestor/descendant bitsets answering the move generator's
  precedence queries (the "transitive closure matrix" of the paper's
  section 4.3).
* :mod:`~repro.graph.longest_path` — topological longest-path dynamic
  programming (the paper's makespan evaluation, section 4.4).
* :mod:`~repro.graph.persistent_dp` — the same longest path kept across
  small edits over one persistent topological order (the incremental
  evaluation engine's core).
* :mod:`~repro.graph.generators` — random DAG generators used by tests
  and benchmarks.
"""
