"""Mapping layer: solutions, search graphs, evaluation and schedules.

A *solution* (paper section 3.3) simultaneously fixes the HW/SW spatial
partitioning, the temporal partitioning into contexts, the software
total order and (implicitly, through the deterministic bus serializer)
the transaction order.  A solution is *realized* as a search graph — the
task graph plus sequentialization edges — whose longest path is the
solution's execution time (section 4.4).
"""
