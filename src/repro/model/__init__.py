"""Application model: tasks, implementations and precedence graphs.

Implements the paper's application model (section 3.1): a coarse-grain
precedence DAG whose nodes carry a functionality, a software execution
time estimate, and a set of dominant (Pareto) hardware implementations —
each a (CLB count, execution time) point — and whose edges carry the
amount of data exchanged.

The motion-detection benchmark of section 5 is provided by
:func:`repro.model.motion.motion_detection_application`.
"""
