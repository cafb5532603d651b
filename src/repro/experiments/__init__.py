"""Experiment harness: one module per paper artefact.

Every table and figure of the paper's evaluation (section 5) has a
``run_*`` function here; ``benchmarks/test_*.py`` run them at the
paper's budgets and fixed seeds and assert the paper's claims
(``python -m pytest benchmarks/ -s`` prints the tables).
"""
