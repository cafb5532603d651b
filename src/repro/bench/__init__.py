"""Scenario corpus.

:mod:`repro.bench.corpus` holds the named, seed-deterministic scenario
families; every scenario materializes to a hashed
:class:`~repro.io.ProblemInstance`.  Like every subpackage, the
package imports nothing, so import the module by name.  The
repository's benchmark is ``perfbench/`` at the root of a checkout,
which builds its instances from this corpus.
"""
