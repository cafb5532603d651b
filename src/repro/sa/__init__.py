"""Simulated annealing: adaptive schedules, moves, and the explorer.

The paper's optimizer (section 4) is an adaptive variant of simulated
annealing following Lam's statistically controlled cooling: the cost is
treated as the energy of a dynamical system kept in quasi-equilibrium
while the temperature falls as fast as that constraint allows.  The
exploration starts from a random solution, spends a warmup phase at
infinite temperature (Fig. 2 runs 1200 such iterations), then cools
adaptively; it is anytime — interrupt it and the best solution so far is
returned.
"""
