"""Analysis utilities: solution-space counting, sweeps, statistics."""
