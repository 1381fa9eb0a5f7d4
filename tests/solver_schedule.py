"""The one test seam for the solver's caps and budget.

A solve takes only its seed and the thorough flag; its edge_cap, test_cap
and iteration budget come from solver._schedule(n, thorough).  A test that
needs other values patches that function through set_schedule.
"""

from hamperm import solver

SCHEDULE = solver._schedule


def set_schedule(monkeypatch, **caps):
    """Make later solves use the given edge_cap, test_cap and budget in
    place of the scheduled ones; one left out keeps its scheduled value."""

    def schedule(n, thorough):
        edge_cap, test_cap, budget = SCHEDULE(n, thorough)
        return (
            caps.get("edge_cap", edge_cap),
            caps.get("test_cap", test_cap),
            caps.get("budget", budget),
        )

    monkeypatch.setattr(solver, "_schedule", schedule)
