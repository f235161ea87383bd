"""Shared test configuration.

Hypothesis deadlines are disabled because the exact-arithmetic paths have
wildly varying per-example cost (Fraction denominators grow with the input)
and a wall-clock deadline would make failures nondeterministic.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "effdim",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("effdim")
# ten times the examples, for a run that names it: --hypothesis-profile=effdim-wide
settings.register_profile("effdim-wide", parent=settings.get_profile("effdim"), max_examples=600)

# Filled by the acceptance tests; shown after the run so the scorecard
# survives output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance scorecard")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
