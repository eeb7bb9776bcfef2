from __future__ import annotations

import sys

from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines at the end of the run, if they ran."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "LINES", ()) if module else ()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
