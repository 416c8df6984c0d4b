import collections
import sys

import pytest

from weylab.core import get_system


@pytest.fixture
def count_builds(monkeypatch):
    """count_builds(system_id) puts a counter on the pair_profile of that
    system's class and returns it: profile builds keyed on (p, q)."""
    def install(system_id):
        cls = type(get_system(system_id))
        build = cls.pair_profile
        counts = collections.Counter()

        def counting(self, p, q, lo, hi):
            counts[(p, q)] += 1
            return build(self, p, q, lo, hi)

        monkeypatch.setattr(cls, "pair_profile", counting)
        return counts
    return install


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # surface the acceptance pass/fail lines even when capture is on
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
