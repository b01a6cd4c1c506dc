import numpy as np
import pytest
from hypothesis import settings

from spectree import SelfMap

# every run draws the same examples, so a test result never depends on the draw
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_ACCEPTANCE_RESULTS: dict[str, str] = {}


@pytest.fixture
def half_depth_ancestor_map():
    """Builds the symbol sending each vertex at depth m to its ancestor at
    depth m // 2. On a binary tree with weight 2^-depth its h is 2 at every
    target above half the truncation depth. On the infinite tree h = 2
    everywhere, so the operator is bounded and not compact while its
    multiplicity is unbounded."""
    def build(tree):
        image = np.arange(len(tree), dtype=np.int64)
        steps = tree.depth - tree.depth // 2
        for k in range(1, int(steps.max()) + 1):
            image = np.where(steps >= k, tree.parent[image], image)
        return SelfMap(tree, image)
    return build


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE_RESULTS[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE_RESULTS):
        name = nodeid.split("::")[-1]
        outcome = _ACCEPTANCE_RESULTS[nodeid]
        terminalreporter.write_line(f"{name}: {outcome.upper()}")
