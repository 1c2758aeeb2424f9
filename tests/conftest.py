import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run slow checks (the t=14 window total, its state graph under 16 MB)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow check; use --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def sweep5_reports():
    """One shared t<=5 sweep for witness-based structural checks."""
    from laglab.verifier import sweep

    return sweep(5)


@pytest.fixture(scope="session")
def sweep6_reports():
    """One shared t<=6 sweep (the exhaustive acceptance scope)."""
    from laglab.verifier import sweep

    return sweep(6)
