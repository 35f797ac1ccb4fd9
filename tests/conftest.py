import json

import pytest


@pytest.fixture
def jsonl_entries():
    """Reads a JSON-lines file, such as a chain transcript, back as one dict per line."""

    def read(path):
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    return read


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    label = marker.kwargs.get("label") or item.name
    status = "PASS" if report.passed else "FAIL"
    reporter = item.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(f"[acceptance] {label}: {status}")
