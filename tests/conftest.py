"""Shared acceptance-line recording.

Each acceptance test records exactly one PASS/FAIL line; the lines are
replayed in a terminal section after the run so they are visible even
with output capture on.
"""

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, description: str, ok: bool) -> None:
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(
            ACCEPTANCE_LINES, key=lambda s: int(s.split()[1])
        ):
            terminalreporter.write_line(line)
