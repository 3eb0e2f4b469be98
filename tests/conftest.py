from hypothesis import settings

# every run draws the same hypothesis examples, and none are replayed from a
# local database, so a rerun repeats the run that failed
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines after the test run.

    The acceptance tests print their CRITERION lines, but pytest only replays
    captured stdout for failures; this summary section shows every verdict
    (pass or fail) in a plain ``pytest`` run.
    """
    try:
        from test_acceptance import VERDICT_LINES
    except Exception:
        return
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)
