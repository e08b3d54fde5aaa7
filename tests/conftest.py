"""Suite-wide pytest hooks."""


def _kernel_line():
    """Which kernel backends this run exercises, so a green run that
    covered only the python backend shows as such."""
    from repro.analysis.kernel import compiled_available, select
    from repro.errors import ReproError

    built = "imported" if compiled_available() else "not built"
    try:
        default = repr(select())
    except ReproError as exc:
        default = f"unavailable ({type(exc).__name__})"
    return (
        f"repro kernel: compiled extension {built}; "
        f"kernel='auto' resolves to {select('auto')!r}, "
        f"the default (REPRO_KERNEL or auto) to {default}"
    )


def pytest_report_header(config):
    return _kernel_line()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # The header is hidden under -q (the tier-1 command); repeat it.
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_kernel_line())
