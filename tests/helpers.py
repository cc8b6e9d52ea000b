"""Helpers shared by the test modules."""

import io
from contextlib import redirect_stdout

from hypothesis import strategies as st

from gmacfb import cli


def run_inprocess(args):
    """Run the CLI in this process; return (exit code, stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def log_uniform(lo_exp: float, hi_exp: float):
    """Floats 10^e with e uniform on [lo_exp, hi_exp]."""
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)
