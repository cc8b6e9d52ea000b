"""Helpers shared by the test modules."""

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import strategies as st

from gmacfb import cli


def run_inprocess(args):
    """Run the CLI in this process; return (exit code, stdout, stderr).

    An argparse exit becomes the exit code. Every warning raised during the
    run, on any thread, is written to the returned stderr, so an empty
    stderr is at least as strict a check as in a fresh interpreter.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, out.getvalue(), err.getvalue()


def log_uniform(lo_exp: float, hi_exp: float):
    """Floats 10^e with e uniform on [lo_exp, hi_exp]."""
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)
