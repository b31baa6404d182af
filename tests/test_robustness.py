"""How criterion 5's fixture reports a robustness run that fails or hangs."""

import subprocess
import sys

import pytest
from robustness import WHAT, results


def _python(code: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def test_a_failed_run_raises_with_its_exit_status_and_stderr():
    proc = _python("import sys; sys.stderr.write('Traceback: boom\\n'); sys.exit(3)")
    with pytest.raises(RuntimeError) as err:
        results(proc)
    assert str(err.value) == f"{WHAT}: exit status 3\nTraceback: boom\n"


def test_a_run_past_the_timeout_is_killed_and_named():
    proc = _python("import time; time.sleep(60)")
    with pytest.raises(RuntimeError, match=r"did not finish within 0.2 s$") as err:
        results(proc, timeout=0.2)
    assert str(err.value).startswith(WHAT)
    assert proc.returncode is not None  # killed and reaped
