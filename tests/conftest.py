"""Every config the suite loads is read by PyYAML too, and the sanitized
build's tests run beside the suite.

load_config reads YAML with qnaps.yamldoc; for the whole session its
reader is wrapped so that each text it returns a value for is also read
by yaml.safe_load, which must give an equal value of the same types
(tests/test_yamldoc.py holds the reader to PyYAML over random texts).

tools/sanitize.py takes a CPU for about ten seconds in a child of its
own. When test_sanitized_build_passes_the_loops_tests is selected, it
is started as soon as collection has finished, at the lowest priority
and with its output going to temporary files, and the test waits for it
through the sanitize_run fixture; the session's end stops it if the
test never ran.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

from qnaps import config, yamldoc

SANITIZED_TEST = "test_sanitized_build_passes_the_loops_tests"
SANITIZE_TIMEOUT = 300  # seconds from the start of tools/sanitize.py
_sanitize = pytest.StashKey()


@pytest.fixture(autouse=True, scope="session")
def _configs_read_as_safe_load_reads_them():
    from _helpers import same_yaml

    def read(text):
        value = yamldoc.read(text)
        assert same_yaml(value, yaml.safe_load(text)), text
        return value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "yamldoc", SimpleNamespace(read=read))
        yield


def pytest_collection_finish(session):
    if not any(item.originalname == SANITIZED_TEST for item in session.items):
        return
    out, err = tempfile.TemporaryFile("w+"), tempfile.TemporaryFile("w+")
    root = Path(__file__).resolve().parents[1]
    # a session of its own, so that stopping it stops its pytest child too
    child = subprocess.Popen([sys.executable, str(root / "tools" / "sanitize.py")], cwd=root,
                             stdout=out, stderr=err, start_new_session=True)
    # the lowest priority, which its children inherit: on a CPU the suite
    # wants, it takes only the time the suite leaves idle
    os.setpriority(os.PRIO_PROCESS, child.pid, 19)
    session.config.stash[_sanitize] = (child, out, err, time.monotonic() + SANITIZE_TIMEOUT)


def _stop(child: subprocess.Popen) -> None:
    if child.poll() is None:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()


def pytest_sessionfinish(session):
    if (started := session.config.stash.get(_sanitize, None)) is not None:
        child, out, err, _ = started
        _stop(child)
        out.close()
        err.close()


@pytest.fixture
def sanitize_run(request) -> subprocess.CompletedProcess:
    """The run of tools/sanitize.py started at collection, once it has
    ended, as subprocess.run(..., capture_output=True, text=True,
    timeout=SANITIZE_TIMEOUT) returns it."""
    child, out, err, deadline = request.config.stash[_sanitize]
    try:
        child.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(child)
        raise
    out.seek(0)
    err.seek(0)
    return subprocess.CompletedProcess(child.args, child.returncode, out.read(), err.read())
