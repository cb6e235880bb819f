import signal
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every property test draws the same examples on every run, so a draw
# cannot pass one run and fail the next; each keeps its own max_examples.
settings.register_profile("gfsl", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("gfsl")

# A test that runs this long has hung (the slowest takes a few seconds):
# it fails, naming itself, and the suite goes on.
HANG_SECONDS = 60


@pytest.fixture(autouse=True)
def fail_on_hang(request):
    def hung(signum, frame):
        pytest.fail(f"{request.node.nodeid} still running after "
                    f"{HANG_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(HANG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
