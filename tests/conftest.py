import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every property test draws the same examples on every run, so a draw
# cannot pass one run and fail the next; each keeps its own max_examples.
settings.register_profile("gfsl", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("gfsl")
