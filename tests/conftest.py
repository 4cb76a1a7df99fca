import os

# One OpenBLAS thread for the suite, set before numpy loads; a value the
# caller exported wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Make the sibling oracle module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))


import pytest  # noqa: E402


@pytest.fixture
def csv_parses(monkeypatch) -> list:
    """Each trajectory CSV parse made through ``sparsedyn.simulate`` during
    the test, as the length of its text."""
    import sparsedyn.simulate as sim

    calls, parse = [], sim.trajectory_from_csv

    def counted(text):
        calls.append(len(text))
        return parse(text)

    monkeypatch.setattr(sim, "trajectory_from_csv", counted)
    return calls
