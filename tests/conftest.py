import os

# One OpenBLAS thread for the suite, set before numpy loads; a value the
# caller exported wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Make the sibling oracle module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))
