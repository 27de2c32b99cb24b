"""``python -m benchmarks.e2e``: see README.md in this directory."""

import sys
from pathlib import Path

# The benchmark runs the checkout's own sources, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

if __name__ == "__main__":
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"benchmarks.e2e: cannot import the solver: {error}", file=sys.stderr)
        sys.exit(2)
    from benchmarks.e2e.cli import main

    sys.exit(main())
