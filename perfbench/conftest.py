import sys
from pathlib import Path

# the benchmark measures the package in this checkout's src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
