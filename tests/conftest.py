import pathlib
import sys

from hypothesis import settings

# The plain-data evaluator of the two-stage semantics, bench/reference.py, is
# the reference the differential tests hold the library to.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

settings.register_profile("desk", deadline=None)
settings.load_profile("desk")
