"""cascadelab: percolated contagion, count-release privacy, and inference attacks."""

__version__ = "0.2.5"

from .graph import *
from .percolation import *
from .privacy import *
from .attack import *

__all__ = [name for name in dir() if not name.startswith("_")]
