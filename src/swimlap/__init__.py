"""Swim-lap track reconstruction and propulsive energetics from tag data."""

from .ingest import parse_tag_csv
from .params import get_animal
from .simulator import LapScenario, simulate

__version__ = "0.1.0"
