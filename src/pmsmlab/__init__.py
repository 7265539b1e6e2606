"""pmsmlab: observability analysis and sensorless estimation for PMSM drives."""

__version__ = "0.1.0"
