"""Process-parallel execution of independent simulation tasks."""

from repro.parallel.pool import default_workers, map_parallel

__all__ = ["map_parallel", "default_workers"]
