"""Host-performance benchmark of the simulator: workload suites end to end,
each simulator layer measured from outside.  Entry point: ``run.py``."""
