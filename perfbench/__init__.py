"""End-to-end HTTP benchmark of the T-Crowd service, with per-layer traces.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` starts ``python -m repro.service`` as a subprocess, drives
one seeded workload against it over HTTP and prints its metrics; see
``perfbench/README.md``.
"""
