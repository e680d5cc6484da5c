"""The repo's benchmark: five workloads, six end-to-end metrics, a traced run.

``BENCHMARK.json`` at the repository root is the contract; ``bench/README.md``
says what each number means.  Everything here measures ``src/repro`` from
outside, through its public functions.
"""
