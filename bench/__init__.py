"""The repository benchmark: whole-figure host time, per-protocol cost,
simulated fidelity, and a traced per-layer breakdown.

``BENCHMARK.json`` at the repository root is the contract (command,
workloads, metric names, units, directions, bounds); ``bench/README.md``
says why each workload and metric exists.  Run it with::

    python3 -m bench --workload fig3-websearch --seed 42 --seconds 22 --trace 0

Nothing under ``src/`` is instrumented: spans are taken around calls into
public functions, counters are read through a passive ``bind(ctx)`` hook
passed via ``instruments=``, and per-layer self-time comes from
``cProfile`` in a separate traced repetition.
"""
