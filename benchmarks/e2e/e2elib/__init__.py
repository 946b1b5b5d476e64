"""Support library of the end-to-end benchmark (see ../README.md).

Everything here is the benchmark's own: it calls ``repro.*`` public
functions, the stdlib and numpy, and shares no code with the older
``benchmarks/bench_*.py`` scripts.
"""
