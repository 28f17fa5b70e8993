"""Reference implementations kept as test oracles.

Production has one implementation per hot path: the CSR array kernel for
shortest paths, the vectorized bulk replay for fleets, the vectorized
ArcFlag flag build.  The slower, obviously-correct implementations they
replaced live here so the bit-identity suites and the benchmark baselines
can keep comparing production against them by name:

* :mod:`oracles.dijkstra` -- the dict Dijkstra;
* :mod:`oracles.replay` -- the scalar per-device ``replay_trace``;
* :mod:`oracles.arcflag` -- the dict-based ArcFlag flag construction.

The test suite imports them as ``oracles.*`` (pytest puts ``tests/`` on
``sys.path``); the benchmarks do the same through ``benchmarks/conftest.py``.
"""
