"""Application domains from the paper's section 4.

They are workloads that run the library, not part of it: the benches,
the five section-4 examples and their tests import this package as
``apps`` with ``benchmarks/`` on the path.

- :mod:`apps.recovery` — distributed execution of recovery blocks
  (section 4.1).
- :mod:`apps.prolog` — OR-parallelism in a Horn-clause engine
  (section 4.2).
- :mod:`apps.poly` — polyalgorithms and the parallel Jenkins-Traub
  rootfinder behind Table I (section 4.3).
- :mod:`apps.sorting` — the section 3.2 quicksort motivation: sorts
  whose winner rotates with the input class.
- :mod:`apps.errors` — the errors they raise.
"""
