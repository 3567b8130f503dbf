"""Complex polynomial zero finding (Jenkins-Traub Algorithm 419 [11]).

The paper's Table I workload: "Using polar coordinates, the angle of the
starting value is a random choice in the complex version of the
Jenkins-Traub polynomial zero finder. In practice, several angles are
tried, based on numerical experience. A parallel version of this
algorithm was created by making several choices for the starting value
and executing them in parallel."

- :mod:`apps.poly.rootfind.polynomial` — dense complex polynomials
  (Horner evaluation, synthetic division, Cauchy radius bound).
- :mod:`apps.poly.rootfind.jenkins_traub` — the three-stage
  no-shift / fixed-shift / variable-shift iteration with the random
  starting-angle degree of freedom, deflation driver, and failure
  accounting.
- :mod:`apps.poly.rootfind.parallel` — the Multiple Worlds driver:
  several angle choices raced in parallel (Table I).
"""

from apps.poly.rootfind.polynomial import Polynomial
from apps.poly.rootfind.jenkins_traub import (
    JTOptions,
    JTReport,
    find_one_zero,
    find_all_zeros,
)
from apps.poly.rootfind.parallel import (
    ParallelRootfinder,
    RootfinderRun,
    TableOneRow,
)

__all__ = [
    "Polynomial",
    "JTOptions",
    "JTReport",
    "find_one_zero",
    "find_all_zeros",
    "ParallelRootfinder",
    "RootfinderRun",
    "TableOneRow",
]
