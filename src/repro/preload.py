"""The fork server's warm-up: the one-time work of every solver child.

Only the fork server imports this module (it is :data:`repro.procs.PRELOAD`);
library code never does, so ``import repro`` and a process that forks
nothing pay none of it.  What it does once per fork server, every child
forked from it would otherwise do after each fork:

* import the cube worker and, through it, the solver;
* import the modules the worker path imports lazily -- the ITC'99
  registry with its circuits (``build_problem``) and the structural
  decision heuristic (``HdpllSolver``);
* generate every propagation-kernel family (some 0.06 s), so a child
  builds its kernels from inherited factories.

``tests/test_procs.py`` checks that a child forked from the server builds,
learns and solves a registry instance without importing a module or
generating a kernel family.
"""

from __future__ import annotations

import repro.core.justify  # noqa: F401 - HdpllSolver imports it lazily
import repro.itc99  # noqa: F401 - build_problem imports it lazily
import repro.portfolio.worker  # noqa: F401 - the worker and the solver
from repro.constraints.compile import warm_kernel_factories

warm_kernel_factories()
