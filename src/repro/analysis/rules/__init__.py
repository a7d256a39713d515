"""Built-in genaxlint rules.

Importing this package registers every shipped rule with
:mod:`repro.analysis.registry`:

========  =================  ====================================================
code      name               invariant
========  =================  ====================================================
GX101     unseeded-random    all randomness flows through a seeded RNG instance
GX102     wall-clock         elapsed time is measured with a monotonic clock
GX103     set-iteration      output never depends on set (hash) iteration order
GX104     clock-confinement  every clock read goes through repro/telemetry/clock.py
GX201     counter-merge      every stats-dataclass field is folded in ``merge``
GX202     counter-snapshot   every counters field is exported by ``as_dict``
GX301     pickle-callable    only module-level callables cross process boundaries
GX401     mutable-default    no mutable default arguments
GX402     bare-except        no bare ``except:`` clauses
GX403     float-equality     no float ``==``/``!=`` in library code
========  =================  ====================================================

Every rule sees one parsed module at a time.
"""

from repro.analysis.rules import api_hygiene, counters, determinism, pickle_safety

__all__ = [
    "api_hygiene",
    "counters",
    "determinism",
    "pickle_safety",
]
