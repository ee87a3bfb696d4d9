"""semistab: a numerical laboratory for semigroup stability asymptotics.

Builds concrete operator models, computes semigroups, resolvents, and
fractional powers, fits resolvent-growth and decay exponents, and checks
the measured asymptotics against guaranteed decay rates.

Importing the package imports none of its modules: each loads on first
use, as ``semistab.battery`` or ``from semistab import battery``, so a
run pays only for the modules it reads.
"""

import importlib

__all__ = [
    "battery",
    "decaylab",
    "errors",
    "fraccalc",
    "multiplier",
    "numcore",
    "operators",
    "resolvent",
]

__version__ = "0.1.0"

# the columns of every CSV table the package writes
CSV_HEADER = ["case", "t_or_xi", "value", "fit_exponent", "predicted", "source", "verdict"]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
