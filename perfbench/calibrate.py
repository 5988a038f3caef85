"""Fixed work that tracks the speed of the host, for scaling CLI timings.

The benchmark spawns this script between CLI operations.  It does the kinds
of work a CLI child does (interpreter start-up, importing the stdlib modules
the CLI imports, Fraction arithmetic, big-integer rows, rendering a big
integer) in a fixed amount, and shares no code with the package, so changes
to the package never move its time.
"""

import argparse  # noqa: F401  imported for its start-up cost, as the CLI does
import csv  # noqa: F401
import dataclasses  # noqa: F401
import io  # noqa: F401
import json  # noqa: F401
import re  # noqa: F401
from fractions import Fraction

total = Fraction(0)
for k in range(1, 400):
    total += Fraction((-1) ** k * 3**k, 4**k * k)

row = [1]
for _ in range(200):
    row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]

str(total.numerator % 10**4000)
