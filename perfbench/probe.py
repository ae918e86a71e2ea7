"""Fixed CPU probe: a stdlib-only mix of the kinds of work `aqrm` does.

The benchmark runs this in a fresh interpreter between timed passes, to
measure how fast the machine runs Python at that moment. Its work never
depends on the code under test, so changes to `aqrm` cannot move it.
"""

import math
from fractions import Fraction

# float recurrences over lists (series terms, banded LDL^T sweeps)
n = 600
b = [math.sqrt(i + 1.0) for i in range(n)]
d = [1.0] * n
acc = 0.0
for rep in range(60):
    shift = 0.37 * rep
    for j in range(1, n):
        d[j] = b[j] - shift - b[j - 1] * b[j - 1] / (d[j - 1] or 1e-300)
    acc += d[-1]

# exact rational arithmetic with gcd reductions (Sturm chains, families)
f = Fraction(0)
for i in range(1, 400):
    f = f * Fraction(3, 7) + Fraction(1, i)
    if i % 40 == 0:
        f = Fraction(f.numerator % 10 ** 40, f.denominator % 10 ** 40 + 1)

# dictionary and integer work (sparse polynomial terms)
terms: dict[int, int] = {}
for i in range(100000):
    terms[i % 997] = terms.get(i % 997, 0) + i

print(acc, f.denominator % 97, len(terms))
