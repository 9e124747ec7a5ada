"""Graded polynomial basics: slices, bases, and exact calculus.

Everything in this package lives in the quasi-homogeneous grading of
(x, y, z) with weights (1, 1, 2): the monomial x^i y^j z^l has degree
i + j + 2l.  This script walks through the graded slices and the exact
arithmetic on top of them.
"""

from fractions import Fraction

import hopfzero as hz

# Each graded slice has a deterministic ordered monomial basis.
for k in range(5):
    basis = hz.slice_basis(k)
    names = ["*".join(f"{v}^{e}" if e > 1 else v
                      for v, e in zip("xyz", m) if e) or "1"
             for m in basis.monomials]
    print(f"degree {k} slice, dimension {len(basis)}: {names}")

# Polynomials carry exact rational coefficients, optionally with symbolic
# parameters drawn from a declared table.
params = ("a",)
a = hz.ParamPolynomial.variable("a", params)
f = (hz.QHPolynomial.monomial((2, 0, 0), 1, params)
     + hz.QHPolynomial.monomial((0, 2, 0), 1, params)
     + hz.QHPolynomial.monomial((0, 0, 1), Fraction(1, 3), params).scale_param(a))
print("\nf =", f)
print("degrees present:", f.degrees())
print("df/dx =", f.partial("x"))
print("df/dz =", f.partial("z"))

# The grading interacts with multiplication the way degrees should.
g = hz.QHPolynomial.variable("z", params)
print("\nf * z has degrees", (f * g).degrees())

# Euler identity: x f_x + y f_y + 2 z f_z = k f on a degree-k slice.
h2 = hz.QHPolynomial.h_power(2, ())  # (x^2 + y^2)^2, degree 4
x = hz.QHPolynomial.variable("x", ())
y = hz.QHPolynomial.variable("y", ())
z = hz.QHPolynomial.variable("z", ())
euler = x * h2.partial("x") + y * h2.partial("y") + z.scale(2) * h2.partial("z")
print("\nEuler identity on (x^2+y^2)^2:", euler == h2.scale(4))

# Decomposition into slices is exact and recombines to the original.
mixed = f + hz.QHPolynomial.monomial((1, 0, 0), 5, params)
print("slice degrees:", mixed.degrees())
total = hz.QHPolynomial.zero(params)
for k in mixed.degrees():
    total = total + mixed.slice(k)
print("slices sum back to the original:", total == mixed)
