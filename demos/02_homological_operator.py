"""The slice operator of the principal part and its exact solves.

The map f -> grad(f) . F0 with F0 = (-2y, 2x, x^2 + y^2) acts on each graded
slice.  Its kernel/cokernel structure is what makes the whole obstruction
machinery work: on even slices exactly one direction (the power of x^2 + y^2)
is invisible, and exactly one direction (the power of z) is unreachable.
"""

import hopfzero as hz

# On the degree-1 slice {x, y} the operator is the rotation generator.
f0 = hz.principal_part(())
for name in ("x", "y"):
    image = hz.directional_derivative(hz.QHPolynomial.variable(name, ()), f0)
    print(f"degree-1 image of {name}: {image}")

# Structure per degree: even slices have a one-dimensional kernel spanned by
# (x^2+y^2)^(k/2) and cokernel represented by z^(k/2); odd slices are
# bijective.  This is recomputed and verified, never assumed.
for k in range(1, 9):
    analysis = hz.analyze_operator(k)
    if analysis.kernel_basis:
        print(f"degree {k}: kernel {analysis.kernel_basis[0]}, "
              f"cokernel representative {analysis.cokernel_representative}")
    else:
        print(f"degree {k}: bijective")

# Solving: operator(solution) = rhs - residual * z^(k/2), with the solution
# normalized to carry no kernel component.
rhs = hz.QHPolynomial.monomial((2, 0, 0), 1, ())  # x^2
sol = hz.solve_homological(2, rhs)
print("\nsolve on degree 2 with rhs x^2:")
print("  solution =", sol.solution, " residual =", sol.residual)
check = hz.directional_derivative(sol.solution, f0)
print("  applying the operator reproduces the rhs:", check == rhs)

# A right-hand side along z^(k/2) is pure residual.
params = ("c",)
c = hz.ParamPolynomial.variable("c", params)
rhs = hz.QHPolynomial({(0, 0, 1): c}, params)
sol = hz.solve_homological(2, rhs)
print("rhs c*z gives solution", sol.solution, "and residual", sol.residual)

# Parameters ride along linearly: the solve only scales coefficients by
# rationals and adds them, so no division by a parameter can ever happen.
rhs = hz.QHPolynomial({(2, 0, 0): c, (0, 0, 1): c * c}, params)
sol = hz.solve_homological(2, rhs)
print("mixed rhs: solution =", sol.solution, " residual =", sol.residual)
