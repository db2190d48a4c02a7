"""
Many weakly coupled spheres: the collective ring estimate
=========================================================

For N weak spheres arranged so every connected scattering path hops a
distance s, the leading irreducibly connected contribution can be
estimated in closed form.  The package carries two routes: the exact
ring-diagram integral (log domain, exact moments) and its Stirling
asymptotic.  Both obey the same rescaling laws, which this demo checks
numerically, before cross-checking the s-exponent against a genuine
three-sphere multiple-scattering calculation.
"""

import math

from casphere import (LargeNParams, largen_asymptotic, largen_crosscheck,
                      largen_potential_integral)


def log_mag(n, alpha_s=0.01, radius=1.0, separation=8.0, route="integral"):
    p = LargeNParams(n=n, alpha_s=alpha_s, radius=radius,
                     separation=separation)
    f = largen_potential_integral if route == "integral" else largen_asymptotic
    return f(p).log_magnitude


# --- rescaling exponents ----------------------------------------------------
# |V| ~ alpha_S^N R^{3N} / s^{1+3N}: doubling s must shift ln|V| by
# -(1+3N) ln 2 and doubling alpha_S by +N ln 2, for either route.
print("N    s-exponent (want -(1+3N))    strength exponent (want N)")
for n in (4, 9, 30):
    ds = (log_mag(n, separation=16.0) - log_mag(n)) / math.log(2.0)
    da = (log_mag(n, alpha_s=0.02) - log_mag(n)) / math.log(2.0)
    print(f"{n:3d}      {ds:10.6f} vs {-(1 + 3*n):5d}      "
          f"{da:10.6f} vs {n:3d}")

# --- the two routes against each other --------------------------------------
print("\nN    ln|V| integral    ln|V| asymptotic    gap per sphere")
for n in (6, 10, 20, 40):
    li = log_mag(n)
    la = log_mag(n, route="asymptotic")
    print(f"{n:3d}   {li:13.4f}    {la:13.4f}       {(la - li)/n:8.4f}")
print("The per-sphere gap settles toward ln 6 = "
      f"{math.log(6.0):.4f}: the Stirling form keeps the exponents exact")
print("while its prefactor overcounts each hop by a bounded factor.")

# --- cross-check against real scattering ------------------------------------
rep = largen_crosscheck(3)
print(f"\nthree-sphere ring term: fitted s-exponent {rep.exponent_fit:.3f} "
      f"vs predicted {rep.exponent_predicted:.0f} "
      f"(rel error {rep.exponent_rel_error:.1e})")
