"""
Two dielectric spheres: force sweep and energy consistency
==========================================================

The basic object is a scene: spheres with centers, radii and
permittivity models, plus a multipole truncation l_max.  This demo
sweeps the center distance of a vacuum pair, then checks that the
reported force is the derivative of the interaction energy and that
the low-order scattering expansion approaches the resummed answer.

All lengths are in units of the sphere radius; forces come out in
hbar c / R^2, energies in hbar c / R.  The error column combines the
quadrature estimate with the l_max vs l_max - 1 truncation delta, so
it is dominated by truncation until l_max is high enough.  A reduced
frequency grid keeps the demo quick; it matches the default grid to
machine precision here.
"""

import numpy as np

from casphere import (ConstantPermittivity, SceneConfig, SphereSpec,
                      SpectralSettings, casimir_force, interaction_energy)

EPS = ConstantPermittivity(2.6)
FAST = SpectralSettings(n_nodes=24)


def pair(d, l_max=3):
    return SceneConfig(
        spheres=(SphereSpec("a", (0.0, 0.0, 0.0), 1.0, EPS),
                 SphereSpec("b", (0.0, 0.0, d), 1.0, EPS)),
        l_max=l_max, spectral=FAST)


# --- force vs separation -------------------------------------------------
# The force on sphere "b" points back toward "a", so F_z < 0 on "b"
# means attraction.
print("center distance d | F_z on b (hbar c/R^2) | error | n_freq")
for d in np.linspace(3.0, 6.0, 7):
    res = casimir_force(pair(d), "b")
    print(f"  {d:5.2f}            {res.force[2]: .6e}      "
          f"{res.error[2]:.1e}  {res.n_freq}")

# --- force equals minus the energy slope ---------------------------------
d0, h = 4.0, 1e-3
e_hi, _, _ = interaction_energy(pair(d0 + h))
e_lo, _, _ = interaction_energy(pair(d0 - h))
fd = -(e_hi - e_lo) / (2.0 * h)
fz = casimir_force(pair(d0), "b").force[2]
print(f"\nat d = {d0}: F_z = {fz:.10e}")
print(f"           -dE/dd = {fd:.10e}   (rel diff {abs(fd/fz-1.0):.2e})")

# --- scattering-order convergence ----------------------------------------
# fixed_k=k keeps round trips with exactly k scattering events; the
# resummed result solves the full linear system.  A closed path on two
# spheres needs an even number of hops, so every odd order vanishes.
res_full = casimir_force(pair(d0), "b")
print(f"\nresummed        F_z = {res_full.force[2]: .6e}")
acc = 0.0
for k in (2, 3, 4):
    term = casimir_force(pair(d0), "b", fixed_k=k).force[2]
    acc += term
    print(f"fixed_k={k} term     {term: .6e}   running sum {acc: .6e}")
