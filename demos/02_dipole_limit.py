"""
Dipole limit: tiny weak spheres against the retarded dipole formula
===================================================================

Two spheres much smaller than their separation interact, at zero
temperature, through the retarded dipole potential

    V(d) = -23 hbar c alpha1 alpha2 / (4 pi d^7),

with static polarizability alpha = R^3 (eps - 1)/(eps + 2).  The full
multiple-scattering energy must reproduce this once R/d is small and
the contrast is weak.  The second half samples the potential along a
receding path and reads the d^-7 power law off its log-slope.
"""

import math

import numpy as np

from casphere import (ConstantPermittivity, SceneConfig, SphereSpec,
                      interaction_energy, potential_along_path)

R = 0.01
EPS = ConstantPermittivity(1.01)
ALPHA = R ** 3 * 0.01 / 3.01


def pair(d):
    return SceneConfig(
        spheres=(SphereSpec("a", (0.0, 0.0, 0.0), R, EPS),
                 SphereSpec("b", (0.0, 0.0, d), R, EPS)),
        l_max=1)


# --- energy against the closed form --------------------------------------
print("d/R    E_computed / E_dipole")
for d in (0.5, 1.0, 2.0):
    e, _, _ = interaction_energy(pair(d))
    e_dip = -23.0 * ALPHA ** 2 / (4.0 * math.pi * d ** 7)
    print(f"{d/R:5.0f}  {e / e_dip:.6f}")

# --- potential along a path ----------------------------------------------
# potential_along_path evaluates, at every sample, the energy of the
# scene minus the energy of the scene without the target, so the
# samples are independent.  For retarded dipoles the log-slope of V
# against separation should come out near -7.
path = np.zeros((40, 3))
path[:, 2] = np.geomspace(0.5, 2.0, 40)
res = potential_along_path(pair(0.5), "b", path)
slope = np.polyfit(np.log(res.separations), np.log(-res.potential), 1)[0]
print(f"\nlog-slope of V over the path = {slope:.4f} (retarded dipole: -7)")
print("s      V (hbar c / L0)")
for i in (0, 13, 26, 39):
    print(f"{res.separations[i]:.3f}  {res.potential[i]: .3e}")
