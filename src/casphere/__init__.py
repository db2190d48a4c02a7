"""Casimir forces between dielectric spheres by multiple scattering.

The force on each sphere of an N-sphere cluster in a (possibly
dielectric) background follows from one imaginary-frequency round trip:
Mie scattering off each sphere (``mie``), translation of vector
spherical waves between centers (``basis``, ``rotation``,
``translation``), a block linear solve or
fixed-order power for the multiple-scattering series (``scattering``),
and a quadrature or Matsubara sum over frequency (``spectral``).
``largen`` estimates the collective potential of many weakly coupled
spheres; ``cli`` exposes scenes, sweeps and CSV output.
"""

from .basis import BasisSpec
from .largen import (DEFAULT_A_BAR, CrosscheckReport, LargeNParams,
                     LargeNResult, largen_asymptotic, largen_crosscheck,
                     largen_potential_integral, ring_scene)
from .mie import (ConstantPermittivity, DrudeLorentzPermittivity,
                  PermittivityModel, TabulatedPermittivity, mie_coefficient,
                  mie_diag)
from .scattering import (ForceResult, PotentialResult, SceneConfig,
                         SphereSpec, casimir_force, energy_integrand,
                         force_integrand, interaction_energy,
                         logdet_energy_oracle, potential_along_path,
                         three_body_energy, three_body_force)
from .spectral import (SpectralSettings, integrate_zero_t, matsubara_sum,
                       zero_frequency_limit)
from .translation import translation_gradient, translation_matrix

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_A_BAR", "CrosscheckReport", "LargeNParams", "LargeNResult",
    "largen_asymptotic", "largen_crosscheck", "largen_potential_integral",
    "ring_scene",
    "ConstantPermittivity", "DrudeLorentzPermittivity", "PermittivityModel",
    "TabulatedPermittivity", "mie_coefficient", "mie_diag",
    "ForceResult", "PotentialResult", "SceneConfig", "SphereSpec",
    "casimir_force", "energy_integrand", "force_integrand",
    "interaction_energy", "logdet_energy_oracle", "potential_along_path",
    "three_body_energy", "three_body_force",
    "SpectralSettings", "integrate_zero_t", "matsubara_sum",
    "zero_frequency_limit",
    "BasisSpec", "translation_gradient", "translation_matrix",
    "__version__",
]
