"""Physical constants and the convention choices shared by every module.

All internal computation uses natural units hbar = c = 1 with lengths
measured in units of a reference radius (the first sphere of a scene).
Energies then come out in hbar*c/R_ref, forces in hbar*c/R_ref**2.  SI
conversion happens only at the input/output boundary (scene files, CSV).

Conventions (fixed here once, relied on everywhere):

* Spherical harmonics are fully normalized with the Condon-Shortley
  phase folded into the associated Legendre function:
      Y_lm(theta, phi) = P~_lm(cos theta) * exp(i m phi),
  where P~_lm is computed for every (l, m) up to l_max in one recurrence
  pass by ``specfun.legendre_table`` and P~_{l,-m} = (-1)^m P~_lm.

* All spectral quantities live on the imaginary frequency axis
  omega = i xi with xi >= 0.  The background wavenumber is
  kappa = n_B(xi) * xi (units of 1/R_ref), n_B = sqrt(eps_B(i xi)).

* Radial functions on the imaginary axis:
      regular   i_l(x) = sqrt(pi/2x) I_{l+1/2}(x)
      outgoing  e_l(x) = (-1)^l (2/pi) k_l(x),
                k_l(x) = sqrt(pi/2x) K_{l+1/2}(x)
  The (-1)^l(2/pi) factor makes e_l satisfy the same recurrence
  relations as i_l (so e_0(x) = exp(-x)/x), which lets the scalar
  addition theorem, the gradient identity and the angular-momentum
  identity hold with one common set of coupling coefficients for both
  kinds.  ``specfun.RadialKind`` names exactly this pair, REGULAR "i"
  and OUTGOING "e"; k_l is not evaluated anywhere.

* Scalar waves: psi^reg_lm = i_l(kappa r) Y_lm(r^),
  psi^out_lm = e_l(kappa r) Y_lm(r^).  Addition theorem used
  throughout (d = shift of the evaluation point, |r| < |d| for out->reg):

      psi^out_lm(r + d) = sum_{l'm'} beta^{or}_{lm,l'm'}(d) psi^reg_{l'm'}(r)

      beta^{or}_{lm,l'm'}(d) = 4 pi sum_p e_p(kappa d)
                               Y_{p,m-m'}(d^) G(l,m|l',m'|p)

  with G(l,m|l',m'|p) = Int Y_lm Y*_{l'm'} Y*_{p,m-m'} dOmega built from
  ``specfun.gaunt_coefficient``.  No parity phase appears: the (-1)^p
  hidden in e_p = (-1)^p (2/pi) k_p is exactly what the theorem needs.
  The regular->regular theorem is the same series with e_p -> i_p.

* Vector waves (polarizations): for each (l, m) with l >= 1
      M_lm = -(1/sqrt(l(l+1))) r x grad psi_lm        ("TE", pol 0)
      N_lm = (1/kappa) curl M_lm                      ("TM", pol 1)
  On the imaginary axis curl M = kappa N but curl N = -kappa M.

* Translation operators A^{i<-j} expand outgoing waves of sphere j in
  regular waves around sphere i and take the displacement argument
  d = r_i - r_j.  Their polarization blocks obey A^{NN} = A^{MM} and
  A^{NM} = -A^{MN}.

* Public matrices (Mie, rotation, translation blocks) are presented in
  the real-m basis: for each (pol, l), m > 0 labels the cosine-type
  combination ((-1)^m Y_lm + Y_{l,-m})/sqrt(2), m < 0 the sine-type
  combination ((-1)^|m| Y_{l|m|} - Y_{l,-|m|})/(i sqrt(2)), m = 0 is
  unchanged.  In this basis every operator at imaginary frequency is
  real; the builders transform from the complex-m basis and check that
  the discarded imaginary part is at rounding level.

* Basis ordering: index = pol * L(L+2) + (l^2 - 1) + (l + m) with
  pol in {0: TE/M, 1: TM/N}, l = 1..L_max, m = -l..l, so the basis size
  is D = 2 L_max (L_max + 2).

* Energy and force.  The interaction (Casimir) energy of a scene is
      E = (hbar c / 2 pi) Int_0^inf dxi ln det(1 - M(i xi)),
  M_ij = T_i A^{i<-j} (zero diagonal), T_i the Mie block of sphere i.
  The force on a target sphere t is F = -grad_{r_t} E, evaluated from
  the same integrand analytically:
      F_a = (hbar c / 2 pi) Int dxi tr[(1 - M)^{-1} d_a M].
  At T > 0 the xi integral (1/2pi)Int dxi -> k_B T/(hbar c) sum over
  Matsubara frequencies xi_n = 2 pi n k_B T/hbar with the n = 0 term at
  half weight.
"""

# CODATA 2018 exact / recommended values (SI)
HBAR = 1.054_571_817e-34        # J s
C_LIGHT = 299_792_458.0         # m / s
K_BOLTZMANN = 1.380_649e-23     # J / K

HBAR_C = HBAR * C_LIGHT         # J m


def matsubara_scale(temperature_k, length_m):
    """Dimensionless temperature T~ = k_B T R / (hbar c).

    The Matsubara frequencies in natural units (1/R) are
    xi_n = 2 pi n T~.
    """
    return K_BOLTZMANN * temperature_k * length_m / HBAR_C
