"""The exponential-comb strip function and its inversion kernel.

Everything downstream needs one special function: an entire function that
decays double-exponentially on a vertical strip.  We use the exponential
comb exp(4 cos(eps*lam)), recentered so the strip |Re lam| < 1/m0 sits where
the cosine is at most -1/2; there

    |H(lam)| <= exp(-(e^{eps y} + e^{-eps y})),   lam = x + iy,

which beats any single exponential.  Restricting H to the strip's center
line and inverting the Fourier transform produces a smooth, real, integrable
kernel h, normalized so its peak value is exactly 1.  The kernel is the raw
material for every witness function built later.

Run:  python3 demos/02_strip_kernel.py
"""

import math

import numpy as np

from tauberlab import regions, specialfn

m0 = 1.0
strip = specialfn.build_strip_function(m0)
print(f"strip function: eps = {strip.epsilon:.6f} (= pi*m0/6), "
      f"center at {strip.x_center:g}, half-width {strip.strip_half_width:g}")
print(f"|H(0)| on the center line: {strip.modulus(0.0):.6e} "
      f"(= exp(-2*sqrt(3)) = {math.exp(-2.0 * math.sqrt(3.0)):.6e})")

# Double-exponential decay, verified as a weighted supremum over the strip:
# |H| * exp(exp(eps|Im|)) stays bounded by e no matter how tall the grid.
grid = regions.sample(strip.strip_half_width, 12.0, 21, 241)
sup = specialfn.verify_strip_decay(strip, strip.epsilon, grid)
print(f"weighted strip supremum (height 12): {sup:.6f}  <= e = {math.e:.6f}")

print("\nbuilding the kernel (Fourier inversion of the center line)...")
kernel = specialfn.build_kernel(strip)
print(f"peak at t0 = {kernel.t0:g}, peak value exactly 1")
print(f"L1 norm      = {kernel.l1_norm:.12f}")
print(f"sup norm     = {kernel.linf_norm:.12f}")
print(f"L1 of h'     = {kernel.deriv_l1_norm:.12f}")
print(f"sup of h'    = {kernel.deriv_linf_norm:.12f}")

# Construction-time guarantees: the build measured the round trip once and
# refuses a kernel whose deviation exceeds 1e-8.
dev = kernel.roundtrip_max_dev
reality = specialfn.reality_ratio(kernel)
print(f"\nround trip |quadrature transform - closed form| on a 20x20 grid: {dev:.3e}")
print(f"imaginary residue relative to the peak:                          {reality:.3e}")

# How concentrated is it?  Nearly all mass sits within a few units of t0.
t = kernel.samples.t_grid
vals = np.abs(kernel.samples.values)
for radius in (2.0, 4.0, 6.0):
    inside = vals[np.abs(t - kernel.t0) <= radius].sum() * kernel.samples.step
    print(f"fraction of L1 mass within {radius:g} of the peak: "
          f"{inside / kernel.l1_norm:.9f}")
print("\nThe far tail underflows double precision and is stored as exact")
print("zeros, so translated copies can be split and transformed cheaply.")
