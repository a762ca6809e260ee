"""Witness certificates: numeric lower bounds on achievable decay.

A witness at time t is the kernel translated to t and modulated at frequency
R: g(s) = e^{iR(s-t)} h(s-t).  Its norm N in the weighted transform space is
computable, its peak value is exactly 1, and the ratio 1/N is a certified
floor: no decay estimate valid for the whole function class can go below it
at time t.  Optimizing R per t (Brent's method on log R) gives the sharpest
floor this family can certify.

The certificate records both the optimized R* and the explicit selection
rule R = C * M_log^{-1}(t), which is admissible for any sufficiently large
constant C -- here C = 6 -- and stays within a bounded factor of optimal.

Run:  python3 demos/03_witness_certificates.py
"""

import json
import math

import numpy as np

from tauberlab import growth, specialfn, witness

m = growth.poly(2.0)
eps = math.pi / 6.0

print("one certificate in full (t = 1000):")
cert = witness.optimize_R(m, 1000.0, eps, prescribed_C=6.0)
print(json.dumps(cert.to_json_dict(), indent=1, sort_keys=True))
print()

t_grid = np.geomspace(1e2, 1e6, 9)
curve = witness.sharpness_curve(m, t_grid, eps, prescribed_C=6.0)
print(f"{'t':>10}  {'R*':>10}  {'N(t)':>12}  {'floor 1/N':>11}  {'N/M_log^-1':>10}")
for t, c, ratio in zip(curve.t_values, curve.certificates, curve.ratios):
    print(f"{t:10.3g}  {c.R_star:10.4f}  {c.N:12.5g}  {c.implied_floor:11.4g}  {ratio:10.4f}")
print(f"\nband ratio max/min of N(t)/M_log^-1(t): {curve.band_ratio:.4f}")
print(f"explicit rule R = 6*M_log^-1(t) admissible everywhere: "
      f"{curve.prescribed_all_admissible}")

# The bound chain: the full witness norm is controlled by a closed-form
# right-hand side up to one constant kappa, frozen once on a calibration
# lattice and then valid with margin on fresh (R, t) pairs.
kernel = specialfn.build_kernel(specialfn.build_strip_function(m.m0))
cal = witness.calibrate_kappa(kernel, m, eps)
print(f"\nfrozen bound-chain constant kappa = {cal.kappa:.6f} "
      f"(margin {cal.margin:g} x worst calibration ratio {cal.max_ratio:.6f})")
w = witness.modulated_translate(kernel, 40.0, 300.0)
total = witness.x_norm(w, m).total
rhs, admissible = witness.bound_rhs(m, 40.0, 300.0, eps)
print(f"spot check at (R, t) = (40, 300): measured norm {total:.4f} "
      f"<= kappa * rhs = {cal.kappa * rhs:.4f}  (admissible: {admissible})")
