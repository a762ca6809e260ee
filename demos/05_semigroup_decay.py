"""Two semigroup models and the separation of their decay rates.

Multiplication model: a diagonal generator with eigenvalues
lam_n = -1/M(s_n) + i s_n at geometric frequencies s_n.  The measured decay
norm max_n e^{-t/M(s_n)} / |lam_n| is exactly computable; for quadratic M it
falls like t^{-1/2}, the rate predicted by the raw inverse M^{-1}(t).

Shift model: a left shift on a weighted half-line space whose resolvent has
the same growth M.  Here decay can only be bounded from below -- each witness
gives a certified floor 1/||g'||_X at its time -- and those floors fall at
the slower log-augmented rate, like M_log^{-1}(t)^{-1} up to constants.
Both models return their values unfitted; compare_rates fits the log-log
slope and the constants of the two inverse-rate curves, here for both.

Same resolvent growth, provably different decay: the normalized ratio of the
two curves drifts up by about sqrt(2) per three decades for M = (1+s)^2,
which is exactly the (log t)^{1/2} gap between the two inverses.

Run:  python3 demos/05_semigroup_decay.py   (about 10 seconds)
"""

import math

import numpy as np

from tauberlab import growth, semigroup, specialfn

m = growth.poly(2.0)
eps = math.pi / 6.0
params = growth.RateParams(c=1.5, C_choice=1.0)

print("multiplication model, frequencies 2 .. 2^20:")
spec = semigroup.mult_semigroup(m)
ts = np.geomspace(1e2, 1e6, 25)
mult = semigroup.compare_rates(semigroup.mult_decay_report(spec, ts), m, params)
print(f"  fitted log-log slope = {mult.slopes['measured']:+.4f}  (raw-inverse "
      f"prediction: -1/2)")
print(f"  matched constants: d1 = {mult.constants['d1']:.4f} against the "
      f"log-augmented curve, d2 = {mult.constants['d2']:.4f} against the raw curve")

print("\nshift model, witness floors at 9 log-spaced times:")
kernel = specialfn.build_kernel(specialfn.build_strip_function(m.m0))
taus = np.geomspace(1e3, 1e6, 9)
floors = semigroup.shift_witness_lower(m, kernel, taus, eps)  # certified floors, unfitted
shift = semigroup.compare_rates(floors, m, params)
print(f"  fitted log-log slope = {shift.slopes['measured']:+.4f}  (log-augmented "
      f"prediction is shallower than -1/2)")

dvals = np.array([semigroup.decay_norm(spec, t) for t in taus])
ratio = (shift.values / shift.values[0]) / (dvals / dvals[0])
print(f"\n{'tau':>10}  {'shift floor':>12}  {'mult decay':>12}  {'normalized ratio':>16}")
for tau, lo, d, r in zip(taus, shift.values, dvals, ratio):
    print(f"{tau:10.3g}  {lo:12.5g}  {d:12.5g}  {r:16.4f}")

print(f"\nnormalized at tau = 1e3, the shift floors outrun the multiplication")
print(f"decay by a factor {ratio[-1]:.3f} at tau = 1e6 (sqrt(2) ~ 1.414 is the")
print(f"asymptotic prediction; finite-range fits land above it).")
print("\nSame resolvent growth on the axis; genuinely different decay rates --")
print("the lower bounds certify that the log-augmented prediction is not slack.")
