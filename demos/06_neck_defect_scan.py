"""Scan the gluing neck defects against t and fit their decay exponents.

A one-parameter family of glued structures interpolates between a
desingularized patch (scale t) and the fixed outer geometry across a
shrinking neck annulus. Every defect norm must decay at a predicted
power of t; the scan fits the exponents and compares them with the
exact rational ledger.

This runs a coarse grid to stay quick; the package defaults
(n_radial=6, link_level=(4, 4, 4), n_sup_dirs=12) sharpen the fits at
about four seconds per row on two cores.
"""

from cyglue.gluing import GluingConfig, defect_scan, thm52_check

config = GluingConfig(t=0.1, n_radial=2, link_level=(2, 2, 2),
                      n_sup_dirs=4)
print("rates: nu =", config.nu, " lam =", config.lam)
print("alpha =", config.alpha, " kappa =", config.kappa,
      " gamma =", config.gamma)

scan = defect_scan(config, [0.4, 0.25, 0.16, 0.1])
verdict = thm52_check(scan, config)

# the verdict fits the scan once; ledger columns also carry the rate the
# theorem predicts (gamma + c alpha) and the one it needs (kappa + c)
print(f"\n{'column':>18}  {'fitted':>8}  {'predicted':>9}  {'required':>8}")
for name, fit in verdict.fits.items():
    if fit is None:
        continue
    m = verdict.measured.get(name)
    rates = "" if m is None else \
        f"  {m['predicted']:9.3f}  {m['required']:8.3f}"
    print(f"{name:>18}  {fit[0]:8.3f}{rates}")

print("\nexact inequality ledger:",
      sum(verdict.exact.values()), "of", len(verdict.exact), "hold")
print("measured rates dominate the required ones:",
      all(m["pass"] for m in verdict.measured.values()))
# decided by its proof: alpha < 1 and no family offset above the L2 one
print("L2 rates imply the whole ledger:", verdict.implication_pass)
print("overall:", verdict.all_pass)
