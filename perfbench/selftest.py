#!/usr/bin/env python3
"""Show that each output check of the benchmark can fail.

    python3 perfbench/selftest.py

Runs one criterion-9-size scan and the thm52 suite through the program,
confirms the checks pass on their real output, then feeds the checks four
broken copies and confirms each is caught by the check meant for it:
one curvature_sup value scaled by 1.01, one neck volume 5 % off, the CSV
with one digit changed, and a report with one failed check. Exits 1 if
any broken input gets through or the real output is refused.
"""

import dataclasses
import sys

import checks
import run


def with_value(text: str, row: int, column: str, factor: float) -> str:
    header, values = checks.parse_scan_csv(text)
    values[row][header.index(column)] *= factor
    lines = [",".join(header)]
    lines += [",".join("%.17g" % v for v in r) for r in values]
    return "\n".join(lines) + "\n"


def with_digit_changed(text: str) -> str:
    """Change the last digit of the second value on the third line."""
    lines = text.split("\n")
    fields = lines[2].split(",")
    last = fields[1][-1]
    fields[1] = fields[1][:-1] + ("1" if last != "1" else "2")
    lines[2] = ",".join(fields)
    return "\n".join(lines)


def main() -> int:
    mods = run.setup("scan_small", 0)
    gl = mods["gluing"]
    level = run.SMALL["link_level"]
    scan, text = run.scan_run(mods, run.SMALL, 1, 0, run.OUT / "selftest")
    thm52 = run.suite_run(mods, "thm52", 0, run.OUT / "selftest")

    cases = [
        ("real scan passes", checks.check_scan(text, level, 0, gl), None),
        ("real reports pass",
         checks.check_reports({"glue-scan": scan, "thm52": thm52}), None),
        ("curvature_sup x 1.01",
         checks.check_scan(with_value(text, 1, "curvature_sup", 1.01),
                           level, 0, gl), "curvature_sup * t^2"),
        ("neck_volume 5 % off",
         checks.check_scan(with_value(text, 2, "neck_volume", 1.05),
                           level, 0, gl), "neck_volume"),
        ("one CSV digit changed",
         checks.check_same_csv(with_digit_changed(text), text, "reference"),
         "differs"),
    ]
    broken = dataclasses.replace(thm52, checks=list(thm52.checks))
    broken.checks[0] = dataclasses.replace(broken.checks[0], passed=False)
    cases.append(("report with one failed check",
                  checks.check_reports({"thm52": broken}), "failed checks"))

    ok = True
    for name, failures, expect in cases:
        if expect is None:
            good = not failures
        else:
            good = any(expect in msg for msg in failures)
        ok &= good
        print(f"{'pass' if good else 'FAIL'}  {name}: "
              f"{failures or 'no failures'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
