"""Regenerate exit_reference.json: eps*log E[tau] per exit_ladder rung.

    python3 perfbench/make_exit_reference.py [M]

Run from the repository root.  Samples REF_M paths per rung (default
10000) at REF_SEED with the library's exit_scaling, and stores each rung's
eps*log E[tau] with its standard error (delta method on the mean's CI).
The benchmark accepts a rung when it lies within workloads.EXIT_Z
combined standard errors of this value.  The stored table was produced
at the commit that introduced the benchmark; regenerate it only when a
change is meant to alter the exit-time law, and say so.
"""

import json
import os
import sys

REF_SEED = 20240601
REF_M = 10000


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads
    from strongdamp import exit_scaling, load_preset

    M = int(sys.argv[1]) if len(sys.argv) > 1 else REF_M
    table = {"_meta": {"seed": REF_SEED, "M": M}}
    for preset, ladder in sorted({(s[1], s[2]) for s in workloads.EXIT_SLOTS}):
        sc = exit_scaling(load_preset(preset), ladder, M, REF_SEED)
        table[preset] = {
            repr(float(s.eps)): [s.eps_log_mean,
                                 s.eps * s.ci_halfwidth / 1.96 / s.mean_tau]
            for s in sc.stats}
        if any(s.timeouts for s in sc.stats):
            raise SystemExit(f"{preset}: timeouts in the reference run")
        print(preset, table[preset], flush=True)
    with open(os.path.join(here, "exit_reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
