"""Write the committed default-seed reference outputs under `reference/`.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Each output must first pass the workload's correctness check. Rewrite a
reference only when a change is meant to alter the printed results.
"""

from __future__ import annotations

import json
import sys

import check
import run
import workloads


def write_reference(name: str, launcher: run.Launcher) -> None:
    wl = workloads.generate(name, workloads.DEFAULT_SEED)
    expect = check.expectations(wl)
    invocations = []
    for argv in wl.invocations:
        _, rc, _, out = launcher.spawn(["-m", "aqrm.cli", *argv], "reference")
        problems = check.check(wl, argv, rc, out, expect)
        if problems:
            raise run.BenchError(f"{name}: {' '.join(argv)}: {problems}")
        invocations.append({"argv": list(argv), "stdout": out})
    path = run.REFERENCE / f"{name}.json"
    path.write_text(json.dumps({"seed": workloads.DEFAULT_SEED,
                                "invocations": invocations}, indent=1) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")


def main(names: list[str]) -> int:
    env = run.child_env()
    run.OUT.mkdir(exist_ok=True)
    run.REFERENCE.mkdir(exist_ok=True)
    with run.Launcher(env) as launcher:
        for name in names or workloads.NAMES:
            write_reference(name, launcher)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
