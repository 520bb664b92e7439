"""Interleaved A/B timing of two source trees of the package in one process.

Usage: python3 scripts/ab_compare.py OLD_SRC NEW_SRC --workload W --rounds N
       [--seed S] [--case NAME ...]

OLD_SRC and NEW_SRC are directories that hold an ``advbayes`` package (a
checkout's ``src``).  Both are imported into this process under the package
names ``ab_old`` and ``ab_new``.  The workload's cases come from
``bench/workloads.py`` of this checkout, and each CLI command runs in-process
as ``bench/run.py`` runs it.  Every round runs each case once on each tree,
one op at a time, the two trees in turn (which goes first alternates from
round to round), so that a drift of the machine's speed reaches both alike.
Each op's exit code must be identical on both trees, or the run stops.

A table of per-case median times, their new/old ratio and whether the two
trees printed the same standard output in every round goes to standard
output, then one JSON line with the geometric mean of the ratios.  The run
times a change that alters reports to the end, then exits 1 and names each
case whose output differed.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TREES = ("ab_old", "ab_new")


def load_tree(src: Path, name: str):
    """``advbayes.cli`` of the package under ``src``, imported as ``name``."""
    package = src / "advbayes"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no advbayes package under {src}")
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_src", type=Path)
    p.add_argument("new_src", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--rounds", required=True, type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--case", action="append", default=[],
                   help="run only the case of this name (repeatable)")
    return p.parse_args(argv)


def compare(args) -> dict:
    sys.path.insert(0, str(BENCH))
    import run
    import workloads

    mains = [load_tree(src, name).main for src, name in zip((args.old_src, args.new_src), TREES)]
    with tempfile.TemporaryDirectory() as workdir:
        cases = workloads.generate(args.workload, args.seed, workdir)
        if args.case:
            cases = [c for c in cases if c.name in args.case]
            if not cases:
                raise SystemExit(f"error: no case named {args.case} in {args.workload}")
        times = {c.name: ([], []) for c in cases}
        same = {c.name: True for c in cases}
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for case in cases:
                outputs = [None, None]
                for t in order:
                    code, text, seconds = run.call(mains[t], case.argv)
                    outputs[t] = (code, text)
                    times[case.name][t].append(seconds)
                if outputs[0][0] != outputs[1][0]:
                    raise SystemExit(f"error: {case.name} exits {outputs[0][0]!r} on the old "
                                     f"tree and {outputs[1][0]!r} on the new one")
                same[case.name] &= outputs[0][1] == outputs[1][1]
    medians = {name: [1e3 * statistics.median(ts) for ts in pair]
               for name, pair in times.items()}
    ratios = [new / old for old, new in medians.values()]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "cases": {name: {"old_ms": old, "new_ms": new, "ratio": new / old,
                         "same_stdout": same[name]}
                  for name, (old, new) in medians.items()},
        "geomean_ratio": math.exp(statistics.fmean(math.log(x) for x in ratios)),
    }


def main(argv=None) -> int:
    result = compare(parse_args(argv))
    print(f"{'case':<44} {'old ms':>10} {'new ms':>10} {'new/old':>8} {'same stdout':>12}")
    for name, c in result["cases"].items():
        print(f"{name:<44} {c['old_ms']:>10.3f} {c['new_ms']:>10.3f} {c['ratio']:>8.4f} "
              f"{'yes' if c['same_stdout'] else 'no':>12}")
    print(f"{'geomean':<66} {result['geomean_ratio']:>8.4f}")
    print(json.dumps(result))
    differing = [name for name, c in result["cases"].items() if not c["same_stdout"]]
    if differing:
        print(f"error: standard output differs between the trees on {', '.join(differing)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
