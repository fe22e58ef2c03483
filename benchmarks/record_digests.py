"""Record the output digests of the default seed into digests.json.

    python3 benchmarks/record_digests.py [WORKLOAD ...]

Runs every operation of the default seed's input pool once, refuses to
record if any of them fails its second route, and stores a short digest
of each output's canonical form.  A later run on the default seed fails
any operation whose digest differs, even where both routes share code.
Re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS, digest


def record(name: str) -> list:
    wl = WORKLOADS[name]
    lib, rounds, _ = run.setup(wl, run.DEFAULT_SEED)
    checker = run.Checker(wl, lib, rounds)
    out = [[None] * len(r) for r in rounds]

    def judge(k, pos, result, error):
        if error is None:
            out[k][pos] = digest(wl.canon(result))
        return checker(k, pos, result, error)

    run.execute(rounds, lambda data: wl.op(lib, data), judge, count=len(rounds))
    if checker.failed:
        raise SystemExit(f"{name}: an operation failed its second route; not recording")
    return out


def main(names) -> int:
    sys.path.insert(0, run.SRC)
    try:
        with open(run.DIGESTS) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    for name in names or sorted(WORKLOADS):
        table[name] = record(name)
        print(f"{name}: {sum(map(len, table[name]))} digests", file=sys.stderr)
    with open(run.DIGESTS, "w") as fh:
        json.dump(table, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
