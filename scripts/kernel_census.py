#!/usr/bin/env python3
"""Summarize perfbench kernel-census CSVs and flag kernels that never win.

Usage:
    kernel_census.py CENSUS.csv [CENSUS.csv ...]

Each input is one `<workload>-seed<N>-census.csv` written by a traced
perfbench run (`python3 perfbench/run.py --trace 1`), with the columns
operand,kind,kernel,threads,gflops. A cell is one (file, operand, kind,
format, thread count); the format is the kernel-name prefix (csr, coo, dia,
ell, bsr). Files are never merged, so the same operand timed under two
seeds gives two cells.

For each (kind, kernel) the table prints:
  cells     the number of cells the kernel was timed in;
  within    the share of those cells in which it came within WITHIN (5%) of
            the fastest kernel of its format (gflops >= (1 - WITHIN) * best);
  vs_basic  the median ratio of its gflops to the format's basic kernel in
            the same cell (the `<fmt>_basic` / `<fmt>_spmm_basic` entry);
  delete    "yes" when `within` is at most MAX_SHARE (1%): the kernel wins no
            more cells than noise would hand it. The basic kernels are the
            registry's precondition-free fallback and are never flagged.

Exit codes: 0 ok, 2 usage/input error.
"""

import argparse
import csv
import statistics
import sys

COLUMNS = ("operand", "kind", "kernel", "threads", "gflops")
FORMATS = ("csr", "coo", "dia", "ell", "bsr")
# The deletion rule (DESIGN.md section 17): a kernel within WITHIN of its
# format's best in at most MAX_SHARE of its cells is flagged for deletion.
WITHIN = 0.05
MAX_SHARE = 0.01


def format_of(kernel):
    return kernel.split("_", 1)[0]


def load(paths):
    """Returns {cell: {kernel: gflops}} over all files, and the (kind, kernel)
    keys: SpMV before SpMM, formats in registry order, kernels in census
    order."""
    cells = {}
    keys = {}
    for index, path in enumerate(paths):
        try:
            with open(path, newline="", encoding="utf-8") as f:
                reader = csv.DictReader(f)
                if tuple(reader.fieldnames or ()) != COLUMNS:
                    print(f"kernel_census: {path}: expected columns "
                          f"{','.join(COLUMNS)}", file=sys.stderr)
                    sys.exit(2)
                for row in reader:
                    kernel = row["kernel"]
                    cell = (index, row["operand"], row["kind"],
                            format_of(kernel), int(row["threads"]))
                    cells.setdefault(cell, {})[kernel] = float(row["gflops"])
                    keys.setdefault((row["kind"], kernel), len(keys))
        except (OSError, ValueError, KeyError) as e:
            print(f"kernel_census: cannot read {path}: {e}", file=sys.stderr)
            sys.exit(2)

    def rank(key):
        fmt = format_of(key[1])
        return (key[0] != "spmv",
                FORMATS.index(fmt) if fmt in FORMATS else len(FORMATS),
                keys[key])

    return cells, sorted(keys, key=rank)


def is_basic(kernel):
    return kernel.endswith("_basic")


def summarize(cells, order):
    stats = {key: {"cells": 0, "near": 0, "ratios": []} for key in order}
    for (_, _, kind, _, _), timings in cells.items():
        best = max(timings.values())
        if best <= 0.0:
            continue
        basic = next((g for k, g in timings.items() if is_basic(k)), 0.0)
        for kernel, gflops in timings.items():
            s = stats[(kind, kernel)]
            s["cells"] += 1
            if gflops >= (1.0 - WITHIN) * best:
                s["near"] += 1
            if basic > 0.0:
                s["ratios"].append(gflops / basic)
    rows = []
    for kind, kernel in order:
        s = stats[(kind, kernel)]
        share = s["near"] / s["cells"] if s["cells"] else 0.0
        ratio = statistics.median(s["ratios"]) if s["ratios"] else float("nan")
        delete = not is_basic(kernel) and s["cells"] > 0 and share <= MAX_SHARE
        rows.append((kind, kernel, s["cells"], share, ratio, delete))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("csv", nargs="+", help="perfbench *-census.csv files")
    args = ap.parse_args()
    cells, order = load(args.csv)
    rows = summarize(cells, order)
    print(f"{len(args.csv)} files, {len(cells)} cells; within "
          f"{WITHIN:.0%} of the format's best, delete at <= "
          f"{MAX_SHARE:.0%} of cells")
    print()
    print("| kind | kernel | cells | within | vs_basic | delete |")
    print("|---|---|---:|---:|---:|---|")
    for kind, kernel, count, share, ratio, delete in rows:
        print(f"| {kind} | {kernel} | {count} | {share:.1%} | {ratio:.2f} | "
              f"{'yes' if delete else ''} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
