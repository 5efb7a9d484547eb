#!/usr/bin/env python3
"""Plot the paper's figures and benchmark trends from bench_out/.

The C++ benchmark binaries under build/bench/ write CSV snapshots to
bench_out/ (override with UATM_BENCH_OUT).  This script turns them
into PNGs that mirror the layout of the paper's Figures 1-6.

Usage:
    for b in build/bench/*; do $b; done     # produce the CSVs
    python3 tools/plot_figures.py           # render bench_out/*.png

    python3 tools/plot_figures.py --bench <dir>
        Plot ns/op trajectories from every BENCH_*.json under <dir>
        (recursively; one benchmark-harness record per run, see
        docs/OBSERVABILITY.md for the schema), ordered by file
        modification time.

    python3 tools/plot_figures.py --telemetry <dir>
        Plot per-worker utilization bars from every RUNNER_*.json
        under <dir> (runner-telemetry records written by the
        experiment runner; one grouped bar chart across all runs).

Matplotlib is optional: when it is missing the script prints what
it would have rendered and exits successfully — the repository's
results never depend on it, since every figure is also printed as
a table and an ASCII chart by the bench binaries themselves.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    HAVE_MPL = True
except ImportError:  # pragma: no cover
    plt = None
    HAVE_MPL = False

OUT_DIR = Path(os.environ.get("UATM_BENCH_OUT", "bench_out"))


def read_csv(name: str):
    """Return (header, rows-as-floats-where-possible) or None."""
    path = OUT_DIR / f"{name}.csv"
    if not path.exists():
        print(f"  [skip] {path} missing — run the bench first")
        return None
    with path.open() as handle:
        rows = list(csv.reader(handle))
    header, data = rows[0], rows[1:]

    def coerce(cell: str):
        try:
            return float(cell)
        except ValueError:
            return cell

    return header, [[coerce(c) for c in row] for row in data]


def save(fig, name: str, directory: Path = OUT_DIR) -> None:
    path = directory / f"{name}.png"
    fig.savefig(path, dpi=150, bbox_inches="tight")
    plt.close(fig)
    print(f"  wrote {path}")


def plot_fig1() -> None:
    loaded = read_csv("fig1_stall_factors")
    if not loaded:
        return
    header, rows = loaded
    mu = [r[0] for r in rows]
    fig, ax = plt.subplots(figsize=(6, 4))
    for idx, label in enumerate(header[1:], start=1):
        ax.plot(mu, [r[idx] for r in rows], marker="o",
                label=label)
    ax.set_xlabel("memory cycle time per 4 bytes")
    ax.set_ylabel("stalling factor (% of L/D)")
    ax.set_title("Figure 1: stalling factors (six profiles, avg)")
    ax.set_ylim(0, 105)
    ax.grid(True, alpha=0.3)
    ax.legend()
    save(fig, "fig1")


def plot_fig2() -> None:
    fig, axes = plt.subplots(2, 1, figsize=(6, 7), sharex=True)
    for ax, base in zip(axes, ("98", "90")):
        loaded = read_csv(f"fig2_baseHR{base}")
        if not loaded:
            return
        header, rows = loaded
        mu = [r[0] for r in rows]
        for idx, label in enumerate(header[1:], start=1):
            ax.plot(mu, [r[idx] for r in rows], marker=".",
                    label=label)
        ax.set_ylabel(f"dHR % @ base {base}%")
        ax.grid(True, alpha=0.3)
        ax.legend()
    axes[1].set_xlabel("memory cycle time per 4 bytes")
    axes[0].set_title("Figure 2: hit ratio traded by doubling the "
                      "bus")
    save(fig, "fig2")


def plot_unified(name: str, csv_name: str, title: str) -> None:
    loaded = read_csv(csv_name)
    if not loaded:
        return
    header, rows = loaded
    mu = [r[0] for r in rows]
    fig, ax = plt.subplots(figsize=(6, 4))
    # Columns: pipelined, double bus, write buffers, BNL, phi.
    for idx in range(1, len(header) - 1):
        ax.plot(mu, [r[idx] for r in rows], marker=".",
                label=header[idx])
    ax.set_xlabel("non-pipelined memory cycle per 4 bytes")
    ax.set_ylabel("hit ratio traded (%)")
    ax.set_title(title)
    ax.grid(True, alpha=0.3)
    ax.legend()
    save(fig, name)


def plot_fig6() -> None:
    panels = [
        ("panel_a_16K_D4", "(a) 16K, D=4, c'=6"),
        ("panel_b_8K_D8", "(b) 8K, D=8, c'=4"),
        ("panel_c_16K_D8", "(c) 16K, D=8, c'=16.75"),
        ("panel_d_8K_D8", "(d) 8K, D=8, c'=6"),
    ]
    fig, axes = plt.subplots(2, 2, figsize=(10, 7))
    for ax, (panel, title) in zip(axes.flat, panels):
        loaded = read_csv(f"fig6_{panel}")
        if not loaded:
            return
        header, rows = loaded
        beta = [r[0] for r in rows]
        for idx, label in enumerate(header[1:-2], start=1):
            ax.plot(beta, [r[idx] for r in rows], marker=".",
                    label=label)
        ax.axhline(0.0, color="black", linewidth=0.8)
        ax.set_title(title, fontsize=10)
        ax.set_xlabel("normalized bus speed (beta)")
        ax.set_ylabel("reduced delay x100")
        ax.grid(True, alpha=0.3)
        ax.legend(fontsize=7)
    fig.suptitle("Figure 6: validation with Smith's line sizes")
    save(fig, "fig6")


def load_bench_records(directory: Path):
    """(run label, {benchmark: ns/op}) per record, oldest first."""
    paths = sorted(directory.rglob("BENCH_*.json"),
                   key=lambda p: (p.stat().st_mtime, str(p)))
    records = []
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"  [skip] {path}: {err}")
            continue
        benchmarks = doc.get("benchmarks")
        if not isinstance(benchmarks, list):
            print(f"  [skip] {path}: no \"benchmarks\" array")
            continue
        label = str(doc.get("git_describe", "")) or path.stem
        # Disambiguate repeated runs of the same commit by the
        # record's parent directory (e.g. perf/before, perf/after).
        if any(label == seen for seen, _ in records):
            label = f"{label} ({path.parent.name})"
        series = {}
        for bench in benchmarks:
            if isinstance(bench, dict) and "name" in bench:
                series[str(bench["name"])] = float(
                    bench.get("ns_per_op", 0.0))
        records.append((label, series))
    return records


def plot_bench_trajectories(directory: Path) -> None:
    """ns/op per benchmark across a directory of BENCH_*.json."""
    records = load_bench_records(directory)
    if not records:
        sys.exit(f"no readable BENCH_*.json under {directory}/ — "
                 "run ./build/bench/bench_sim_throughput first")
    names = sorted({name for _, series in records
                    for name in series})
    print(f"  {len(records)} run(s), {len(names)} benchmark(s)")
    if not HAVE_MPL:
        print("  [skip] matplotlib not installed — no PNG "
              "rendered (records parsed fine)")
        return
    xs = range(len(records))
    fig, ax = plt.subplots(figsize=(8, 5))
    for name in names:
        ys = [series.get(name) for _, series in records]
        ax.plot(xs, ys, marker="o", label=name)
    ax.set_xticks(list(xs))
    ax.set_xticklabels([label for label, _ in records],
                       rotation=30, ha="right", fontsize=7)
    ax.set_ylabel("ns per op (median)")
    ax.set_yscale("log")
    ax.set_title("benchmark ns/op across runs")
    ax.grid(True, alpha=0.3)
    ax.legend(fontsize=6, ncol=2)
    save(fig, "bench_trajectory", directory)


def load_telemetry_records(directory: Path):
    """(run label, [per-worker utilization 0..1]) per record."""
    paths = sorted(directory.rglob("RUNNER_*.json"),
                   key=lambda p: (p.stat().st_mtime, str(p)))
    records = []
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"  [skip] {path}: {err}")
            continue
        if doc.get("kind") != "runner_telemetry":
            print(f"  [skip] {path}: not a runner_telemetry record")
            continue
        workers = doc.get("workers")
        if not isinstance(workers, list) or not workers:
            print(f"  [skip] {path}: no \"workers\" array")
            continue
        utils = []
        for worker in workers:
            lifetime = float(worker.get("lifetime_ns", 0.0))
            busy = (float(worker.get("kernel_ns", 0.0)) +
                    float(worker.get("acquire_ns", 0.0)))
            utils.append(busy / lifetime if lifetime > 0 else 0.0)
        label = str(doc.get("scenario", "")) or path.stem
        if any(label == seen for seen, _ in records):
            label = f"{label} ({path.stem})"
        records.append((label, utils))
    return records


def plot_worker_utilization(directory: Path) -> None:
    """Grouped per-worker utilization bars from RUNNER_*.json."""
    records = load_telemetry_records(directory)
    if not records:
        sys.exit(f"no readable RUNNER_*.json under {directory}/ — "
                 "run ./build/bench/bench_sweep_parallel first")
    for label, utils in records:
        summary = " ".join(f"w{i}={u * 100:.0f}%"
                           for i, u in enumerate(utils))
        print(f"  {label}: {summary}")
    if not HAVE_MPL:
        print("  [skip] matplotlib not installed — no PNG "
              "rendered (records parsed fine)")
        return
    max_workers = max(len(utils) for _, utils in records)
    fig, ax = plt.subplots(figsize=(8, 5))
    group_width = 0.8
    bar_width = group_width / max_workers
    for run, (label, utils) in enumerate(records):
        for worker, util in enumerate(utils):
            x = run - group_width / 2 + (worker + 0.5) * bar_width
            ax.bar(x, util * 100.0, width=bar_width * 0.9,
                   color=plt.cm.viridis(worker / max(1, max_workers - 1)))
    ax.set_xticks(range(len(records)))
    ax.set_xticklabels([label for label, _ in records],
                       rotation=30, ha="right", fontsize=7)
    ax.set_ylabel("worker utilization (%)")
    ax.set_ylim(0, 105)
    ax.set_title("per-worker utilization across runs")
    ax.grid(True, axis="y", alpha=0.3)
    save(fig, "worker_utilization", directory)


def main(argv) -> None:
    parser = argparse.ArgumentParser(
        description="Render the paper figures from bench_out/ "
                    "CSVs, or benchmark ns/op trajectories from "
                    "BENCH_*.json records.")
    parser.add_argument(
        "--bench", nargs="?", const=str(OUT_DIR), default=None,
        metavar="DIR",
        help="plot ns/op trajectories from every BENCH_*.json "
             "under DIR (default: $UATM_BENCH_OUT or bench_out)")
    parser.add_argument(
        "--telemetry", nargs="?", const=str(OUT_DIR), default=None,
        metavar="DIR",
        help="plot per-worker utilization bars from every "
             "RUNNER_*.json under DIR (default: $UATM_BENCH_OUT "
             "or bench_out)")
    args = parser.parse_args(argv)

    if args.bench is not None:
        print(f"reading BENCH_*.json from {args.bench}/")
        plot_bench_trajectories(Path(args.bench))
        print("done")
        return

    if args.telemetry is not None:
        print(f"reading RUNNER_*.json from {args.telemetry}/")
        plot_worker_utilization(Path(args.telemetry))
        print("done")
        return

    if not HAVE_MPL:
        print("[skip] matplotlib not installed — figures not "
              "rendered (the bench binaries already printed every "
              "figure as a table + ASCII chart)")
        return
    print(f"reading CSVs from {OUT_DIR}/")
    if not OUT_DIR.exists():
        sys.exit("bench_out/ missing — run the bench binaries "
                 "first: for b in build/bench/*; do $b; done")
    plot_fig1()
    plot_fig2()
    plot_unified("fig3", "fig3_unified_L8",
                 "Figure 3: unified tradeoff, L = 8")
    plot_unified("fig4", "fig4_unified_L32",
                 "Figure 4: unified tradeoff, L = 32")
    plot_unified("fig5", "fig5_unified_bnl3",
                 "Figure 5: unified tradeoff, BNL3")
    plot_fig6()
    print("done")


if __name__ == "__main__":
    main(sys.argv[1:])
