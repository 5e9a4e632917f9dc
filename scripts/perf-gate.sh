#!/usr/bin/env bash
# Paired perf gate: runs every BENCHMARK.json workload with the perfbench of
# this checkout (head) and of <base-rev> (base) on the same host, in
# interleaved pairs, and applies the verdict rule in scripts/perf-compare.jq.
#
#   scripts/perf-gate.sh <base-rev>
#
# Exits 1 on a regression or a failed head check, 0 otherwise. Work files
# live under .bench_build/gate (ignored by git).
set -euo pipefail

# Ten pairs: with five, two identical binaries read REGRESSED on a
# bimodal raw time (trace-pipe setup_s) whose base runs all fell in one
# mode. Ten seconds holds ~9 batches of the slowest workload (sim-paper).
PAIRS=10
RUN_SECONDS=10

[ $# -eq 1 ] || { echo "usage: $0 <base-rev>" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
work="$root/.bench_build/gate"
src="$work/src"
base=$(git -C "$root" rev-parse "$1^{commit}")
# The head is this checkout, uncommitted edits to tracked files included.
head=$(git -C "$root" stash create)
head=${head:-$(git -C "$root" rev-parse HEAD)}

git -C "$root" worktree remove --force "$src" 2>/dev/null || true
git -C "$root" worktree prune
rm -rf "$src" "$work/runs.ndjson"
mkdir -p "$work"
git -C "$root" worktree add --quiet --detach "$src" "$base"
trap 'git -C "$root" worktree remove --force "$src"' EXIT

# Both sides build from one path, so code that is the same on both sides is
# laid out the same, and both run the head's benchmark code.
for side in base head; do
    rev=$base; [ "$side" = head ] && rev=$head
    git -C "$src" checkout --quiet --force --detach "$rev"
    rm -rf "$src/perfbench"
    git -C "$src" checkout --quiet "$head" -- perfbench BENCHMARK.json
    echo "building $side perfbench (${rev:0:12})"
    cargo build --release --offline --quiet --manifest-path "$src/perfbench/Cargo.toml" \
        --target-dir "$work/$side-target"
    rm -rf "$work/$side-target/release/perfbench-runs"
done

# One process per workload and run: in one process, peak_rss_mb of a later
# workload includes what earlier workloads left resident.
for w in $(jq -r '.workloads[].name' "$root/BENCHMARK.json"); do
    for k in $(seq "$PAIRS"); do
        if (( k % 2 )); then order="base head"; else order="head base"; fi
        for side in $order; do
            bin="$work/$side-target/release/perfbench"
            # Exit 1 means failed checks, which the verdict reports.
            "$bin" --workload "$w" --seconds "$RUN_SECONDS" --seed "$k" --trace 0 >"$work/out.txt" 2>&1 \
                || [ $? -eq 1 ] || { cat "$work/out.txt"; exit 2; }
            tail -n1 "$work/out.txt" | jq -c --arg side "$side" --arg w "$w" --argjson k "$k" \
                --slurpfile rec "$(dirname "$bin")/perfbench-runs/$w-seed$k-trace0.json" \
                '{side: $side, workload: $w, pair: $k, wall_s: $rec[0].details.wall_s.value, result: .}' \
                | tee -a "$work/runs.ndjson" \
                | jq -r '"\(.workload) pair \(.pair) \(.side): wall_ku \(.result.metrics.wall_ku.value)"
                    + " wall_s \(.wall_s) failed \(.result.failed)/\(.result.attempted)"'
        done
    done
done

jq -rn -f "$root/scripts/perf-compare.jq" \
    --slurpfile bench "$root/BENCHMARK.json" --slurpfile runs "$work/runs.ndjson"
