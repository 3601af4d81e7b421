#!/bin/sh
# Pre-merge checks.
#
#   scripts/check.sh        # fast gate: vet, build, race-enabled core suites
#   scripts/check.sh full   # fast gate + the whole suite without -short,
#                           # each package under its own timeout
#
# RUN_PARALLEL bounds in-package test parallelism in full mode (go test
# -parallel): the conformance matrix and golden-snapshot suites run one
# simulation per t.Parallel() slot. Defaults to the host CPU count.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
# The engine, fault, chip, runner, card, and chaos suites run under the
# race detector: several partitions share ports, wake flags, and stat
# counters across partition goroutines, the run pool shares a result slice
# across worker goroutines, and the card dispatcher drives multi-partition
# chips through migration and restore, so these packages are where a torn
# read would live (see DESIGN.md "Quiescence and the wake protocol").
# The epoch/lookahead machinery (DESIGN.md §12) lives on the same hot
# paths — cross-port future lists are staged by partition goroutines and
# sealed at epoch barriers — and its suites ride in the same packages:
# the sim epoch tests plus the chip lookahead conformance matrix
# (TestLookaheadConformance, TestTimelineLookaheadIdentical,
# TestLookaheadCheckpointCrossSetting) all run under -race here.
# The 30m timeout is per test binary. On a 2-CPU host the chip suite
# takes 1,314 s under -race, with card (124 s) and chaos (491 s) running
# beside it, and the whole script 25 minutes. The partition-count
# bit-identity, lookahead and hetero-latency conformance matrices (260,
# 262 and 220 s) are many full-chip runs, and the sampled-mode
# suites add more — the accuracy ledger trims itself to the short kernel
# subset under the detector (race_on_test.go; the full matrix runs
# un-raced in the no-short suite) but the estimate-invariance matrix
# keeps its two-partition legs raced.
# The sampling package rides along: its schedules drive the chip's sampled
# runs (whose window fan-out shares a result slice across pool workers via
# experiments.SampledFanOut), and the chip sampling suites in this same
# command exercise those paths under -race.
# The mem and spm stores ride along too (a few seconds): memory
# controllers on different partitions create pages of the one DRAM image
# side by side (TestConcurrentPageCreation), and SPM chunks are allocated
# on first write.
go test -race -timeout 30m ./internal/sim/... ./internal/fault/... \
    ./internal/chip/... ./internal/runner/... ./internal/sampling/... \
    ./internal/card/... ./internal/chaos/... ./internal/mem/... \
    ./internal/spm/...
# Every figure harness runs its chip and Xeon-model simulations side by side
# on the run pool, which shares the heap (and the result slice) across
# workers; the short pool-width invariance cells, Fig. 17 and Fig. 22, cover
# chip runs, Xeon-model runs and a pool mixing the two.
go test -race -short -run TestPoolSizeInvariance ./internal/experiments
go test ./internal/noc/... ./internal/dram/... ./internal/cpu/... \
    ./internal/sched/... ./internal/cache/...

# Coverage floor for the determinism- and recovery-critical packages: the
# engine and the snapshot codec underpin the checkpoint/restore bit-identity
# contract, and the card dispatcher plus the chaos harness carry the
# rack-level fault-tolerance accounting invariants, so their own-test
# coverage must not erode. Baselines recorded when each layer landed
# (sim 78.2%, snapshot 84.4%, card 83.6%, chaos 82.3%), floors set just
# below.
cover_floor() {
    pkg="$1"
    floor="$2"
    pct=$(go test -cover "$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "could not measure coverage for $pkg"
        exit 1
    fi
    if [ "$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p+0 >= f+0) ? 1 : 0 }')" != 1 ]; then
        echo "coverage for $pkg is ${pct}%, below the recorded ${floor}% baseline"
        exit 1
    fi
}
cover_floor ./internal/sim 75.0
cover_floor ./internal/snapshot 80.0
cover_floor ./internal/card 78.0
cover_floor ./internal/chaos 75.0
# The sampling planner/estimator carry the sampled-mode accuracy contract
# (baseline 82.4% when the layer landed).
cover_floor ./internal/sampling 78.0

if [ "${1:-fast}" = "full" ]; then
    # Full suite, no -short: per-package timeouts so one hung package fails
    # fast instead of absorbing the whole budget. The experiments package
    # runs whole-chip sweeps (the ablation study included) and needs more,
    # as does the kernels package (the full conformance matrix).
    run_parallel="${RUN_PARALLEL:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 4)}"
    for pkg in $(go list ./...); do
        case "$pkg" in
        */internal/experiments) go test -timeout 10m -parallel "$run_parallel" "$pkg" ;;
        */internal/kernels) go test -timeout 10m -parallel "$run_parallel" "$pkg" ;;
        *) go test -timeout 3m -parallel "$run_parallel" "$pkg" ;;
        esac
    done
fi
