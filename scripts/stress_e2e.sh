#!/usr/bin/env bash
# Stress run for the serve drain and tenancy eviction end-to-end tests:
# runs each of them N times while a busy-loop sibling process keeps a CPU
# core saturated, so lifecycle races that only surface under contention
# (an acknowledgement overtaking its effect, an eviction racing an admit)
# get a chance to show. Prints a pass count per test and exits non-zero
# if any run failed.
#
#   scripts/stress_e2e.sh        # 30 runs per test
#   scripts/stress_e2e.sh 100    # 100 runs per test
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${1:-30}"

# package:test-target:test-name
TESTS=(
    "shahin-serve:e2e:explains_arriving_mid_drain_are_rejected_with_503"
    "shahin-serve:e2e:admin_shutdown_frame_drains_and_reports_served_requests"
    "shahin-serve:tenancy_e2e:idle_eviction_then_hydrated_readmission_is_bit_identical_at_1_and_4_workers"
    "shahin-tenancy:lifecycle:eviction_snapshots_and_readmission_is_classifier_free_and_bit_identical"
    "shahin-tenancy:lifecycle:eviction_refuses_inflight_and_cold_tenants"
    "shahin-tenancy:lifecycle:idle_and_budget_enforcement_evict_lru_first"
)

cargo test --release -q -p shahin-serve -p shahin-tenancy --no-run

bash -c 'while :; do :; done' &
SPINNER=$!
trap 'kill "$SPINNER" 2>/dev/null || true' EXIT

failed=0
for spec in "${TESTS[@]}"; do
    IFS=: read -r pkg target name <<<"$spec"
    pass=0
    for _ in $(seq "$RUNS"); do
        if cargo test --release -q -p "$pkg" --test "$target" -- --exact "$name" \
            >/dev/null 2>&1; then
            pass=$((pass + 1))
        fi
    done
    echo "$pass/$RUNS  $target::$name"
    [[ "$pass" -eq "$RUNS" ]] || failed=1
done
exit "$failed"
