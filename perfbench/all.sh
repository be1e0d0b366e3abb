#!/usr/bin/env bash
# Runs every workload once and prints every metric by name with its
# unit (plus the issue-facing extras: sim_speed, error_rate,
# assoc_ms_p50/p99, daemon_cpu_util), e.g.
#
#   bash perfbench/all.sh --seed 1 --seconds 20 --trace 0
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for w in figures million ess-roam daemon; do
  bash "$dir/run.sh" --workload "$w" "$@" | grep '^perfbench '
done
