#!/usr/bin/env bash
# Multi-process loopback smoke: the ISSUE acceptance bar for the distributed
# runtime (docs/NETWORK.md).
#
#   1. Chaos trials: coordinator + 3 worker processes on 127.0.0.1 under 10%
#      drop + 5% duplication; one worker is SIGKILLed mid-solve and a
#      replacement started. The start is staged so the kill lands mid-run:
#      the victim is killed while the third slot has never attached, and no
#      run can solve before every slot has reported. >= 95% of trials must
#      end SOLVED with a validated assignment and zero monitor violations,
#      and in >= 75% the replacement must have attached mid-run.
#   2. Coordinator-failover trials: a harsher channel (25% drop + 5% dup)
#      keeps the solve slow while the *coordinator* is SIGKILLed mid-solve
#      and restarted with --resume against its control-plane journal; the
#      port-file workers park orphaned and re-rendezvous with incarnation 2.
#      >= 95% must end SOLVED with zero monitor violations and metrics
#      folding both incarnations.
#   3. Migration trials: 4 workers under the same 10% drop + 5% dup channel;
#      one worker is SIGKILLed permanently (NO replacement) with
#      --migrate-after-dead on, so the coordinator re-shards the dead
#      worker's agents onto the survivors. >= 95% must end SOLVED with zero
#      monitor violations (the handoff monitor checks nogood-count
#      conservation on every adoption, so zero violations IS the
#      conservation gate). Per-trial migration counters are appended to
#      $NET_SMOKE_METRICS when set (uploaded as a CI artifact).
#   4. Partition trials: coordinator + 3 worker processes on the same 10%
#      drop + 5% dup channel with episodic two-way partitions
#      (--partition-interval/--partition-duration/--partition-groups). The
#      first window opens when each worker loads the job, so it cuts the
#      initial ok? broadcast. >= 95% must end SOLVED with zero monitor
#      violations, each with a nonzero partition-drop count.
#   5. Deadline trial: a large instance under a tiny wall-clock budget must
#      degrade gracefully — exit code 3 and a well-formed partial report.
#
# Usage: tools/net_smoke.sh [build-dir]
#   CLI=path               override the discsp_cli binary
#   TRIALS=n               chaos trials per leg (default 20)
#   NET_SMOKE_N=n          chaos instance size (default 36)
#   NET_SMOKE_METRICS=path append per-trial migration metrics here
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
cli="${CLI:-${build}/examples/discsp_cli}"
trials="${TRIALS:-20}"
n="${NET_SMOKE_N:-36}"
metrics_file="${NET_SMOKE_METRICS:-}"
if [[ -n "${metrics_file}" ]]; then
  : >"${metrics_file}"
fi

if [[ ! -x "${cli}" ]]; then
  echo "net_smoke: ${cli} not built" >&2
  exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "${work}"; kill $(jobs -p) 2>/dev/null || true' EXIT

"${cli}" gen coloring --n "${n}" --seed 9 --out "${work}/chaos.dcsp" >/dev/null
"${cli}" gen coloring --n 90 --seed 4 --out "${work}/big.dcsp" >/dev/null

wait_port_file() {
  local file="$1"
  for _ in $(seq 1 100); do
    [[ -s "${file}" ]] && return 0
    sleep 0.1
  done
  return 1
}

run_trial() {
  local seed="$1" log="$2"
  local port_file="${work}/port.${seed}"
  rm -f "${port_file}"

  timeout 120 "${cli}" serve "${work}/chaos.dcsp" \
    --listen 127.0.0.1:0 --port-file "${port_file}" \
    --workers 3 --deadline-ms 90000 --seed "${seed}" \
    --fault-drop 0.10 --fault-duplicate 0.05 >"${log}" 2>&1 &
  local serve_pid=$!

  if ! wait_port_file "${port_file}"; then
    echo "trial ${seed}: coordinator never bound" >&2
    kill -9 "${serve_pid}" 2>/dev/null || true
    wait "${serve_pid}" 2>/dev/null || true
    return 1
  fi
  local port
  port="$(cat "${port_file}")"

  # The victim runs bare (no `timeout` wrapper): SIGKILL is not forwardable,
  # so wrapping it would orphan the worker instead of killing it. The serve
  # timeout above bounds the trial either way.
  "${cli}" worker --connect "127.0.0.1:${port}" >/dev/null 2>&1 &
  local victim_pid=$!
  timeout 120 "${cli}" worker --connect "127.0.0.1:${port}" >/dev/null 2>&1 &

  # The victim and one peer search for 0.5 s, then the victim gets a real
  # SIGKILL. The third slot has never attached, so its agents have reported
  # no value and the run cannot have solved: the kill lands mid-run. The
  # third worker and a replacement (restart=true + seq floors on the
  # coordinator side) then attach together.
  sleep 0.5
  kill -9 "${victim_pid}" 2>/dev/null || true
  sleep 0.1
  timeout 120 "${cli}" worker --connect "127.0.0.1:${port}" >/dev/null 2>&1 &
  timeout 120 "${cli}" worker --connect "127.0.0.1:${port}" >/dev/null 2>&1 &

  local status=0 verdict=0
  wait "${serve_pid}" || status=$?

  if [[ "${status}" -ne 0 ]]; then
    echo "trial ${seed}: serve exited ${status}" >&2
    verdict=1
  elif ! grep -q "SOLVED; validated: yes" "${log}"; then
    echo "trial ${seed}: no validated solution" >&2
    verdict=1
  elif ! grep -q "monitor: violations 0," "${log}"; then
    echo "trial ${seed}: monitor violations reported" >&2
    verdict=1
  fi
  # A replacement that attached mid-run shows as a worker restart.
  if grep -q "worker restarts [1-9]" "${log}"; then
    killed_mid_run=$((killed_mid_run + 1))
  fi
  # The verdict is read. A replacement that dialed after the solve never
  # gets a STOP and would retry until its connect budget runs out.
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  return "${verdict}"
}

run_failover_trial() {
  local seed="$1" log="$2"
  local port_file="${work}/fport.${seed}"
  local journal="${work}/journal.${seed}"
  rm -f "${port_file}" "${journal}"

  # First incarnation. Run bare so the SIGKILL below reaches the coordinator
  # itself, not a `timeout` wrapper.
  "${cli}" serve "${work}/chaos.dcsp" \
    --listen 127.0.0.1:0 --port-file "${port_file}" \
    --coordinator-journal "${journal}" \
    --workers 3 --deadline-ms 90000 --seed "${seed}" \
    --fault-drop 0.25 --fault-duplicate 0.05 >"${log}" 2>&1 &
  local serve_pid=$!

  if ! wait_port_file "${port_file}"; then
    echo "trial ${seed}: coordinator never bound" >&2
    kill -9 "${serve_pid}" 2>/dev/null || true
    wait "${serve_pid}" 2>/dev/null || true
    return 1
  fi

  # Workers rendezvous through the port file (not a pinned endpoint) so they
  # can find incarnation 2 after the kill; generous attempts span the
  # restart gap.
  for _ in 1 2 3; do
    timeout 120 "${cli}" worker --port-file "${port_file}" \
      --max-connect-attempts 200 >/dev/null 2>&1 &
  done

  # A real SIGKILL mid-solve: no STOP, no drain, no final checkpoint. The
  # 25% drop rate keeps the solve slow enough that the kill reliably lands
  # mid-run; if the solve finishes first anyway, the resume below
  # reconstructs the solved run from the journal and exits SOLVED — benign.
  sleep 0.15
  kill -9 "${serve_pid}" 2>/dev/null || true
  wait "${serve_pid}" 2>/dev/null || true
  # Remove the stale port file so orphaned workers retry against the missing
  # file instead of dialing the dead port.
  rm -f "${port_file}"

  local status=0
  timeout 120 "${cli}" serve "${work}/chaos.dcsp" \
    --listen 127.0.0.1:0 --port-file "${port_file}" \
    --coordinator-journal "${journal}" --resume \
    --workers 3 --deadline-ms 90000 --seed "${seed}" \
    --fault-drop 0.25 --fault-duplicate 0.05 >>"${log}" 2>&1 || status=$?
  wait 2>/dev/null || true

  if [[ "${status}" -ne 0 ]]; then
    echo "trial ${seed}: resumed serve exited ${status}" >&2
    return 1
  fi
  if ! grep -q "SOLVED; validated: yes" "${log}"; then
    echo "trial ${seed}: no validated solution after resume" >&2
    return 1
  fi
  if ! grep -q "monitor: violations 0," "${log}"; then
    echo "trial ${seed}: monitor violations reported" >&2
    return 1
  fi
  if ! grep -q "coordinator incarnation 2 (resumed from journal)" "${log}"; then
    echo "trial ${seed}: resumed run did not report incarnation 2" >&2
    return 1
  fi
  return 0
}

run_migration_trial() {
  local seed="$1" log="$2"
  local port_file="${work}/mport.${seed}"
  rm -f "${port_file}"

  timeout 120 "${cli}" serve "${work}/chaos.dcsp" \
    --listen 127.0.0.1:0 --port-file "${port_file}" \
    --workers 4 --deadline-ms 90000 --seed "${seed}" \
    --fault-drop 0.10 --fault-duplicate 0.05 \
    --migrate-after-dead --dead-after-ms 600 >"${log}" 2>&1 &
  local serve_pid=$!

  if ! wait_port_file "${port_file}"; then
    echo "trial ${seed}: coordinator never bound" >&2
    kill -9 "${serve_pid}" 2>/dev/null || true
    wait "${serve_pid}" 2>/dev/null || true
    return 1
  fi
  local port
  port="$(cat "${port_file}")"

  for _ in 1 2 3; do
    timeout 120 "${cli}" worker --connect "127.0.0.1:${port}" >/dev/null 2>&1 &
  done
  # The victim runs bare so the SIGKILL reaches the worker itself.
  "${cli}" worker --connect "127.0.0.1:${port}" >/dev/null 2>&1 &
  local victim_pid=$!

  # Permanent loss: SIGKILL one worker mid-solve and NEVER replace it. The
  # coordinator declares the slot dead after --dead-after-ms of silence and
  # adopts its agents onto the three survivors.
  sleep 0.25
  kill -9 "${victim_pid}" 2>/dev/null || true

  local status=0
  wait "${serve_pid}" || status=$?
  wait 2>/dev/null || true

  if [[ -n "${metrics_file}" ]]; then
    {
      printf 'trial %s: exit %s; ' "${seed}" "${status}"
      grep -o "migration: agents adopted [0-9]*, stale frames fenced [0-9]*" \
        "${log}" || echo "migration: report line missing"
    } >>"${metrics_file}"
  fi
  if [[ "${status}" -ne 0 ]]; then
    echo "trial ${seed}: serve exited ${status}" >&2
    return 1
  fi
  if ! grep -q "SOLVED; validated: yes" "${log}"; then
    echo "trial ${seed}: no validated solution" >&2
    return 1
  fi
  if ! grep -q "monitor: violations 0," "${log}"; then
    echo "trial ${seed}: monitor violations reported" >&2
    return 1
  fi
  return 0
}

run_partition_trial() {
  local seed="$1" log="$2"
  local port_file="${work}/pport.${seed}"
  rm -f "${port_file}"

  timeout 120 "${cli}" serve "${work}/chaos.dcsp" \
    --listen 127.0.0.1:0 --port-file "${port_file}" \
    --workers 3 --deadline-ms 90000 --seed "${seed}" \
    --fault-drop 0.10 --fault-duplicate 0.05 \
    --partition-interval 100 --partition-duration 30 \
    --partition-groups 2 >"${log}" 2>&1 &
  local serve_pid=$!

  if ! wait_port_file "${port_file}"; then
    echo "trial ${seed}: coordinator never bound" >&2
    kill -9 "${serve_pid}" 2>/dev/null || true
    wait "${serve_pid}" 2>/dev/null || true
    return 1
  fi
  local port
  port="$(cat "${port_file}")"
  for _ in 1 2 3; do
    timeout 120 "${cli}" worker --connect "127.0.0.1:${port}" >/dev/null 2>&1 &
  done

  local status=0
  wait "${serve_pid}" || status=$?
  wait 2>/dev/null || true

  if [[ "${status}" -ne 0 ]]; then
    echo "trial ${seed}: serve exited ${status}" >&2
    return 1
  fi
  if ! grep -q "SOLVED; validated: yes" "${log}"; then
    echo "trial ${seed}: no validated solution" >&2
    return 1
  fi
  if ! grep -q "monitor: violations 0," "${log}"; then
    echo "trial ${seed}: monitor violations reported" >&2
    return 1
  fi
  if ! grep -q "partition drops [1-9]" "${log}"; then
    echo "trial ${seed}: no send was cut by a partition window" >&2
    return 1
  fi
  return 0
}

echo "=== chaos trials: ${trials} x (3 workers, 1 SIGKILLed, 10% drop + 5% dup) ==="
solved=0
killed_mid_run=0
for t in $(seq 1 "${trials}"); do
  if run_trial "$((100 + t))" "${work}/trial.${t}.log"; then
    solved=$((solved + 1))
  else
    sed -n '1,12p' "${work}/trial.${t}.log" >&2 || true
  fi
done
need=$(( (trials * 95 + 99) / 100 ))  # ceil(95%)
need_mid=$(( (trials * 75 + 99) / 100 ))  # ceil(75%)
echo "solved ${solved}/${trials} (need >= ${need}); kill landed mid-run in ${killed_mid_run} (need >= ${need_mid})"
if [[ "${solved}" -lt "${need}" ]]; then
  echo "net_smoke: chaos solve rate below 95%" >&2
  exit 1
fi
if [[ "${killed_mid_run}" -lt "${need_mid}" ]]; then
  echo "net_smoke: chaos kill landed mid-run in under 75% of trials" >&2
  exit 1
fi

echo "=== coordinator-failover trials: ${trials} x (SIGKILL coordinator, restart --resume) ==="
fsolved=0
for t in $(seq 1 "${trials}"); do
  if run_failover_trial "$((300 + t))" "${work}/failover.${t}.log"; then
    fsolved=$((fsolved + 1))
  else
    sed -n '1,16p' "${work}/failover.${t}.log" >&2 || true
  fi
done
echo "solved ${fsolved}/${trials} (need >= ${need})"
if [[ "${fsolved}" -lt "${need}" ]]; then
  echo "net_smoke: coordinator-failover solve rate below 95%" >&2
  exit 1
fi

echo "=== migration trials: ${trials} x (4 workers, 1 SIGKILLed permanently, --migrate-after-dead) ==="
msolved=0
migrated=0
for t in $(seq 1 "${trials}"); do
  if run_migration_trial "$((500 + t))" "${work}/migrate.${t}.log"; then
    msolved=$((msolved + 1))
  else
    sed -n '1,16p' "${work}/migrate.${t}.log" >&2 || true
  fi
  if grep -q "migration: agents adopted [1-9]" "${work}/migrate.${t}.log"; then
    migrated=$((migrated + 1))
  fi
done
echo "solved ${msolved}/${trials} (need >= ${need}); kill landed mid-run in ${migrated}"
if [[ -n "${metrics_file}" ]]; then
  echo "summary: solved ${msolved}/${trials}, migrated ${migrated}" >>"${metrics_file}"
fi
if [[ "${msolved}" -lt "${need}" ]]; then
  echo "net_smoke: migration solve rate below 95%" >&2
  exit 1
fi

echo "=== partition trials: ${trials} x (3 workers, 10% drop + 5% dup, 30 ms two-way cut every 100 ms) ==="
psolved=0
for t in $(seq 1 "${trials}"); do
  if run_partition_trial "$((700 + t))" "${work}/partition.${t}.log"; then
    psolved=$((psolved + 1))
  else
    sed -n '1,16p' "${work}/partition.${t}.log" >&2 || true
  fi
done
echo "solved ${psolved}/${trials} (need >= ${need})"
if [[ "${psolved}" -lt "${need}" ]]; then
  echo "net_smoke: partition solve rate below 95%" >&2
  exit 1
fi

echo "=== deadline trial: 90-variable instance, 300 ms budget ==="
# Drops force >= one ack-timeout per repair, so the budget reliably expires;
# a solve inside the budget is still accepted (never wrong, just fast).
status=0
timeout 60 "${cli}" serve "${work}/big.dcsp" --workers 3 \
  --deadline-ms 300 --seed 5 --fault-drop 0.20 >"${work}/deadline.log" 2>&1 || status=$?
if grep -q "^SOLVED" "${work}/deadline.log"; then
  echo "deadline trial solved inside the budget (accepted)"
elif [[ "${status}" -eq 3 ]] && grep -q "partial assignment covers" "${work}/deadline.log"; then
  grep "partial assignment covers" "${work}/deadline.log"
else
  echo "net_smoke: deadline run not well-formed (exit ${status})" >&2
  cat "${work}/deadline.log" >&2
  exit 1
fi

echo "net_smoke: all checks passed."
