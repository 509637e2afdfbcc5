#!/usr/bin/env bash
# Adaptive-deadline chaos drill, two phases:
#
#   1. Run a process-isolated campaign under --deadline-ms auto, wait for the
#      estimator's confidence gate to open (a deadline-adapt event lands in
#      the telemetry), then SIGSTOP one worker across the learned deadline
#      boundary and SIGCONT it.  The hostage replica must be deadline-killed
#      and quarantined (exit 5, degraded), the kill must cite the LEARNED
#      deadline and be visible in `journal --json`, and every healthy replica
#      must be bit-identical to a default-flags baseline (one attempt, no
#      deadline) -- zero healthy quarantines.
#   2. SIGKILL the campaign parent mid-flight, then --resume.  The resumed
#      session must warm its estimator from calibration.journal, finish
#      cleanly (exit 0), and the merged journal must match the baseline bit
#      for bit.
#
# Exits 77 (CTest SKIP_RETURN_CODE) where the drill cannot run.
set -u

DIVSIM="${1:-}"
if [[ -z "${DIVSIM}" || ! -x "${DIVSIM}" ]]; then
  echo "SKIP: divsim binary not provided or not executable" >&2
  exit 77
fi
if ! kill -0 $$ 2>/dev/null; then
  echo "SKIP: cannot deliver signals in this environment" >&2
  exit 77
fi
if [[ "$(uname -s)" != "Linux" ]]; then
  echo "SKIP: drill requires Linux /proc for worker discovery" >&2
  exit 77
fi
if ! command -v python3 >/dev/null 2>&1; then
  echo "SKIP: drill needs python3 to interrogate journal --json" >&2
  exit 77
fi

WORK="$(mktemp -d)" || exit 77
trap 'rm -rf "${WORK}"' EXIT

# Slow-mixing graph so each replica takes a few hundred ms of real work; the
# per-replica results are deterministic in (seed, replica, attempt), so a
# run with the default supervision flags is the bit-identity oracle for
# every adaptive run.
GRAPH=(--graph path:1024 --k 9 --stop consensus --max-steps 20000000
       --replicas 20 --seed 7)
# Liveness thresholds far beyond any sleep below: ONLY the adaptive deadline
# may kill anything in this drill.
ADAPTIVE=(--isolation process --workers 3 --deadline-ms auto
          --deadline-quantile 0.9 --deadline-safety 4
          --deadline-min-samples 4 --retries 0 --min-success 0.5
          --suspect-after-ms 30000 --dead-after-ms 60000)

workers_of() {
  local parent="$1" pid
  for pid in /proc/[0-9]*; do
    pid="${pid#/proc/}"
    [[ -r "/proc/${pid}/stat" ]] || continue
    local stat ppid
    stat="$(cat "/proc/${pid}/stat" 2>/dev/null)" || continue
    ppid="$(awk '{print $2}' <<< "${stat##*) }")"
    if [[ "${ppid}" == "${parent}" ]]; then
      echo "${pid}"
    fi
  done
}

# Default-flags baseline: the ground truth every healthy replica must match.
"${DIVSIM}" run "${GRAPH[@]}" --checkpoint-dir "${WORK}/baseline" \
    > "${WORK}/baseline.out" 2>&1
baseline_rc=$?
if [[ ${baseline_rc} -ne 0 ]]; then
  echo "FAIL: default-flags baseline exited ${baseline_rc}" >&2
  cat "${WORK}/baseline.out" >&2
  exit 1
fi
"${DIVSIM}" journal --dir "${WORK}/baseline" \
    | grep '^replica ' > "${WORK}/baseline.records"

# ---------------------------------------------------------------------------
# Phase 1: SIGSTOP a worker across the learned-deadline boundary.

"${DIVSIM}" run "${GRAPH[@]}" "${ADAPTIVE[@]}" \
    --checkpoint-dir "${WORK}/hostage" \
    --metrics-out "${WORK}/hostage.jsonl" \
    > "${WORK}/hostage.out" 2>&1 &
victim_pid=$!

# Wait for the confidence gate: the first deadline-adapt event carries the
# armed deadline ("adaptive deadline now <N>ms ...").
learned_ms=""
for _ in $(seq 1 1200); do
  if ! kill -0 "${victim_pid}" 2>/dev/null; then
    break
  fi
  if [[ -r "${WORK}/hostage.jsonl" ]]; then
    learned_ms=$(sed -n 's/.*adaptive deadline now \([0-9]*\)ms.*/\1/p' \
        "${WORK}/hostage.jsonl" | tail -1)
    [[ -n "${learned_ms}" ]] && break
  fi
  sleep 0.1
done
if [[ -z "${learned_ms}" ]]; then
  wait "${victim_pid}"
  echo "SKIP: campaign finished before the confidence gate opened" >&2
  cat "${WORK}/hostage.out" >&2
  exit 77
fi
echo "estimator confident: learned deadline ${learned_ms}ms" >&2

# Take a worker hostage.  The parent keeps counting the hostage's in-flight
# attempt against the learned deadline while it is stopped.
hostage=""
for _ in $(seq 1 200); do
  if ! kill -0 "${victim_pid}" 2>/dev/null; then
    break
  fi
  mapfile -t workers < <(workers_of "${victim_pid}")
  if [[ "${#workers[@]}" -ge 1 ]]; then
    hostage="${workers[0]}"
    kill -STOP "${hostage}" 2>/dev/null && break
    hostage=""
  fi
  sleep 0.05
done
if [[ -z "${hostage}" ]]; then
  wait "${victim_pid}"
  echo "SKIP: campaign finished before a worker could be stopped" >&2
  exit 77
fi
echo "SIGSTOPped worker ${hostage}" >&2

# Sleep past the armed deadline (it rearms with fresh samples, so leave 2x
# headroom), then SIGCONT: the pending cooperative-cancel signal drains the
# hostage attempt, which --retries 0 turns into a quarantine.
sleep "$(( (2 * learned_ms) / 1000 + 3 ))"
kill -CONT "${hostage}" 2>/dev/null
echo "SIGCONTed worker ${hostage}" >&2

wait "${victim_pid}"
victim_rc=$?
if [[ ${victim_rc} -ne 5 ]]; then
  echo "FAIL: hostage campaign exited ${victim_rc} (want 5 degraded)" >&2
  cat "${WORK}/hostage.out" >&2
  exit 1
fi

"${DIVSIM}" journal --dir "${WORK}/hostage" > "${WORK}/hostage.journal"
grep '^replica ' "${WORK}/hostage.journal" | grep -v 'QUARANTINED' \
    > "${WORK}/hostage.records"
quarantined=$(grep -c 'QUARANTINED' "${WORK}/hostage.journal")
completed=$(wc -l < "${WORK}/hostage.records")

# Exactly the hostage replica may be quarantined: one SIGSTOP, one victim,
# zero healthy replicas sacrificed to the learned deadline.
if [[ "${quarantined}" -ne 1 ]]; then
  echo "FAIL: ${quarantined} quarantined (want exactly 1: the hostage)" >&2
  cat "${WORK}/hostage.out" >&2
  exit 1
fi
if [[ $((completed + quarantined)) -ne 20 ]]; then
  echo "FAIL: ${completed} completed + ${quarantined} quarantined != 20" >&2
  exit 1
fi
# Every completed replica is bit-identical to the default-flags baseline.
if ! grep -F -x -f "${WORK}/baseline.records" "${WORK}/hostage.records" \
    | diff -u - "${WORK}/hostage.records"; then
  echo "FAIL: a healthy hostage-run replica diverged from the baseline" >&2
  exit 1
fi
# The kill decision is explainable after the fact: journal --json carries
# the adapt event and a deadline kill citing the LEARNED deadline.
"${DIVSIM}" journal --dir "${WORK}/hostage" --json \
    > "${WORK}/hostage.json"
python3 - "${WORK}/hostage.json" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["supervision"]
kinds = [e["kind"] for e in events]
assert "deadline-adapt" in kinds, f"no deadline-adapt event in {kinds}"
kills = [e for e in events if e["kind"] == "deadline-kill"]
assert kills, f"no deadline-kill event in {kinds}"
assert any("learned deadline" in e.get("detail", "") for e in kills), \
    f"kill does not cite the learned deadline: {kills}"
EOF
echo "phase 1 OK: hostage quarantined, ${completed}/20 healthy replicas" \
     "bit-identical, kill journaled with learned deadline" >&2

# ---------------------------------------------------------------------------
# Phase 2: SIGKILL the parent mid-campaign, resume, demand bit-identity and
# a warm calibration start.

"${DIVSIM}" run "${GRAPH[@]}" "${ADAPTIVE[@]}" \
    --checkpoint-dir "${WORK}/resume" \
    > "${WORK}/resume1.out" 2>&1 &
parent_pid=$!

progress=0
for _ in $(seq 1 1200); do
  if ! kill -0 "${parent_pid}" 2>/dev/null; then
    break
  fi
  if [[ -r "${WORK}/resume/results.journal" ]]; then
    progress=$("${DIVSIM}" journal --dir "${WORK}/resume" 2>/dev/null \
        | grep -c '^replica ' || true)
    [[ "${progress}" -ge 3 ]] && break
  fi
  sleep 0.1
done
if ! kill -0 "${parent_pid}" 2>/dev/null; then
  echo "SKIP: campaign finished before the parent could be killed" >&2
  wait "${parent_pid}"
  exit 77
fi
kill -KILL "${parent_pid}" 2>/dev/null
wait "${parent_pid}" 2>/dev/null
echo "SIGKILLed campaign parent after ${progress} journaled replicas" >&2
# Orphaned workers die on their broken result pipe; give them a beat.
sleep 1

if [[ ! -s "${WORK}/resume/calibration.journal" ]]; then
  echo "FAIL: no calibration.journal survived the parent SIGKILL" >&2
  exit 1
fi

"${DIVSIM}" run "${GRAPH[@]}" "${ADAPTIVE[@]}" \
    --checkpoint-dir "${WORK}/resume" --resume \
    > "${WORK}/resume2.out" 2>&1
resume_rc=$?
if [[ ${resume_rc} -ne 0 ]]; then
  echo "FAIL: resumed campaign exited ${resume_rc} (want 0)" >&2
  cat "${WORK}/resume2.out" >&2
  exit 1
fi
if ! grep -q 'calibration: .* recovered' "${WORK}/resume2.out"; then
  echo "FAIL: resume did not warm from calibration.journal" >&2
  cat "${WORK}/resume2.out" >&2
  exit 1
fi
"${DIVSIM}" journal --dir "${WORK}/resume" \
    | grep '^replica ' > "${WORK}/resume.records"
if ! diff -u "${WORK}/baseline.records" "${WORK}/resume.records"; then
  echo "FAIL: resumed campaign diverged from the baseline" >&2
  exit 1
fi

echo "OK: hostage killed at the learned deadline with zero healthy" \
     "quarantines; SIGKILL+resume reproduced the baseline bit for bit" \
     "with a warm calibration start"
exit 0
