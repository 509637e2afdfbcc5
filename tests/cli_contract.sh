#!/usr/bin/env bash
# CLI contract drill for `divsim run`: every refused option combination
# exits 1 with its message before any replica runs, --trace prints replica
# 0's trajectory with and without a checkpoint directory, the summary lines
# of a seed do not depend on the thread count or the lane width, and the
# removed --supervise flag only draws the unknown-option warning.
#
#   bash tests/cli_contract.sh build/tools/divsim
#
# Exits 77 (CTest SKIP_RETURN_CODE) without a divsim binary.
set -u

DIVSIM="${1:-}"
if [[ -z "${DIVSIM}" || ! -x "${DIVSIM}" ]]; then
  echo "SKIP: divsim binary not provided or not executable" >&2
  exit 77
fi

WORK="$(mktemp -d)" || exit 77
trap 'rm -rf "${WORK}"' EXIT

BASE=(run --graph regular:64:4 --k 4 --replicas 8 --seed 11)
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# refuse MESSAGE ARGS...: divsim run ARGS must exit 1, print MESSAGE on
# stderr, and print no `completed` line (no replica ran).
refuse() {
  local message="$1"
  shift
  "${DIVSIM}" "${BASE[@]}" "$@" > "${WORK}/out" 2> "${WORK}/err"
  local rc=$?
  if [[ ${rc} -ne 1 ]]; then
    fail "'$*' exited ${rc}, want 1"
  fi
  if ! grep -qF -- "${message}" "${WORK}/err"; then
    fail "'$*' did not print '${message}'; stderr was: $(cat "${WORK}/err")"
  fi
  if grep -q '^completed ' "${WORK}/out"; then
    fail "'$*' ran replicas before refusing"
  fi
}

# The refusal matrix.
refuse "--batch-lanes only supports --process div" --batch-lanes 4 --process pull
refuse "--batch-lanes cannot honor --fault" --batch-lanes 4 --fault drop=0.1
refuse "--batch-lanes does not support --trace" --batch-lanes 4 --trace 50
refuse "--batch-lanes must be in [1, 4096], got 0" --batch-lanes 0
refuse "--batch-lanes must be in [1, 4096], got 4097" --batch-lanes 4097
refuse "--engine=jump cannot honor --fault" --engine jump --fault drop=0.1
refuse "--trace is not supported with --isolation process" \
    --trace 50 --isolation process
refuse "--resume requires --checkpoint-dir" --resume
refuse "--retry-quarantined only makes sense with --resume" \
    --checkpoint-dir "${WORK}/rq" --retry-quarantined
# Configuration errors that used to run (or fail) every replica.
refuse "unknown stop condition 'bogus'" --stop bogus
refuse "unknown process 'bogus'" --process bogus
refuse "--engine=jump only supports --process div" --process pull --engine jump
refuse "--engine must be 'step' or 'jump'" --engine bogus

# --trace N prints replica 0's trajectory in thread mode, with and without
# a checkpoint directory.
for extra in "" "--checkpoint-dir ${WORK}/traced"; do
  # shellcheck disable=SC2086
  "${DIVSIM}" "${BASE[@]}" --trace 50 ${extra} > "${WORK}/out" 2>&1
  rc=$?
  if [[ ${rc} -ne 0 ]]; then
    fail "--trace 50 ${extra} exited ${rc}"
  fi
  if ! grep -q '^trace of replica 0 (step, range, S):$' "${WORK}/out" ||
     ! grep -qE '^  0  \[[0-9]+,[0-9]+\]  -?[0-9]+$' "${WORK}/out"; then
    fail "--trace 50 ${extra} printed no replica-0 trace"
  fi
done

# summary ARGS...: the seed-determined summary lines of one run.
summary() {
  "${DIVSIM}" "${BASE[@]}" "$@" > "${WORK}/out" 2>&1
  local rc=$?
  if [[ ${rc} -ne 0 ]]; then
    fail "'$*' exited ${rc}"
  fi
  grep -E '^(completed |jump engine:|winners:)' "${WORK}/out"
}

# Same seed, same summary, whatever executes it.  The jump engine runs both
# schemes: on this regular graph the vertex scheme samples from the same
# discordant-edge array as the edge scheme.
for engine in "step" "jump --scheme edge" "jump --scheme vertex"; do
  # shellcheck disable=SC2086
  reference="$(summary --engine ${engine} --threads 1)"
  if [[ -z "${reference}" ]]; then
    fail "--engine ${engine} printed no summary"
  fi
  for variant in "--threads 4" "--batch-lanes 4" "--batch-lanes 4 --threads 4"; do
    # shellcheck disable=SC2086
    got="$(summary --engine ${engine} ${variant})"
    if [[ "${got}" != "${reference}" ]]; then
      fail "--engine ${engine} ${variant} summary differs from --threads 1:"
      diff <(echo "${reference}") <(echo "${got}") >&2
    fi
  done
done

# --supervise is gone: every run is supervised, so the flag is unknown.
"${DIVSIM}" "${BASE[@]}" --supervise > "${WORK}/out" 2> "${WORK}/err"
rc=$?
if [[ ${rc} -ne 0 ]]; then
  fail "--supervise exited ${rc}, want 0 (a warning, not an error)"
fi
if ! grep -qxF "warning: unrecognized option --supervise" "${WORK}/err"; then
  fail "--supervise drew no unrecognized-option warning"
fi

if [[ ${failures} -gt 0 ]]; then
  echo "cli_contract: ${failures} failure(s)" >&2
  exit 1
fi
echo "PASS: refusals exit 1, --trace prints, summaries are executor-invariant"
