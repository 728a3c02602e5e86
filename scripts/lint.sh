#!/usr/bin/env bash
# Repo lint gate — run locally before pushing, run by the lint CI job.
#
# Two layers:
#  1. Custom greps with no tool dependencies (always run):
#       - no raw std::mutex / locks outside src/common/mutex.h: every lock
#         must be the annotated sknn::Mutex so Clang Thread Safety Analysis
#         sees it (docs/CONCURRENCY.md);
#       - no naked std::sto* / atoi in tools/: flag parsing must go through
#         tools/tool_util.h's checked parsers, which reject trailing garbage
#         and never throw out of a CLI;
#       - no std::thread::detach anywhere: every thread must be joined, or
#         TSan-clean teardown is impossible;
#       - every client-visible wire frame type in src/net/query_wire.h is
#         documented by name in docs/API.md, the versioned client contract;
#       - no scalar per-element crypto calls (.Encrypt/.Decrypt/.Rerandomize/
#         .PowMod) in the src/proto/ hot paths: batch work must go through
#         EncryptMany/DecryptMany/RerandomizeMany/PowModMany so it shares
#         the randomizer pool and thread fan-out (docs/CRYPTO.md). A
#         justified scalar call carries a `// batch-exempt: <why>` marker on
#         its own line or the line above;
#       - no negation by exponent in src/proto/ or src/core/: a MulScalar
#         whose exponent is N-1 or N-2 (`n - BigInt(1)`, `n_minus_2`, ...)
#         is a full-width modexp standing in for Negate, which is one
#         modular inversion (docs/CRYPTO.md, "Negation by inversion"). A
#         justified call carries a `// negate-exempt: <why>` marker on its
#         first line or the line above;
#       - no dead or unhandled C1<->C2 opcodes: every `Op` enumerator in
#         src/proto/opcodes.h except kError has a `case Op::kX` in
#         src/proto/c2_service.cc and is named as `Op::kX` somewhere else
#         under src/, so each wire form C2 answers is one C1 can send.
#  2. clang-tidy over compile_commands.json (runs when clang-tidy is on
#     PATH — the lint CI job; skipped with a notice otherwise). Checks are
#     curated in .clang-tidy.
#
# Usage: scripts/lint.sh [build-dir]     (default: build)
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
cd "${repo_root}"

failures=0

fail() {
  echo "LINT FAIL: $1" >&2
  shift
  printf '%s\n' "$@" >&2
  failures=$((failures + 1))
}

# --- 1a. Raw mutex primitives outside the annotated wrapper ----------------
raw_mutex=$(grep -rn --include='*.h' --include='*.cc' \
  -e 'std::mutex' -e 'std::lock_guard' -e 'std::unique_lock' \
  -e 'std::condition_variable' -e 'std::scoped_lock' -e 'std::shared_mutex' \
  src tools tests bench examples 2>/dev/null \
  | grep -v '^src/common/mutex\.h:' || true)
if [ -n "${raw_mutex}" ]; then
  fail "raw std::mutex primitives outside src/common/mutex.h — use \
sknn::Mutex/MutexLock/CondVar so the thread-safety analysis covers them" \
    "${raw_mutex}"
fi

# --- 1b. Naked numeric parsing in the CLI tools ----------------------------
# tool_util.h's ParseCount/ParsePort reject garbage and never throw; a naked
# std::sto* aborts the whole tool on "--port abc". Comments are exempt.
naked_sto=$(grep -rn --include='*.h' --include='*.cc' \
  -e 'std::sto[a-z]*(' -e '[^_a-z]atoi(' -e 'strtoul(' \
  tools 2>/dev/null | grep -v '^\s*//' | grep -v ':[0-9]*:\s*//' || true)
if [ -n "${naked_sto}" ]; then
  fail "naked numeric parsing in tools/ — use the checked parsers in \
tools/tool_util.h" "${naked_sto}"
fi

# --- 1c. Detached threads --------------------------------------------------
detached=$(grep -rn --include='*.h' --include='*.cc' '\.detach()' \
  src tools tests bench examples 2>/dev/null || true)
if [ -n "${detached}" ]; then
  fail "std::thread::detach — track and join every thread (TSan-clean \
teardown, docs/CONCURRENCY.md)" "${detached}"
fi

# --- 1d. Undocumented wire frames ------------------------------------------
# docs/API.md is the versioned client contract: every front-end frame type
# declared in src/net/query_wire.h (the `kName = 0x....` enumerators) must
# appear there by name. Shipping an opcode without documenting it breaks
# third-party clients silently. (src/net/shard_wire.h is exempt — API.md
# declares the coordinator<->worker protocol internal and unversioned.)
undocumented=""
for opcode in $(grep -oE 'k[A-Za-z0-9]+ = 0x' src/net/query_wire.h \
                  | sed 's/ = 0x//'); do
  if ! grep -qw "${opcode}" docs/API.md; then
    undocumented="${undocumented}${opcode}"$'\n'
  fi
done
if [ -n "${undocumented}" ]; then
  fail "wire frame types in src/net/query_wire.h missing from docs/API.md — \
document the layout and semantics of every client-visible frame" \
    "${undocumented}"
fi

# --- 1e. Scalar crypto calls in the src/proto hot paths --------------------
# The sub-protocol drivers and the C2 handlers are the system's hottest
# loops; a scalar .Encrypt/.Decrypt/.Rerandomize/.PowMod there bypasses the
# batch API (randomizer pool sharing + thread fan-out). The Many-suffixed
# calls don't match (the open paren anchors the scalar form). Exempt a
# justified call with `// batch-exempt: <why>` on the match line or the
# line directly above.
scalar_crypto=$(awk '
  {
    if ($0 ~ /\.(Encrypt|Decrypt|Rerandomize|PowMod)\(/ &&
        $0 !~ /batch-exempt:/ && NR != exempt_line) {
      printf "%s:%d:%s\n", FILENAME, FNR, $0
    }
    if ($0 ~ /batch-exempt:/) exempt_line = NR + 1
  }
' src/proto/*.cc 2>/dev/null || true)
if [ -n "${scalar_crypto}" ]; then
  fail "scalar per-element crypto calls in src/proto/ — use the batch API \
(EncryptMany/DecryptMany/RerandomizeMany/PowModMany, crypto/paillier.h) or \
mark the call '// batch-exempt: <why>'" "${scalar_crypto}"
fi

# --- 1f. Negation by exponent in the protocol code ------------------------
# Epk(a)^(N-1) and Epk(a)^(N-2) cost a full-width modexp each; Negate (and
# Sub, and Negate(Add(c, c)) for -2a) cost one inversion. The whole
# MulScalar call is checked, also when it spans lines (up to its `;`).
negation_by_exp=$(awk '
  function check() {
    if (call ~ /MulScalar\(/ &&
        call ~ /([A-Za-z_]+[ \t]*-[ \t]*BigInt\([ \t]*[12][ \t]*\)|n_minus_[12])/ &&
        call !~ /negate-exempt:/ && start != exempt_line) {
      printf "%s:%d:%s\n", file, start_fnr, first
    }
    call = ""
  }
  FNR == 1 { call = "" }
  {
    if (call == "" && $0 ~ /MulScalar\(/) {
      call = $0; first = $0; start = NR; start_fnr = FNR; file = FILENAME
    } else if (call != "") {
      call = call " " $0
    }
    if (call != "" && $0 ~ /;/) check()
    if ($0 ~ /negate-exempt:/) exempt_line = NR + 1
  }
' src/proto/*.cc src/core/*.cc 2>/dev/null || true)
if [ -n "${negation_by_exp}" ]; then
  fail "negation by an N-1 / N-2 exponent in src/proto/ or src/core/ — use \
Negate/Sub (one modular inversion, crypto/paillier.h) or mark the call \
'// negate-exempt: <why>'" "${negation_by_exp}"
fi

# --- 1g. Dead or unhandled C1<->C2 opcodes --------------------------------
# An opcode C2 does not dispatch fails every query that sends it; an opcode
# nothing else names is a second wire form kept alive only by C2's switch.
# kError is the RPC server's reply type, never a request.
bad_opcodes=""
for opcode in $(grep -oE '^  k[A-Za-z0-9]+ = ' src/proto/opcodes.h \
                  | sed -E 's/^  (k[A-Za-z0-9]+) = /\1/'); do
  [ "${opcode}" = "kError" ] && continue
  if ! grep -q "case Op::${opcode}:" src/proto/c2_service.cc; then
    bad_opcodes="${bad_opcodes}${opcode}: no case in src/proto/c2_service.cc"$'\n'
  fi
  if ! grep -rlw --include='*.h' --include='*.cc' "Op::${opcode}" src \
      | grep -qvE '^src/proto/(opcodes\.h|c2_service\.cc)$'; then
    bad_opcodes="${bad_opcodes}${opcode}: never sent (no Op::${opcode} in src/ \
outside opcodes.h and c2_service.cc)"$'\n'
  fi
done
if [ -n "${bad_opcodes}" ]; then
  fail "dead or unhandled C1<->C2 opcodes in src/proto/opcodes.h — give \
each one a C2 handler and a sender, or delete it" "${bad_opcodes}"
fi

# --- 2. clang-tidy ---------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  if [ ! -f "${build_dir}/compile_commands.json" ]; then
    fail "clang-tidy needs ${build_dir}/compile_commands.json — configure \
with cmake -B ${build_dir} -S . (CMAKE_EXPORT_COMPILE_COMMANDS is on by \
default)"
  else
    # Library + tools only: test binaries are gtest-macro soup that drowns
    # the signal. run-clang-tidy parallelizes when present.
    tidy_sources=$(find src tools -name '*.cc' | sort)
    if command -v run-clang-tidy >/dev/null 2>&1; then
      # shellcheck disable=SC2086  # word-splitting the file list is intended
      if ! run-clang-tidy -quiet -p "${build_dir}" ${tidy_sources} \
          > /tmp/clang_tidy_lint.log 2>&1; then
        fail "clang-tidy (see /tmp/clang_tidy_lint.log)" \
          "$(grep -E 'warning:|error:' /tmp/clang_tidy_lint.log | head -50)"
      fi
    else
      tidy_failed=0
      for f in ${tidy_sources}; do
        clang-tidy -quiet -p "${build_dir}" "${f}" \
          >> /tmp/clang_tidy_lint.log 2>&1 || tidy_failed=1
      done
      if [ "${tidy_failed}" -ne 0 ]; then
        fail "clang-tidy (see /tmp/clang_tidy_lint.log)" \
          "$(grep -E 'warning:|error:' /tmp/clang_tidy_lint.log | head -50)"
      fi
    fi
  fi
else
  echo "lint: clang-tidy not on PATH — skipping the static-analysis layer" \
    "(the lint CI job runs it)"
fi

if [ "${failures}" -ne 0 ]; then
  echo "lint: ${failures} gate(s) failed" >&2
  exit 1
fi
echo "lint: OK"
