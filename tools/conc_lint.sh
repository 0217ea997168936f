#!/usr/bin/env bash
# Concurrency-primitive allowlist lint.
#
# Every lock, condvar, rwlock, and thread spawn/scope in the workspace
# must go through `arest_conc::{sync, thread}` (channels through the
# crossbeam shim, which is built on it) so the `model-check` scheduler
# sees every schedule point. A direct std primitive is invisible to
# the model: a thread blocked on one wedges an exploration run
# (DESIGN.md §10).
#
# Allowed locations for std primitives:
#   crates/conc/ — the shim layer itself wraps the std primitives
#   shims/       — vendored-dependency shims built on arest-conc's
#                  sync types
# The thread-facade rule below covers shims/ too: threads start only
# through arest_conc::thread.
# Line-level escape hatch for a deliberate exception: append a
# `conc-lint: allow (reason)` comment on the offending line.
set -euo pipefail
cd "$(dirname "$0")/.."

PATHS=('*.rs' ':!crates/conc' ':!shims')
fail=0

# lint PATTERN MESSAGE [PATHSPEC...] — PATHSPEC defaults to PATHS.
lint() {
    local pattern="$1" msg="$2"
    shift 2
    local paths=("${PATHS[@]}")
    if [[ $# -gt 0 ]]; then
        paths=("$@")
    fi
    local hits
    hits=$(git grep -nIE "$pattern" -- "${paths[@]}" | grep -v 'conc-lint: allow' || true)
    if [[ -n "$hits" ]]; then
        printf 'conc-lint: %s\n%s\n\n' "$msg" "$hits"
        fail=1
    fi
}

lint 'std::sync::(Mutex|Condvar|RwLock)\b' \
    'use arest_conc::sync::{Mutex, Condvar, RwLock}, not std::sync'
lint 'use std::sync::[^;]*\b(Mutex|Condvar|RwLock)\b' \
    'import locks from arest_conc::sync, not std::sync'
lint 'std::thread::(spawn|scope)\b' \
    'use arest_conc::thread::{spawn, scope}, not std::thread'
lint 'use std::thread::[^;]*\b(spawn|scope)\b' \
    'import spawn/scope from arest_conc::thread, not std::thread'
# One thread facade: a second scoped-thread API (the crossbeam shim
# once had one) needs its own copy of the model-check join logic.
lint 'crossbeam::thread\b|^\s*pub mod thread\b' \
    'spawn threads through arest_conc::thread; the crossbeam shim has no thread module' \
    '*.rs' ':!crates/conc'
# Channels too: a std mpsc receiver blocks on a futex the model cannot
# see. The arest-serve accept/dispatch core deliberately has no
# channel at all — it coordinates through arest_conc mutex/condvar —
# and everything else uses the crossbeam shim.
lint 'std::sync::mpsc' \
    'use the crossbeam shim channels, not std::sync::mpsc'

if [[ "$fail" -ne 0 ]]; then
    echo 'conc-lint: FAILED — route these through arest-conc (see DESIGN.md §10)'
    exit 1
fi
echo 'conc-lint: ok'
