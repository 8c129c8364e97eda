#!/usr/bin/env bash
# Tier-1 verification: build + tests, formatting, and lints.
# `./verify.sh --quick` first checks that the benchmark (`flitbench/`)
# compiles, then runs the planner/backend determinism suite — the fast
# invariant check after touching the search machinery.
# `./verify.sh --fuzz` runs a time-boxed differential fuzz campaign
# (the corpus plus a fixed seed range) through the release CLI; any
# unexplained divergence from the planted blame sets fails the script.
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == "--quick" ]]; then
  echo "== quick: the benchmark compiles against this tree (flitbench/, all targets) =="
  # Building flitbench/ rewrites its committed lock file; put it back
  # however the script ends.
  lock_backup=$(mktemp)
  cp flitbench/Cargo.lock "$lock_backup"
  trap 'cp "$lock_backup" flitbench/Cargo.lock; rm -f "$lock_backup"' EXIT
  cargo check --offline --manifest-path flitbench/Cargo.toml --all-targets
  echo "== quick: jobs determinism (widths 2 and 8 vs width 1, width-1 work pin) =="
  cargo test -q --test jobs_determinism
  echo "== quick: static prescreen (report pin + soundness suite) =="
  cargo test -q -p flit-cli --test render_regression
  cargo test -q --test lint_soundness
  echo "== quick: resume + dedup (kill-and-resume, shared query ledger, private ledger = fresh ledger) =="
  cargo test -q --test resume_durability
  cargo test -q -p flit-bisect
  cargo test -q -p flit-persist
  echo "== quick: certified bounds (flit-absint + certified prune + flit bound) =="
  cargo test -q -p flit-absint
  cargo test -q -p flit-cli certified
  cargo test -q -p flit-cli bound
  echo "== quick: CLI surface (pinned parse errors, closed stdout) =="
  cargo test -q -p flit-cli --lib args
  cargo test -q -p flit-cli --test closed_stdout
  echo "== quick: hostile input (every decoder; deep frames at the daemon and the worker) =="
  cargo test -q -p serde_json
  cargo test -q --test hostile_input
  cargo test -q -p flit-cli --test serve_daemon -- deeply_nested silent_client trickling_client
  cargo test -q -p flit-cli --test process_backend -- deeply_nested
  echo "== quick: fuzz oracle + campaign plumbing =="
  cargo test -q -p flit-fuzz
  echo "== quick: perf bisect (stats layer, CLI verdicts, process-backend smoke) =="
  cargo test -q -p flit-report
  cargo test -q -p flit-cli perf
  cargo build -q -p flit-cli
  # The process backend must not change a perf report (line 1, the
  # header, names the backend).
  ./target/debug/flit perf mfem --pair "g++ -O3" "g++ -O0" | tail -n +2 > target/perf-plain.txt
  ./target/debug/flit perf mfem --pair "g++ -O3" "g++ -O0" \
      --backend process --workers 2 | tail -n +2 > target/perf-process.txt
  cmp target/perf-plain.txt target/perf-process.txt
  echo "== quick: process backend (byte-identity, kill schedules, ledger) =="
  cargo test -q -p flit-exec
  cargo test -q -p flit-cli --test process_backend
  echo "== quick: process backend CLI smoke (worker subprocesses + worker-kill) =="
  ./target/debug/flit bisect mfem --test ex13 --compilation "g++ -O3 -mavx2 -mfma" \
      --backend process --workers 4 > /dev/null
  ./target/debug/flit bisect mfem --test ex13 --compilation "g++ -O3 -mavx2 -mfma" \
      --backend process --workers 4 --kill-workers 1,1,2 > /dev/null
  echo "== quick: certified-prune (bisect + workflow) + bound-soundness smoke (fuzz layer f) =="
  ./target/debug/flit bisect mfem --test ex13 --compilation "g++ -O3 -mavx2 -mfma" \
      --prune certified > /dev/null
  # The workflow's prune is the certified prune: same report as no prune.
  ./target/debug/flit workflow laghos --max-bisections 6 > target/wf-plain.txt
  ./target/debug/flit workflow laghos --max-bisections 6 --lint prune > target/wf-prune.txt
  cmp target/wf-plain.txt target/wf-prune.txt
  # LULESH's opaque kernels certify under identical environments, so
  # its prune drops items too — and must not change the report either.
  ./target/debug/flit workflow lulesh > target/wf-lulesh-plain.txt
  ./target/debug/flit workflow lulesh --lint prune > target/wf-lulesh-prune.txt
  cmp target/wf-lulesh-plain.txt target/wf-lulesh-prune.txt
  # The retired lint prune is an unknown flag, never a silent no-op.
  if ./target/debug/flit bisect mfem --test ex13 --compilation "g++ -O3 -mavx2 -mfma" \
      --lint-prune > /dev/null 2>&1; then
    echo "flit bisect accepted the retired --lint-prune flag" >&2
    exit 1
  fi
  # Worker-pool flags without the pool are an error, never ignored.
  if ./target/debug/flit bisect mfem --test ex13 --compilation "g++ -O3 -mavx2 -mfma" \
      --workers 3 --kill-workers 1,1 > /dev/null 2>&1; then
    echo "flit bisect accepted --workers without --backend process" >&2
    exit 1
  fi
  # `--connect` is a control-mode flag: `serve --listen` rejects it
  # instead of starting a daemon that ignores it (124: still running).
  status=0
  timeout 10 ./target/debug/flit serve --listen 127.0.0.1:0 --connect x > /dev/null 2>&1 \
      || status=$?
  if [[ $status -eq 0 || $status -eq 124 ]]; then
    echo "flit serve --listen accepted --connect" >&2
    exit 1
  fi
  ./target/debug/flit bound mfem --pair "g++ -O2" "g++ -O3 -mavx2 -mfma" > /dev/null
  ./target/debug/flit fuzz --seeds 0..25 > /dev/null
  echo "== quick: flit-serve (protocol/sched/daemon units + multi-tenant suite) =="
  cargo test -q -p flit-serve
  cargo test -q -p flit-cli --test serve_daemon
  echo "== quick: flit-serve daemon smoke (start, submit, status, graceful shutdown) =="
  rm -rf target/serve-smoke
  ./target/debug/flit serve --listen 127.0.0.1:0 --state-dir target/serve-smoke &
  SERVE_PID=$!
  for _ in $(seq 1 150); do
    [[ -s target/serve-smoke/serve.addr ]] && break
    sleep 0.1
  done
  SERVE_ADDR=$(cat target/serve-smoke/serve.addr)
  ./target/debug/flit submit laghos --connect "$SERVE_ADDR" --tenant smoke \
      --max-bisections 1 > /dev/null
  ./target/debug/flit serve --status --connect "$SERVE_ADDR"
  ./target/debug/flit serve --shutdown --connect "$SERVE_ADDR" > /dev/null
  wait "$SERVE_PID"
  test -s target/serve-smoke/tenants/smoke/journal-*.jsonl
  echo "verify --quick: OK"
  exit 0
fi

if [[ "${1:-}" == "--fuzz" ]]; then
  echo "== fuzz: differential campaign vs planted blame sets (60 s box) =="
  cargo build -q --release -p flit-cli
  # --backend process adds the fifth oracle layer: corpus seeds (and
  # every resume-stride hit) re-run their search through `flit worker`
  # subprocesses and require a bit-identical result.
  ./target/release/flit fuzz --seeds 0..1000 --budget-secs 60 --shrink --backend process
  echo "verify --fuzz: OK"
  exit 0
fi

echo "== cargo build --release --workspace =="
# --workspace matters: the root [package] is the only default member,
# so a bare `cargo build` would leave target/release/flit stale.
cargo build --release --workspace

echo "== cargo test -q --workspace =="
# --workspace: a bare `cargo test` runs only the root package and would
# skip every crate's own unit tests.
cargo test -q --workspace

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo run --example quickstart =="
cargo run --release --example quickstart

echo "== cargo run --example determinize_replay =="
cargo run --release --example determinize_replay

echo "== table2 characterization (emits BENCH_table2.json) =="
cargo run --release -p flit-bench --bin table2
test -s BENCH_table2.json

echo "== absint_audit (Table-2 soundness, seeding/prune query counts, Table-5 coverage) =="
cargo run --release -p flit-bench --bin absint_audit

echo "== flit-serve fleet characterization (emits BENCH_serve.json; enforces dedup + p95 targets) =="
cargo run --release -p flit-bench --bin serve_bench
test -s BENCH_serve.json

echo "verify: OK"
