#!/usr/bin/env bash
# Tier-1 verification: build + tests, formatting, and lints.
# `./verify.sh --quick` first checks that the benchmark (`flitbench/`)
# compiles, then runs the planner/backend determinism suite — the fast
# invariant check after touching the search machinery.
# `./verify.sh --fuzz` runs a time-boxed differential fuzz campaign
# (the corpus plus a fixed seed range) through the release CLI; any
# unexplained divergence from the planted blame sets fails the script.
# `./verify.sh --dead` fails on a `pub` item nothing outside its crate
# uses; `./verify.sh --golden [--bless]` compares the pinned outputs
# with tests/golden/ (each section below says how).
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

if [[ "${1:-}" == "--dead" ]]; then
  # Dead-`pub` scan. rustc's dead_code lint ignores anything reachable as
  # public API, so this finds the uses of each `pub` item itself: in a
  # copy of the tree, every non-test `pub fn|struct|enum|trait|const|
  # type|static` under crates/*/src (not src/bin, not main.rs) gets a
  # `#[deprecated(note = "dead-scan <file>:<line>")]`, every `pub use`
  # there an `#[allow(deprecated)]` (a re-export is not a use; the facade
  # src/lib.rs is left as it is, so its prelude counts as a user), and
  # the `use of deprecated` warnings of `cargo check --all-targets` on
  # the workspace and on flitbench/ are the use sites. It fails on
  #   - a `pub fn|const|static` used nowhere outside its crate's src/
  #     (src/bin and main.rs count as outside): make it `pub(crate)`;
  #   - a `pub struct|enum|trait|type` used nowhere but its crate's unit
  #     tests. Own-crate uses keep a type `pub`, because another crate
  #     can hold a value of it without naming it.
  # Unit tests are the lines from a file's first `#[cfg(test)]` on.
  scan=$PWD/target/dead-scan
  tree=$scan/tree
  rm -rf "$tree"
  mkdir -p "$tree"
  # Tracked and untracked files, not ignored ones (a tracked file deleted
  # from the work tree is skipped).
  git ls-files -co --exclude-standard -z \
    | tar --null --ignore-failed-read -cf - -T - 2> /dev/null | tar -xf - -C "$tree"
  cd "$tree"
  echo "== dead: mark every non-test pub item =="
  find crates/*/src -name '*.rs' ! -path '*/src/bin/*' ! -name main.rs | sort > "$scan/files"
  : > "$scan/items"
  : > "$scan/cfgtest"
  while read -r f; do
    awk -v items="$scan/items" '
      /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
      !test && /^[[:space:]]*pub use / { print ind() "#[allow(deprecated)]" }
      !test && /^[[:space:]]*pub (const |async |unsafe )*(fn|struct|enum|trait|const|type|static) / {
        decl = $0
        sub(/^[[:space:]]*pub /, "", decl)
        if (decl ~ /^(const |async |unsafe )+fn /) sub(/^(const |async |unsafe )+/, "", decl)
        kind = decl
        sub(/ .*/, "", kind)
        name = substr(decl, length(kind) + 2)
        match(name, /^[A-Za-z_][A-Za-z0-9_]*/)
        print FILENAME ":" FNR " " kind " " substr(name, 1, RLENGTH) >> items
        print ind() "#[deprecated(note = \"dead-scan " FILENAME ":" FNR "\")]"
      }
      { print }
      function ind() { match($0, /^[[:space:]]*/); return substr($0, 1, RLENGTH) }
    ' "$f" > "$f.marked"
    mv "$f.marked" "$f"
    awk -v f="$f" '/^[[:space:]]*#\[cfg\(test\)\]/ { print f, FNR; exit }' "$f" >> "$scan/cfgtest"
  done < "$scan/files"
  echo "$(wc -l < "$scan/items") pub items marked"
  echo "== dead: collect use sites (workspace and flitbench/, all targets) =="
  export CARGO_TARGET_DIR=$scan/target
  unset RUSTFLAGS
  cargo check --offline --all-targets --workspace --message-format=short 2> "$scan/ws.log" \
    || { cat "$scan/ws.log" >&2; exit 1; }
  cargo check --offline --all-targets --manifest-path flitbench/Cargo.toml \
    --message-format=short 2> "$scan/bench.log" || { cat "$scan/bench.log" >&2; exit 1; }
  # flitbench/ prints its own files relative to flitbench/ and the
  # crates by absolute path; its uses of the crates are already in ws.log.
  grep -h 'warning: use of deprecated' "$scan/ws.log" > "$scan/uses" || true
  grep -h 'warning: use of deprecated' "$scan/bench.log" | grep -v "^$tree/" \
    | sed 's|^|flitbench/|' >> "$scan/uses" || true
  echo "== dead: judge each item =="
  dead=$(awk '
    FILENAME == ARGV[1] { cfgtest[$1] = $2; next }
    FILENAME == ARGV[2] { kind[$1] = $2; name[$1] = $3; order[++n] = $1; next }
    {
      match($0, /dead-scan [^ ]+$/)
      item = substr($0, RSTART + 10)
      split($1, site, ":")
      crate = item
      sub(/src\/.*/, "src/", crate)
      if (index(site[1], crate) != 1 || site[1] ~ /\/src\/bin\// || site[1] ~ /\/main\.rs$/) {
        outside[item] = 1
      } else if (!(site[1] in cfgtest) || site[2] + 0 < cfgtest[site[1]] + 0) {
        own[item] = 1
      }
    }
    END {
      for (i = 1; i <= n; i++) {
        it = order[i]
        if (outside[it]) continue
        if (kind[it] ~ /^(fn|const|static)$/)
          print it ": pub " kind[it] " " name[it] " is used nowhere outside its crate"
        else if (!own[it])
          print it ": pub " kind[it] " " name[it] " is used by nothing but its unit tests"
      }
    }
  ' "$scan/cfgtest" "$scan/items" "$scan/uses")
  if [[ -n "$dead" ]]; then
    echo "$dead"
    echo "verify --dead: FAILED ($(wc -l <<< "$dead") pub items need pub(crate), test code or deletion)" >&2
    exit 1
  fi
  echo "verify --dead: OK"
  exit 0
fi

if [[ "${1:-}" == "--golden" ]]; then
  # Pinned outputs: every paper exhibit, the CLI workflows and two
  # examples run from release binaries, each in an empty directory, and
  # their stdout, exit code and written files are compared with
  # tests/golden/. An output of up to 16 KiB is stored verbatim, so a
  # change prints as a diff; a larger one as its size and sha256.
  # `./verify.sh --golden --bless` rewrites tests/golden/ from this tree.
  bless=0
  [[ "${2:-}" == "--bless" ]] && bless=1
  echo "== golden: host libm canary =="
  # MathLib::Reference is the host's exp/sin: on another libm the pinned
  # bytes legitimately differ, so skip rather than report a regression.
  if ! cargo test -q --release --offline -p flit-fpsim --lib \
      -- --ignored reference_libm_canary > /dev/null 2>&1; then
    echo "host libm differs from the one tests/golden/ was blessed on: byte comparison skipped"
    # Blessing here would pin this host's bytes: refuse (exit 1).
    exit "$bless"
  fi
  cargo build -q --release --offline --workspace
  cargo build -q --release --offline --example reproducible_fix --example cgal_discrete
  bin=$PWD/target/release
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
  out=$work/golden
  mkdir "$out"
  pin() { # pin <label> <file>
    local size
    size=$(stat -c %s "$2")
    if [[ $size -le 16384 ]]; then
      cp "$2" "$out/$1"
    else
      echo "$1 $size $(sha256sum < "$2" | cut -d' ' -f1)" >> "$out/digests"
    fi
  }
  run_case() { # run_case <name> "<files it writes>" <command...>
    local name=$1 files=$2 code=0
    shift 2
    echo "-- $name"
    mkdir "$work/run-$name"
    (cd "$work/run-$name" && "$@") > "$work/$name.stdout" 2> /dev/null || code=$?
    echo "$name $code" >> "$out/exit-codes"
    pin "$name.stdout" "$work/$name.stdout"
    for f in $files; do pin "$name.$f" "$work/run-$name/$f"; done
  }
  echo "== golden: run the pinned commands =="
  for b in motivation fig2 fig4 fig5 fig6 table1 table3 table4 table5; do
    run_case "$b" "" "$bin/$b"
  done
  run_case table2 BENCH_table2.json "$bin/table2"
  run_case workflow-mfem "" "$bin/flit" workflow mfem
  run_case workflow-mfem-journaled "t j" "$bin/flit" workflow mfem \
      --jobs 1 --max-bisections 6 --trace t --checkpoint j
  run_case perf-mfem "" "$bin/flit" perf mfem --pair "g++ -O3" "g++ -O0"
  run_case inject-lulesh "" "$bin/flit" inject lulesh
  run_case reproducible_fix "" "$bin/examples/reproducible_fix"
  run_case cgal_discrete "" "$bin/examples/cgal_discrete"
  if [[ $bless -eq 1 ]]; then
    diff -rq tests/golden "$out" || true
    rm -rf tests/golden
    cp -r "$out" tests/golden
    echo "verify --golden --bless: tests/golden/ rewritten"
    exit 0
  fi
  if ! diff -ru tests/golden "$out"; then
    echo "verify --golden: FAILED (outputs differ from tests/golden/; see the diff above)" >&2
    exit 1
  fi
  echo "verify --golden: OK"
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

echo "== rustdoc (warnings denied: public docs must not link to private items) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

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
