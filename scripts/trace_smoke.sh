#!/usr/bin/env bash
# Chrome-trace export smoke test, run by CI:
#
#   1. run a UDT-ES build with tracing enabled through the builder API
#      (`profile_split --trace`) and through the `UDT_TRACE` /
#      `UDT_TRACE_DEPTH` environment knobs;
#   2. validate both trace files with `validate_trace`: well-formed
#      JSON, complete `X` events only, spans well-nested per thread —
#      i.e. the file Perfetto will actually load;
#   3. check that the span names of the API trace and the backticked
#      names in README's "Span taxonomy" table are the same set, so an
#      undocumented span, or a documented one no build emits any more,
#      fails the smoke.
#
# Usage: scripts/trace_smoke.sh  (from anywhere; builds in release mode)

set -euo pipefail

cd "$(dirname "$0")/.."

cargo build --release -p udt-bench --bin profile_split --bin validate_trace

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# Builder API path: --trace goes through `TreeBuilder::with_trace`.
target/release/profile_split 20 --trace "$out/api.json" >/dev/null
test -s "$out/api.json"
target/release/validate_trace "$out/api.json"

# Span names: every span the trace holds is documented, and every
# documented span is in the trace (this build emits each table row).
python3 - "$out/api.json" README.md <<'EOF'
import json, re, sys

trace, readme = sys.argv[1], sys.argv[2]
emitted = {event["name"] for event in json.load(open(trace))["traceEvents"]}
table = open(readme).read().split("### Span taxonomy", 1)[1].split("\n### ", 1)[0]
documented = set()
for line in table.splitlines():
    if line.startswith("| `"):
        documented.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
undocumented = sorted(emitted - documented)
missing = sorted(documented - emitted)
if undocumented or missing:
    sys.exit(f"span names differ from README: undocumented {undocumented}, not emitted {missing}")
print(f"span names match README ({len(documented)} spans)")
EOF

# Environment path: every build sees `UDT_TRACE`; the deepest node
# spans are gated off by `UDT_TRACE_DEPTH`.
UDT_TRACE="$out/env.json" UDT_TRACE_DEPTH=3 \
    target/release/profile_split 10 >/dev/null
test -s "$out/env.json"
target/release/validate_trace "$out/env.json"

echo "trace smoke OK"
