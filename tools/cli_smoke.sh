#!/bin/sh
# Smoke test of the deployment workflow through tagspin_cli, in a fresh
# directory: simulate --llrp -> locate -> locate --three-d -> inspect must
# each exit 0, both locates must print a fix and inspect the kernel level;
# locate on an empty trace must exit 1 and name the error code too_few_rigs.
#
# Usage: tools/cli_smoke.sh path/to/tagspin_cli WORKDIR
set -eu

cli="$1"
dir="$2"
rm -rf "$dir"
mkdir -p "$dir"

"$cli" simulate --dir "$dir" --reader 0.7,2.1,0 --llrp
for mode in "" --three-d; do
  out=$("$cli" locate --deployment "$dir/deployment.txt" \
    --trace "$dir/trace.llrp" $mode)
  echo "$out"
  echo "$out" | grep -q '^fix:'
done
"$cli" inspect --trace "$dir/trace.llrp" > "$dir/inspect.out"
cat "$dir/inspect.out"
grep -q '^kernel: ' "$dir/inspect.out"

: > "$dir/empty.llrp"
status=0
"$cli" locate --deployment "$dir/deployment.txt" --trace "$dir/empty.llrp" \
  > "$dir/empty.out" 2>&1 || status=$?
cat "$dir/empty.out"
test "$status" -eq 1
grep -q too_few_rigs "$dir/empty.out"
echo "cli smoke: ok"
