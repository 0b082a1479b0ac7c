#!/bin/sh
# The one pre-merge command: the Tier-1 test suite, the benchmark harness's
# own tests, and the diagram gallery written into a temporary directory.
# Stops at the first step that fails and exits with its status.
#
# Usage: sh scripts/verify.sh   (from any directory)
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
outdir=$(mktemp -d)
trap 'rm -rf "$outdir"' EXIT

echo "== tier-1 tests"
python -m pytest -q --continue-on-collection-errors
echo "== perfbench tests"
python -m pytest -q perfbench/tests
echo "== diagram gallery"
python scripts/diagram_gallery.py --outdir "$outdir"
