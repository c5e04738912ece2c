#!/usr/bin/env bash
# Run every shipped experiment config and summarize the results.
#
# counterexample.conf and rates.conf exit 2 by design (see the comments in
# those files); any other nonzero exit, of those two or of any other
# config, is a failure.  Runs the package from src/ of this checkout.
set -u
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

failed=""

for conf in scripts/*.conf; do
    name="$(basename "$conf" .conf)"
    echo "== dperm run $conf"
    python3 -m dperm.cli run "$conf"
    code=$?
    case "$code:$name" in
        0:*) ;;
        2:counterexample | 2:rates) echo "   (expected failure, see $conf)" ;;
        *) failed="$failed $name(exit $code)" ;;
    esac
done

echo
python3 -m dperm.cli summarize results/*.csv || true

if [ -n "$failed" ]; then
    echo "unexpected failures:$failed" >&2
    exit 1
fi
echo "done: only the documented red runs failed."
