#!/usr/bin/env bash
# Rerun every shipped config into a temporary directory and compare each
# CSV byte for byte with the committed one under results/.
#
# Runs the package from src/ of this checkout.  counterexample.conf and
# rates.conf exit 2 by design (see the comments in those files); any other
# nonzero exit, a missing CSV or a CSV that differs makes this script exit 1.
set -u
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

failed=""
for conf in scripts/*.conf; do
    name="$(basename "$conf" .conf)"
    committed="$(sed -n 's/^output *= *//p' "$conf")"
    rerun="$tmp/$(basename "$committed")"
    sed "s|^output *=.*|output = $rerun|" "$conf" > "$tmp/$name.conf"
    python3 -m dperm.cli run "$tmp/$name.conf" > /dev/null
    code=$?
    case "$code:$name" in
        0:* | 2:counterexample | 2:rates) ;;
        *)
            echo "FAILED (exit $code): $conf"
            failed="$failed $name"
            continue
            ;;
    esac
    if cmp -s "$committed" "$rerun"; then
        echo "same:    $committed"
    else
        echo "DIFFERS: $committed"
        failed="$failed $name"
    fi
done

if [ -n "$failed" ]; then
    echo "results not reproduced:$failed" >&2
    exit 1
fi
echo "done: every CSV under results/ reproduced byte for byte."
