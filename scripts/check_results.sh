#!/usr/bin/env bash
# Rerun every shipped config into a temporary directory and compare each
# CSV byte for byte with the committed one under results/, and each
# manifest beside it key by key, except its wall time and output path.
#
# Runs the package from src/ of this checkout.  counterexample.conf and
# rates.conf exit 2 by design (see the comments in those files); any other
# nonzero exit, a missing CSV or manifest, or one that differs makes this
# script exit 1.
set -u
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Two manifests agree when every key but wall_time_s and output does, with
# the output line of config_text masked.
same_manifest() {
    python3 - "$1.manifest.json" "$2.manifest.json" <<'PY'
import json, re, sys

def key(path):
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    del manifest["wall_time_s"], manifest["output"]
    manifest["config_text"] = re.sub(r"(?m)^output = .*$", "output = ", manifest["config_text"])
    return manifest

sys.exit(key(sys.argv[1]) != key(sys.argv[2]))
PY
}

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
    if cmp -s "$committed" "$rerun" && same_manifest "$committed" "$rerun"; then
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
echo "done: every CSV under results/ and its manifest reproduced."
