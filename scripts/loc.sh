#!/usr/bin/env bash
# Counts non-test lines of Rust in the product: every `.rs` file under
# `crates/` and `src/` outside `tests/` directories, each counted up to
# (not including) its first top-level `#[cfg(test)]` that opens a
# `mod`. Files that are themselves declared `#[cfg(test)] mod name;`
# (test oracles and fixtures) are skipped whole. Prints one line per
# crate (`crates/NAME`, or `src` for the facade and binaries) and the
# total.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: this script's repo)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

# Files declared as `#[cfg(test)] mod name;`: `name.rs` beside a
# `lib.rs` / `main.rs` / `mod.rs`, else in the declaring file's own
# directory (`foo.rs` declares `foo/name.rs`).
declare -A skip=()
while IFS=: read -r file name; do
    dir=$(dirname "$file")
    case $(basename "$file") in
        lib.rs | main.rs | mod.rs) path="$dir/$name.rs" ;;
        *) path="$dir/$(basename "$file" .rs)/$name.rs" ;;
    esac
    skip[$path]=1
done < <(grep -rn -A1 --include='*.rs' '^#\[cfg(test)\]' crates src |
    sed -nE 's/^(.*\.rs)-[0-9]+-mod ([A-Za-z0-9_]+);.*/\1:\2/p')

declare -A per_crate=()
total=0
while IFS= read -r file; do
    [[ -n ${skip[$file]:-} ]] && continue
    lines=$(awk '/^#\[cfg\(test\)\]/ { armed = 1; next }
                 armed && /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/ { exit }
                 { if (armed) count++; armed = 0; count++ }
                 END { print count + 0 }' "$file")
    case $file in
        crates/*) crate=$(cut -d/ -f1-2 <<<"$file") ;;
        *) crate=src ;;
    esac
    per_crate[$crate]=$((${per_crate[$crate]:-0} + lines))
    total=$((total + lines))
done < <(find crates src -name '*.rs' -not -path '*/tests/*' | sort)

for crate in $(printf '%s\n' "${!per_crate[@]}" | sort); do
    printf '%7d  %s\n' "${per_crate[$crate]}" "$crate"
done
printf '%7d  total\n' "$total"
