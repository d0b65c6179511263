#!/usr/bin/env bash
# Replays the mutation checks listed in mutants/manifest. For each row it
# applies the patch to the working tree, runs the row's command, requires
# the named test to fail, and reverts the patch. A patch that no longer
# applies (or reverts) stops the run; the change that moved the code
# refreshes the patch. Prints killed/total per DESIGN section and exits
# non-zero unless every mutant is killed.
#
#   mutants/run.sh            # from anywhere inside the repository
set -u
cd "$(git rev-parse --show-toplevel)"

trim() { local s="$1"; s="${s#"${s%%[![:space:]]*}"}"; echo "${s%"${s##*[![:space:]]}"}"; }

declare -A killed total
survived=0
sections=()
log=$(mktemp)
trap 'rm -f "$log"' EXIT

while IFS='|' read -r patch section test cmd; do
    patch=$(trim "$patch")
    [[ -z "$patch" || "$patch" == \#* ]] && continue
    section=$(trim "$section")
    test=$(trim "$test")
    cmd=$(trim "$cmd")
    [[ -v "total[$section]" ]] || { sections+=("$section"); total[$section]=0; killed[$section]=0; }
    total[$section]=$((total[$section] + 1))

    if ! git apply "mutants/$patch"; then
        echo "mutants: $patch no longer applies" >&2
        exit 1
    fi
    bash -c "$cmd" >"$log" 2>&1
    status=$?
    if ! git apply -R "mutants/$patch"; then
        echo "mutants: $patch does not revert; the tree is left mutated" >&2
        exit 1
    fi
    if [[ $status -ne 0 ]] && grep -Eq "^---- ([A-Za-z0-9_]+::)*${test} stdout ----$" "$log"; then
        killed[$section]=$((killed[$section] + 1))
        echo "killed    $patch ($test)"
    else
        survived=$((survived + 1))
        echo "SURVIVED  $patch: $test did not fail (exit $status)"
        tail -n 20 "$log"
    fi
done < mutants/manifest

for section in "${sections[@]}"; do
    echo "DESIGN §$section: ${killed[$section]}/${total[$section]} killed"
done
[[ $survived -eq 0 ]]
