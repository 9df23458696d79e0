#!/usr/bin/env bash
# sim-golden.sh REF — check that the simulators' outputs from the working
# tree are byte-identical to those from git revision REF.
#
# The recipe: aicbench -experiment all at seeds 42 and 1 (text and csv),
# deltabench -experiment all, every aicsim policy × compressor with -trace,
# and every example. The only fields masked before the diff are the ones
# that measure this machine: aicbench's "[… finished in …]" lines and the
# block-size ablation's encode MB/s column.
#
# REF is exported with git archive into a temporary directory, so the check
# leaves nothing behind. Exits 1 on any difference, printing the diff.
#
#   bash ci/sim-golden.sh HEAD~1      (or: make sim-golden REF=HEAD~1)
set -euo pipefail

ref=${1:?usage: ci/sim-golden.sh REF}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/src"
git -C "$root" archive "$ref" | tar -x -C "$tmp/src"

# mask blanks the machine-dependent fields of one output.
mask() {
	awk '
		/ finished in / { sub(/ finished in .*/, " finished in *]"); print; next }
		/delta codec block size/ { bs = 1; print; next }
		bs && /^ *[0-9]+ +[0-9.]+ +[-+0-9.eInf]+$/ { sub(/ +[^ ]+$/, " *"); print; next }
		/^$/ { bs = 0 }
		{ print }
	'
}

# recipe SRC OUT runs the whole recipe on the tree at SRC, one masked file
# per command under OUT.
recipe() {
	local src=$1 out=$2
	mkdir -p "$out/bin"
	(cd "$src" && go build -o "$out/bin/" ./cmd/aicbench ./cmd/deltabench ./cmd/aicsim)
	for seed in 42 1; do
		"$out/bin/aicbench" -experiment all -seed "$seed" | mask >"$out/aicbench-$seed.txt"
		"$out/bin/aicbench" -experiment all -seed "$seed" -format csv | mask >"$out/aicbench-$seed.csv"
	done
	"$out/bin/deltabench" -experiment all | mask >"$out/deltabench.txt"
	for policy in aic sic moody; do
		for comp in pa xdelta3 xor; do
			"$out/bin/aicsim" -policy "$policy" -compressor "$comp" -trace | mask >"$out/aicsim-$policy-$comp.txt"
		done
	done
	for dir in "$src"/examples/*/; do
		name=$(basename "$dir")
		(cd "$src" && go run "./examples/$name") | mask >"$out/example-$name.txt"
	done
	rm -r "$out/bin"
}

echo "sim-golden: running the recipe at $ref" >&2
recipe "$tmp/src" "$tmp/ref"
echo "sim-golden: running the recipe on the working tree" >&2
recipe "$root" "$tmp/work"

if diff -r "$tmp/ref" "$tmp/work"; then
	echo "sim-golden: $(ls "$tmp/work" | wc -l) outputs byte-identical to $ref" >&2
else
	echo "sim-golden: outputs differ from $ref" >&2
	exit 1
fi
