#!/usr/bin/env bash
# Compare the repository benchmark (BENCHMARK.json, bench/perf) between a
# base revision and the working tree, in alternating pairs of runs.
#
#   bash bin/bench_compare.sh --base REV [--pairs N] [--seed N]
#     [--workloads a,b,...] [--dir DIR]
#
# Run from the root of the repository. Each side is exported with
# `git archive` into its own directory under DIR (default: a fresh
# temporary directory): the base revision, and the head, a tree of the
# working tree's tracked and untracked files that git does not ignore,
# written to the object store through a temporary index (the repository's
# own index is not touched). Each side is built there, then every workload
# runs `bench/perf/run.sh --trace 0` in N pairs (default 10) of
# BENCHMARK.json's run_seconds each, alternating which side runs first.
#
# For each end-to-end metric of BENCHMARK.json it prints both medians,
# both interquartile ranges, the pairs the head won, ties, and a two-sided
# sign-test p over the pairs that were not ties, and writes all of it,
# with every run's values and failed-operation counts, to DIR/compare.json.
# The artifact names each side by its git tree id, so it identifies the
# measured tree even when the head is not committed.
# A metric is "unresolved" when either side's IQR, relative to its median,
# is wider than the metric's bound: the runs spread too widely to tell.
# Otherwise it is "worse" when the head's median is worse than the base's
# by more than the bound, "better" when the head won at least 9 pairs in
# 10 and its median beats the base's by more than the base's IQR, and
# "same" else. A metric that would be "better" is "refused" instead when
# the head failed a larger share of its operations, over all its runs of
# the workload, than the base.
#
# Exit status: 0 when every run passed its own checks, both sides agree
# on every v* metric (virtual time) and history digest, and the head
# failed no larger share of operations on any workload; 1 when not; 2 on
# a usage or build error.
set -euo pipefail

usage() {
  sed -n '5,6p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

base="" pairs=10 seed=1 workloads="" dir=""
while [ $# -gt 0 ]; do
  case $1 in
    --base) base=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --workloads) workloads=$2; shift 2 ;;
    --dir) dir=$2; shift 2 ;;
    *) usage ;;
  esac
done
[ -n "$base" ] || usage
if [[ ! -f BENCHMARK.json || ! -d .git ]]; then
  echo "bench_compare: run from the repository root" >&2
  exit 2
fi
case $pairs in '' | *[!0-9]* | 0) usage ;; esac

json() { python3 -c "import json,sys; $1" < BENCHMARK.json; }
seconds=$(json 'print(json.load(sys.stdin)["run_seconds"])')
[ -n "$workloads" ] ||
  workloads=$(json 'print(",".join(w["name"] for w in json.load(sys.stdin)["workloads"]))')
[ -n "$dir" ] || dir=$(mktemp -d "${TMPDIR:-/tmp}/bench-compare.XXXXXX")
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
repo=$(pwd)

# the working tree as a git tree: HEAD, then every change git does not ignore
index=$dir/head.index
rm -f "$index"
GIT_INDEX_FILE=$index git read-tree HEAD
GIT_INDEX_FILE=$index git add -A
head_tree=$(GIT_INDEX_FILE=$index git write-tree)
rm -f "$index"
base_commit=$(git rev-parse --verify --quiet "$base^{commit}") ||
  { echo "bench_compare: $base is not a commit" >&2; exit 2; }

# export a tree-ish into DIR/NAME and build it
export_side() {
  local rev=$1 dest=$dir/$2
  rm -rf "$dest"
  mkdir -p "$dest"
  git archive "$rev" | tar -xf - -C "$dest"
  echo "bench_compare: building $2 ($rev) in $dest" >&2
  (cd "$dest" && DUNE_CACHE=disabled dune build --root . --display quiet ./bench/perf/bftbench.exe) ||
    { echo "bench_compare: $2 does not build" >&2; exit 2; }
}
export_side "$base_commit" base
export_side "$head_tree" head

runs=$dir/runs
rm -rf "$runs"
mkdir -p "$runs"
IFS=, read -r -a wls <<< "$workloads"
for w in "${wls[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order="base head"; else order="head base"; fi
    for side in $order; do
      f=$runs/$w.$i.$side
      echo "bench_compare: $w pair $((i + 1))/$pairs $side" >&2
      if (cd "$dir/$side" && bash bench/perf/run.sh --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace 0) > "$f.out" 2> "$f.err"; then
        echo 0 > "$f.status"
      else
        echo $? > "$f.status"
      fi
    done
  done
done

python3 - "$repo/BENCHMARK.json" "$dir" "$pairs" "$seed" "$seconds" "$base" "$base_commit" \
  "$(git rev-parse "$base_commit^{tree}")" "$(git rev-parse HEAD)" "$head_tree" \
  "$(git rev-parse HEAD^{tree})" "${wls[@]}" <<'EOF'
import json, math, os, re, sys

(bench_file, d, pairs, seed, seconds, base_rev, base_commit, base_tree, head_parent,
 head_tree, parent_tree) = sys.argv[1:12]
workloads = sys.argv[12:]
out = os.path.join(d, "compare.json")
pairs = int(pairs)
spec = json.load(open(bench_file))
metrics = spec["end_to_end"]


def quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def sign_p(wins, losses):
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2**n
    return min(1.0, 2 * tail)


def load(w, i, side):
    f = os.path.join(d, "runs", f"{w}.{i}.{side}")
    status = int(open(f + ".status").read().strip() or 1)
    lines = open(f + ".out").read().splitlines()
    digests = sorted(set(re.findall(r"digest ([0-9a-f]{64})", "\n".join(lines))))
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        res = None
    ok = status == 0 and res is not None and res.get("correct") is True
    vals = {k: v["value"] for k, v in (res or {}).get("metrics", {}).items()}
    return {"ok": ok, "status": status, "attempted": (res or {}).get("attempted"),
            "failed": (res or {}).get("failed"), "digests": digests, "metrics": vals}


# the head is the working tree: its tree id, and the commit it was made on
report = {"base": {"rev": base_rev, "commit": base_commit, "tree": base_tree},
          "head": {"parent": head_parent, "tree": head_tree,
                   "uncommitted_changes": head_tree != parent_tree},
          "seed": int(seed), "seconds": float(seconds), "pairs": pairs, "workloads": {}}
problems = []
for w in workloads:
    runs = [{s: load(w, i, s) for s in ("base", "head")} for i in range(pairs)]
    wr = {"failed_runs": [], "metrics": {}}
    for i, p in enumerate(runs):
        for s in ("base", "head"):
            if not p[s]["ok"]:
                wr["failed_runs"].append(f"pair {i + 1} {s} (exit {p[s]['status']})")
    digests = {s: sorted({x for p in runs for x in p[s]["digests"]}) for s in ("base", "head")}
    wr["digests"] = digests
    wr["digests_equal"] = digests["base"] == digests["head"] and len(digests["base"]) == 1
    # operations attempted and failed, per run and over all runs
    ops = {s: {k: [p[s][k] for p in runs] for k in ("attempted", "failed")}
           for s in ("base", "head")}
    for s in ops:
        ops[s]["attempted_total"] = sum(x or 0 for x in ops[s]["attempted"])
        ops[s]["failed_total"] = sum(x or 0 for x in ops[s]["failed"])
    wr["ops"] = ops
    # head's failed share above base's, cross-multiplied
    more_failed = (ops["head"]["failed_total"] * ops["base"]["attempted_total"]
                   > ops["base"]["failed_total"] * ops["head"]["attempted_total"])
    print(f"== {w} (seed {seed}, {pairs} pairs of {seconds} s)")
    print(f"  {'metric':<20} {'base median':>13} {'head median':>13} {'base IQR':>10} "
          f"{'head IQR':>10} {'won':>6} {'p':>7}  verdict")
    v_equal = True
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        xs = {s: [p[s]["metrics"][name] for p in runs if name in p[s]["metrics"]]
              for s in ("base", "head")}
        if len(xs["base"]) < pairs or len(xs["head"]) < pairs:
            wr["metrics"][name] = {"verdict": "missing"}
            print(f"  {name:<20} missing from some runs")
            continue
        med = {s: quantile(xs[s], 0.5) for s in xs}
        iqr = {s: quantile(xs[s], 0.75) - quantile(xs[s], 0.25) for s in xs}
        won = lost = 0
        for b, h in zip(xs["base"], xs["head"]):
            if h != b:
                if (h < b) == lower:
                    won += 1
                else:
                    lost += 1
        p = sign_p(won, lost)
        rel = lambda s: iqr[s] / abs(med[s]) if med[s] else (0.0 if iqr[s] == 0 else math.inf)
        gain = (med["base"] - med["head"]) if lower else (med["head"] - med["base"])
        if name.startswith("v"):
            same = len(set(xs["base"] + xs["head"])) == 1
            v_equal = v_equal and same
            verdict = "identical" if same else "DIFFERS"
        elif rel("base") > bound or rel("head") > bound:
            verdict = "unresolved"
        elif -gain > bound * abs(med["base"]):
            verdict = "worse"
        elif won >= math.ceil(0.9 * pairs) and gain > iqr["base"]:
            verdict = "refused" if more_failed else "better"
        else:
            verdict = "same"
        wr["metrics"][name] = {
            "better": m["better"], "bound": bound, "base": xs["base"], "head": xs["head"],
            "base_median": med["base"], "head_median": med["head"],
            "base_iqr": iqr["base"], "head_iqr": iqr["head"],
            "head_won": won, "ties": pairs - won - lost, "sign_p": p, "verdict": verdict}
        print(f"  {name:<20} {med['base']:>13.6g} {med['head']:>13.6g} {iqr['base']:>10.4g} "
              f"{iqr['head']:>10.4g} {won:>3}/{pairs:<2} {p:>7.4f}  {verdict}")
    wr["v_metrics_equal"] = v_equal
    print(f"  history digests: {'identical' if wr['digests_equal'] else 'DIFFER'}"
          f" {digests['base']} / {digests['head']}")
    if wr["failed_runs"]:
        print(f"  failed runs: {', '.join(wr['failed_runs'])}")
        problems.append(f"{w}: failed runs")
    if not v_equal:
        problems.append(f"{w}: a v* metric differs")
    if not wr["digests_equal"]:
        problems.append(f"{w}: history digests differ")
    print(f"  failed ops: base {ops['base']['failed_total']}/{ops['base']['attempted_total']},"
          f" head {ops['head']['failed_total']}/{ops['head']['attempted_total']}")
    if more_failed:
        problems.append(f"{w}: the head failed a larger share of operations")
    report["workloads"][w] = wr
report["ok"] = not problems
report["problems"] = problems
with open(out, "w") as f:
    json.dump(report, f, indent=1)
print(f"artifact: {out}")
for p in problems:
    print(f"bench_compare: {p}", file=sys.stderr)
sys.exit(1 if problems else 0)
EOF
