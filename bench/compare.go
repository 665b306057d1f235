package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// minPairs is the fewest parent/change run pairs a comparison accepts.
const minPairs = 10

// verdict classifies one metric × workload of a comparison by the
// choosing-metrics rule. parent and change hold the runs in the order
// they were made, run i of each forming a pair, with the two sides
// alternating which ran first.
//
//   - improved: the change wins at least nine tenths of the pairs and
//     the medians differ by more than the parent's interquartile range;
//   - unresolved: the parent's own spread is wider than the bound, and
//     not every change run reads better than every parent run (or there
//     are fewer than ten pairs);
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - within bound: anything else.
//
// It also returns how many pairs the change won, ties counting for
// neither side.
func verdict(d metricDef, parent, change []float64) (string, int) {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if n < minPairs {
		return "unresolved", wins
	}
	p1, pm, p3 := quartiles(append([]float64(nil), parent...))
	cm := median(append([]float64(nil), change...))
	if 10*wins >= 9*n && better(cm, pm) && math.Abs(cm-pm) > p3-p1 {
		return "improved", wins
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case (p3-p1)/math.Abs(pm) > d.Bound && !allBetter:
		return "unresolved", wins
	case better(pm, cm) && math.Abs(cm-pm) > d.Bound*math.Abs(pm):
		return "regressed", wins
	}
	return "within bound", wins
}

// compareMain prints one row per end-to-end metric × workload of two
// -out files, parent first. It exits 1 when any row regressed.
func compareMain(w io.Writer, files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare needs two files: parent.jsonl change.jsonl")
		return 2
	}
	var sides [2]map[string][]result
	for i, f := range files {
		var err error
		if sides[i], err = readRecords(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-16s %5s  %-30s %-30s %6s  %s\n", "workload", "metric", "pairs",
		"parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range workloads {
		parent, change := sides[0][wl.name], sides[1][wl.name]
		if len(parent) == 0 && len(change) == 0 {
			continue
		}
		for _, d := range endToEnd {
			pv, cv := values(parent, d.Name), values(change, d.Name)
			v, wins := verdict(d, pv, cv)
			if v == "regressed" {
				code = 1
			}
			n := min(len(pv), len(cv))
			fmt.Fprintf(w, "%-13s %-16s %5d  %-30s %-30s %3d/%-2d  %s\n", wl.name, d.Name, n,
				spread(pv), spread(cv), wins, n, v)
		}
	}
	return code
}

func spread(xs []float64) string {
	if len(xs) < 2 {
		return "-"
	}
	q1, q2, q3 := quartiles(append([]float64(nil), xs...))
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// readRecords reads an -out file's untraced, correct runs by workload,
// in file order.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace == 0 && rec.Result.Correct {
			out[rec.Workload] = append(out[rec.Workload], rec.Result)
		}
	}
	return out, sc.Err()
}
