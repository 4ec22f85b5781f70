package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareMain prints one row per (metric, workload) of two run files:
// both values, their ratio with its base, the bound and a verdict. It
// refuses runs that were not made like with like. Exit status 1 means
// some row is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ncload compare A.json B.json   (A is the base)")
		return 2
	}
	var a, b runFile
	for i, f := range []*runFile{&a, &b} {
		data, err := os.ReadFile(args[i])
		if err == nil {
			err = json.Unmarshal(data, f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ncload compare: %s: %v\n", args[i], err)
			return 2
		}
	}
	if why := incomparable(a.Fingerprint, b.Fingerprint); why != "" {
		fmt.Fprintln(os.Stderr, "ncload compare: refusing to compare:", why)
		return 2
	}
	fmt.Printf("base %s (commit %s, seed %d)  vs  %s (commit %s, seed %d)\n",
		args[0], a.Fingerprint.Commit, a.Fingerprint.Seed, args[1], b.Fingerprint.Commit, b.Fingerprint.Seed)
	fmt.Printf("%-16s %-20s %14s %14s %18s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	worse := 0
	for _, ra := range a.Workloads {
		var rb *workloadResult
		for _, r := range b.Workloads {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			continue
		}
		for _, m := range endToEnd {
			ma, mb := ra.EndToEnd[m.name], rb.EndToEnd[m.name]
			v := verdict(ma, mb, m.better == "higher", m.bound)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-16s %-20s %14.4f %14.4f %9.3f of %-6.4g %6.2f  %s\n",
				ra.Workload, m.name, ma.Value, mb.Value, mb.Value/ma.Value, ma.Value, m.bound, v)
		}
		// fail_ratio has no tolerance: it may not rise.
		fa := float64(ra.Failed) / float64(max(1, ra.Attempted))
		fb := float64(rb.Failed) / float64(max(1, rb.Attempted))
		v := "same"
		if fb > fa {
			v = "worse"
			worse++
		} else if fb < fa {
			v = "better"
		}
		fmt.Printf("%-16s %-20s %14.6f %14.6f %18s %6.2f  %s\n", ra.Workload, "fail_ratio", fa, fb, "", 0.0, v)
	}
	if worse > 0 {
		return 1
	}
	return 0
}

// incomparable names the first fingerprint difference that makes two
// runs incomparable, or returns "".
func incomparable(a, b fingerprint) string {
	switch {
	case a.Quick || b.Quick:
		return "a -quick run is a smoke test, not a measurement"
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("CPU model differs: %q vs %q", a.CPUModel, b.CPUModel)
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("nproc differs: %d vs %d", a.NumCPU, b.NumCPU)
	case a.Seconds != b.Seconds:
		return fmt.Sprintf("window length differs: %ds vs %ds", a.Seconds, b.Seconds)
	}
	return ""
}

// verdict classes the move from a to b. A change within the bound is
// "same"; beyond it "better" or "worse" — unless either run's own
// within-run spread is wider than the bound, in which case the metric
// cannot resolve a change of that size and the row says so.
func verdict(a, b metric, higherIsBetter bool, bound float64) string {
	if a.Value == 0 {
		return "unresolved"
	}
	change := (b.Value - a.Value) / a.Value
	if higherIsBetter {
		change = -change
	}
	if change <= bound && change >= -bound {
		return "same"
	}
	for _, m := range []metric{a, b} {
		if m.Value != 0 && (m.Max-m.Min)/m.Value > bound && (m.Min != 0 || m.Max != 0) {
			return "unresolved"
		}
	}
	if change > bound {
		return "worse"
	}
	return "better"
}
