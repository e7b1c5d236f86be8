package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// noisySteal is the stolen-CPU share, in percent, above which a run's
// timings say more about the host than about the code.
const noisySteal = 5

// compareMain prints, for two full records of the same workload, every
// metric side by side with its ratio, and flags a comparison across hosts:
// such a comparison measures the hosts as much as the code.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", p, err)
			return 1
		}
	}
	for _, line := range compareRecords(recs[0], recs[1]) {
		fmt.Fprintln(stdout, line)
	}
	return 0
}

// compareRecords renders the comparison; its first line says whether the
// hosts match.
func compareRecords(old, cur record) []string {
	var out []string
	if sameHost(old.Host, cur.Host) {
		out = append(out, "host: same")
	} else {
		out = append(out, fmt.Sprintf("CROSS-HOST: %+v vs %+v; differences below are not attributable to the code", old.Host, cur.Host))
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		out = append(out, fmt.Sprintf("MISMATCH: %s trace=%t vs %s trace=%t", old.Workload, old.Trace, cur.Workload, cur.Trace))
	}
	if old.StealPct > noisySteal || cur.StealPct > noisySteal {
		out = append(out, fmt.Sprintf("NOISY HOST: %.1f%% and %.1f%% of CPU time stolen during the phases; timings are inflated by the host", old.StealPct, cur.StealPct))
	}
	if old.InputDigest != cur.InputDigest {
		out = append(out, fmt.Sprintf("inputs differ: %s vs %s", old.InputDigest, cur.InputDigest))
	}
	var names []string
	for k := range cur.Metrics {
		if _, ok := old.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		a, b := old.Metrics[k].Value, cur.Metrics[k].Value
		out = append(out, fmt.Sprintf("%-36s %14.4f %14.4f  ×%.3f %s", k, a, b, ratio(b, a), cur.Metrics[k].Unit))
	}
	return out
}
