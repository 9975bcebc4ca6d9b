package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, per workload x end-to-end metric, both sides' medians,
// the relative difference (positive = b is worse), the bound and a verdict:
//
//	ok          b is no worse than a by more than the bound
//	worse       b is worse than a by more than the bound
//	unresolved  a side's own run-to-run spread (IQR / median) exceeds the
//	            bound, so the files cannot settle the question
//
// Each file is a list of results as written by -json; several runs of one
// workload in a file give that side its median and spread. It reports whether
// any metric came out worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadEndToEnd(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadEndToEnd(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-12s %-22s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "spread", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEndDefs {
			va, vb := a[wl.name][d.name], b[wl.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue // the class does not occur in this workload
			}
			ma, mb := median(va), median(vb)
			diff := ratio(mb-ma, ma)
			if d.better == "higher" {
				diff = -diff
			}
			if ma == 0 && mb > 0 && d.better == "lower" {
				diff = 1 // any increase from zero is a full regression
			}
			spread := max(spreadOf(va), spreadOf(vb))
			verdict := "ok"
			switch {
			case spread > d.bound && d.bound > 0:
				verdict = "unresolved"
			case diff > d.bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(w, "%-12s %-22s %14.4f %14.4f %+8.1f%% %6.1f%% %7.1f%%  %s\n",
				wl.name, d.name, ma, mb, 100*diff, 100*d.bound, 100*spread, verdict)
		}
	}
	return anyWorse, nil
}

// spreadOf is the interquartile range as a share of the median.
func spreadOf(v []float64) float64 {
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

// loadEndToEnd reads a result file into workload -> metric -> values, one
// value per untraced run.
func loadEndToEnd(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, r := range rs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}
