package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readManifest loads BENCHMARK.json from path, or from the nearest directory
// at or above the working directory that has one.
func readManifest(path string) (*manifest, error) {
	if path == "" {
		dir, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		for {
			path = filepath.Join(dir, "BENCHMARK.json")
			if _, err := os.Stat(path); err == nil {
				break
			}
			if parent := filepath.Dir(dir); parent != dir {
				dir = parent
				continue
			}
			return nil, fmt.Errorf("no BENCHMARK.json at or above the working directory; name it with -benchmark")
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// side is one side of a comparison: one result file, or several invocations
// of the same code given as a comma-separated list.
type side struct {
	runs []*RunFile
}

func readSide(list string) (side, error) {
	var s side
	for _, path := range strings.Split(list, ",") {
		f, err := readRunFile(path)
		if err != nil {
			return s, err
		}
		s.runs = append(s.runs, f)
	}
	return s, nil
}

// metric returns the side's value of a workload's end-to-end metric.  With
// one invocation it is that run's median and quartiles; with several it is
// the median and quartiles of the invocations' medians.
func (s side) metric(workload, name string) (Dist, bool) {
	var found []Metric
	for _, f := range s.runs {
		for _, r := range f.Results {
			if r.Workload != workload || r.Traced {
				continue
			}
			for _, m := range r.EndToEnd {
				if m.Name == name {
					found = append(found, m)
				}
			}
		}
	}
	switch len(found) {
	case 0:
		return Dist{}, false
	case 1:
		m := found[0]
		return Dist{Value: m.Value, Q1: m.Q1, Q3: m.Q3, N: m.N}, true
	}
	values := make([]float64, len(found))
	for i, m := range found {
		values[i] = m.Value
	}
	return summarize(values), true
}

// failedRatio is failed over attempted operations of a workload, summed over
// the side's invocations.
func (s side) failedRatio(workload string) float64 {
	var attempted, failed int64
	for _, f := range s.runs {
		for _, r := range f.Results {
			if r.Workload == workload && !r.Traced {
				attempted += r.Attempted
				failed += r.Failed
			}
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles applies BENCHMARK.json's bounds to two sides, one row per
// workload and end-to-end metric, and reports whether any row is worse.
//
//	better / worse   b's median differs from a's by more than the bound
//	same             it does not
//	unresolved       either side's quartile range is wider than the bound,
//	                 so a shift of the bound's size could not be seen
func compareFiles(w io.Writer, manifestPath, a, b string) (worse bool, err error) {
	m, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	sa, err := readSide(a)
	if err != nil {
		return false, err
	}
	sb, err := readSide(b)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-15s %-24s %-6s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "unit", "a", "a quartiles", "b", "b quartiles", "change", "bound", "verdict")
	for _, wl := range m.Workloads {
		for _, e := range m.EndToEnd {
			da, okA := sa.metric(wl.Name, e.Name)
			db, okB := sb.metric(wl.Name, e.Name)
			if !okA || !okB {
				continue
			}
			// Positive change is a worsening, whichever way the metric runs.
			change := (db.Value - da.Value) / da.Value
			if e.Better == "higher" {
				change = -change
			}
			verdict := "same"
			switch {
			case (da.Q3-da.Q1)/da.Value > e.Bound || (db.Q3-db.Q1)/db.Value > e.Bound:
				verdict = "unresolved"
			case change > e.Bound:
				verdict = "worse"
				worse = true
			case change < -e.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-15s %-24s %-6s %12.6g %25s %12.6g %25s %+7.1f%% %5.0f%%  %s\n",
				wl.Name, e.Name, e.Unit, da.Value, quartiles(da), db.Value, quartiles(db), 100*change, 100*e.Bound, verdict)
		}
		if fa, fb := sa.failedRatio(wl.Name), sb.failedRatio(wl.Name); fb > fa {
			fmt.Fprintf(w, "%-15s %-24s %-6s %12.6g %25s %12.6g %25s %8s %6s  worse\n", wl.Name, "failed_ratio", "ratio", fa, "", fb, "", "", "")
			worse = true
		}
	}
	return worse, nil
}

func quartiles(d Dist) string { return fmt.Sprintf("[%.6g, %.6g]", d.Q1, d.Q3) }
