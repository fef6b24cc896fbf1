package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Metric is one reported number: by name, with its unit, the value (a median
// over repetitions, or the named percentile of a latency sample), the
// quartiles beside it and the number of samples under it.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// Note qualifies the value, e.g. "unresolved (1 CPU)".
	Note string `json:"note,omitempty"`
}

// Check is one correctness check; a failed check fails the run.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is one workload's run.
type Result struct {
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// EndToEnd holds the metrics BENCHMARK.json declares end to end, all of
	// them on every workload.  Extra holds the workload's own end-to-end
	// numbers that other workloads cannot define (recovery time, log bytes
	// per user byte, the rate sweep).
	EndToEnd []Metric `json:"end_to_end,omitempty"`
	Extra    []Metric `json:"extra,omitempty"`
	// PerLayer holds the declared per-layer metrics (traced runs only).
	PerLayer []Metric      `json:"per_layer,omitempty"`
	Loops    []*loopResult `json:"loops,omitempty"`
	Checks   []Check       `json:"checks"`
	// Attempted counts operations (rows read and queries sent); Failed
	// counts those that went wrong: rows lost to conservation, queries
	// that errored, were shed, or disagreed with the oracle.  Rows the
	// loader correctly rejected from corrupted input are not failures.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Correct   bool  `json:"correct"`
	// TableCounts is the per-table row count of the loaded database, equal
	// across repetitions and, for one seed, across the ingest workloads.
	TableCounts string `json:"table_counts,omitempty"`
	SpanFile    string `json:"span_file,omitempty"`
	// Samples holds the raw repetitions and windows behind the medians, so
	// that a reader can judge an estimator without a rerun.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

func (r *Result) sample(name string, values []float64) {
	if r.Samples == nil {
		r.Samples = map[string][]float64{}
	}
	r.Samples[name] = values
}

func newMetric(name, unit string, d Dist) Metric {
	return Metric{Name: name, Unit: unit, Value: d.Value, Q1: d.Q1, Q3: d.Q3, N: d.N}
}

func (r *Result) e2e(name, unit string, d Dist) {
	r.EndToEnd = append(r.EndToEnd, newMetric(name, unit, d))
}

func (r *Result) extra(name, unit string, d Dist) {
	r.Extra = append(r.Extra, newMetric(name, unit, d))
}

// check records a correctness check from an error (nil passes).
func (r *Result) check(name string, err error) {
	c := Check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

// checkSet gathers checks that repeat (once per repetition or per phase): a
// check is listed once, with the first failure it saw.
type checkSet struct {
	names []string
	errs  map[string]error
}

func (c *checkSet) note(name string, err error) {
	if c.errs == nil {
		c.errs = map[string]error{}
	}
	if _, seen := c.errs[name]; !seen {
		c.names = append(c.names, name)
		c.errs[name] = nil
	}
	if err != nil && c.errs[name] == nil {
		c.errs[name] = err
	}
}

// flush moves the gathered checks into the result.
func (c *checkSet) flush(r *Result) {
	for _, name := range c.names {
		r.check(name, c.errs[name])
	}
	c.names, c.errs = nil, nil
}

// finish derives Correct: every check passed, nothing failed, and every
// declared metric is a finite number.
func (r *Result) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
	for _, m := range append(append([]Metric(nil), r.EndToEnd...), r.PerLayer...) {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check("metric "+m.Name+" is a number", fmt.Errorf("got %v", m.Value))
			r.Correct = false
		}
	}
}

// Host is the shape of the machine and build a result came from.
type Host struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Loaders    int    `json:"loaders"`
	Clients    int    `json:"client_connections"`
	WorkDir    string `json:"work_dir"`
	WorkDirFS  string `json:"work_dir_fs"`
	// Warnings lists what makes this host's numbers less than they seem.
	Warnings []string `json:"warnings,omitempty"`
}

// RunFile is what one invocation writes.
type RunFile struct {
	Host    Host     `json:"host"`
	Seed    int64    `json:"seed"`
	Quick   bool     `json:"quick"`
	Results []Result `json:"results"`
}

func (f *RunFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRunFile(path string) (*RunFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f RunFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// print renders one workload's result for a reader.
func (r *Result) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s (seed %d, %.0f s%s) ==\n   %s\n", r.Workload, r.Seed, r.Seconds, map[bool]string{true: ", traced"}[r.Traced], r.Why)
	// spread says whether the metrics have quartiles worth printing.
	table := func(title string, ms []Metric, spread bool) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s\n", title)
		for _, m := range ms {
			switch {
			case m.Note != "":
				fmt.Fprintf(w, "    %-44s %14s %-8s %s\n", m.Name, "-", m.Unit, m.Note)
			case spread:
				fmt.Fprintf(w, "    %-44s %14.6g %-8s q1 %-12.6g q3 %-12.6g n %d\n", m.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
			default:
				fmt.Fprintf(w, "    %-44s %14.6g %s\n", m.Name, m.Value, m.Unit)
			}
		}
	}
	table("end to end", r.EndToEnd, true)
	table("this workload's own", r.Extra, true)
	table("per layer (one traced replay; 0 where the workload does not reach the layer)", r.PerLayer, false)
	for _, l := range r.Loops {
		fmt.Fprintf(w, "  loop %-6s clients %d rate %.0f qps seed %d: %d sent in %.2f s, %d failed, %d oracle mismatches",
			l.Kind, l.Clients, l.RateQPS, l.Seed, l.Sent, l.Seconds, l.Failed, l.Mismatch)
		if l.Kind == "open" {
			fmt.Fprintf(w, ", generator late p99 %.3f ms max %.3f ms end %.3f ms", l.LateP99Ms, l.LateMaxMs, l.LateEndMs)
		}
		fmt.Fprintln(w)
	}
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	if r.SpanFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.SpanFile)
	}
}

// contractLine is the last line of standard output in single-workload mode:
// the declared end-to-end metrics of an untraced run, the declared per-layer
// metrics of a traced one.
func (r *Result) contractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := r.EndToEnd
	if r.Traced {
		ms = r.PerLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(out)
}
