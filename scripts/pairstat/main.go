// Command pairstat summarises alternating parent/change benchmark pairs: for
// every end-to-end metric BENCHMARK.json declares it reports both sides'
// medians and quartiles, how many of the n pairs the change won (k, in the
// metric's better direction; a tie is no one's win), the exact two-sided
// sign-test p over the untied pairs, and a verdict.  scripts/pairs.sh runs
// the pairs and calls it.
//
//	pairstat -benchmark BENCHMARK.json -workload W -out pairs.json \
//		parent1.json change1.json parent2.json change2.json ...
//
// Each file holds the one-line JSON result `bench/run.sh --workload W` ends
// with.  Beside a file X.json, X.cpu holds the user and system CPU seconds
// bash's `time` measured around that run and X.full.json the run's full
// result file; when both are there, the run also reports cpu_s_per_row and
// cpu_s_per_query: user+sys seconds of the whole run over the rows it read
// and over the queries it sent.  A difference is resolved when, over at least ten pairs, one side
// wins nine tenths of them and the medians lie further apart than the
// parent's quartiles do (q3 - q1), or when every run of one side reads better
// than every run of the other; otherwise it is unresolved, which is not the
// same as unchanged.  The JSON goes to -out and a Markdown
// table to standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// result is the part of a run's one-line JSON result pairstat reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
}

// cpuMetrics are the metrics pairstat derives from a run's CPU time.
var cpuMetrics = []metricDecl{
	{Name: "cpu_s_per_row", Unit: "s", Better: "lower"},
	{Name: "cpu_s_per_query", Unit: "s", Better: "lower"},
}

// metricDecl is one end-to-end metric of BENCHMARK.json.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// spread is one side's values of a metric: median and quartiles.
type spread struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// summary is one metric's comparison over the pairs.
type summary struct {
	Metric  string  `json:"metric"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Parent  spread  `json:"parent"`
	Change  spread  `json:"change"`
	Delta   float64 `json:"median_delta_rel"`
	K       int     `json:"k"`
	N       int     `json:"n"`
	Ties    int     `json:"ties"`
	P       float64 `json:"p"`
	Verdict string  `json:"verdict"`
}

// report is the JSON file one invocation writes.
type report struct {
	Workload string    `json:"workload"`
	Pairs    int       `json:"pairs"`
	Failed   [2]int64  `json:"failed"`
	Correct  bool      `json:"correct"`
	Metrics  []summary `json:"metrics"`
}

func main() {
	manifest := flag.String("benchmark", "BENCHMARK.json", "the benchmark manifest")
	workload := flag.String("workload", "", "workload the runs measured")
	out := flag.String("out", "", "JSON report to write")
	flag.Parse()
	if err := run(*manifest, *workload, *out, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pairstat:", err)
		os.Exit(1)
	}
}

func run(manifest, workload, out string, files []string, w io.Writer) error {
	if len(files) == 0 || len(files)%2 != 0 {
		return fmt.Errorf("want parent and change result files in pairs, got %d files", len(files))
	}
	var decl struct {
		EndToEnd []metricDecl `json:"end_to_end"`
	}
	if err := readJSON(manifest, &decl); err != nil {
		return err
	}
	var parents, changes []result
	for i, f := range files {
		var r result
		if err := readJSON(f, &r); err != nil {
			return err
		}
		if err := addCPU(&r, strings.TrimSuffix(f, ".json")); err != nil {
			return err
		}
		if i%2 == 0 {
			parents = append(parents, r)
		} else {
			changes = append(changes, r)
		}
	}
	rep := summarise(workload, append(decl.EndToEnd, cpuMetrics...), parents, changes)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if out != "" {
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	printTable(w, rep)
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// addCPU adds the CPU metrics to r, the run whose files start with base, when
// base.cpu ("user sys", as bash's `time` prints them with TIMEFORMAT='%U %S')
// and base.full.json are there.  The run's attempted operations are the rows
// it read and the queries its loops sent.
func addCPU(r *result, base string) error {
	times, err := os.ReadFile(base + ".cpu")
	if errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	var user, sys float64
	if _, err := fmt.Sscan(string(times), &user, &sys); err != nil {
		return fmt.Errorf("%s.cpu: %w", base, err)
	}
	var full struct {
		Results []struct {
			Loops []struct {
				Sent int64 `json:"sent"`
			} `json:"loops"`
		} `json:"results"`
	}
	if err := readJSON(base+".full.json", &full); err != nil {
		return err
	}
	var queries int64
	for _, res := range full.Results {
		for _, l := range res.Loops {
			queries += l.Sent
		}
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metricValue{}
	}
	if rows := r.Attempted - queries; rows > 0 {
		r.Metrics["cpu_s_per_row"] = metricValue{(user + sys) / float64(rows)}
	}
	if queries > 0 {
		r.Metrics["cpu_s_per_query"] = metricValue{(user + sys) / float64(queries)}
	}
	return nil
}

// summarise compares the two sides metric by metric; parents[i] and
// changes[i] are one pair.
func summarise(workload string, decls []metricDecl, parents, changes []result) report {
	rep := report{Workload: workload, Pairs: len(parents), Correct: true}
	for i := range parents {
		rep.Failed[0] += parents[i].Failed
		rep.Failed[1] += changes[i].Failed
		rep.Correct = rep.Correct && parents[i].Correct && changes[i].Correct
	}
	for _, d := range decls {
		s := summary{Metric: d.Name, Unit: d.Unit, Better: d.Better}
		var pv, cv []float64
		for i := range parents {
			p, pok := parents[i].Metrics[d.Name]
			c, cok := changes[i].Metrics[d.Name]
			if !pok || !cok {
				continue
			}
			pv, cv = append(pv, p.Value), append(cv, c.Value)
			switch s.N++; {
			case p.Value == c.Value:
				s.Ties++
			case (c.Value < p.Value) == (d.Better == "lower"):
				s.K++
			}
		}
		if len(pv) == 0 {
			continue
		}
		s.Parent, s.Change = spreadOf(pv), spreadOf(cv)
		if s.Parent.Median != 0 {
			s.Delta = (s.Change.Median - s.Parent.Median) / s.Parent.Median
		}
		s.P = signTestP(s.K, s.N-s.Ties)
		s.Verdict = "unresolved"
		oneSided := s.N >= 10 && (10*s.K >= 9*s.N || 10*(s.N-s.Ties-s.K) >= 9*s.N)
		apart := slices.Max(cv) < slices.Min(pv) || slices.Min(cv) > slices.Max(pv)
		if oneSided && math.Abs(s.Change.Median-s.Parent.Median) > s.Parent.Q3-s.Parent.Q1 || apart {
			s.Verdict = "resolved"
		}
		rep.Metrics = append(rep.Metrics, s)
	}
	return rep
}

// spreadOf returns the median and quartiles of vs, each by linear
// interpolation between the closest ranks.
func spreadOf(vs []float64) spread {
	s := slices.Clone(vs)
	slices.Sort(s)
	q := func(f float64) float64 {
		pos := f * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return spread{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), Values: vs}
}

// signTestP is the exact two-sided sign-test p of k wins in n untied pairs:
// twice the binomial(n, 1/2) tail at the rarer count, at most 1.  10 of 10 is
// 0.002, 9 of 10 is 0.021, 8 of 10 is 0.109.
func signTestP(k, n int) float64 {
	if n == 0 {
		return 1
	}
	tail, c := 0.0, 1.0 // c is n choose i
	for i := 0; i <= min(k, n-k); i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return math.Min(1, 2*tail/math.Pow(2, float64(n)))
}

// printTable writes the report as a Markdown table.
func printTable(w io.Writer, rep report) {
	fmt.Fprintf(w, "%s, %d pairs, failed %d/%d, correct %v\n\n", rep.Workload, rep.Pairs, rep.Failed[0], rep.Failed[1], rep.Correct)
	fmt.Fprintln(w, "| metric | parent median (q1–q3) | change median (q1–q3) | Δ median | change better | p | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, s := range rep.Metrics {
		fmt.Fprintf(w, "| %s | %s (%s–%s) | %s (%s–%s) | %+.1f %% | %d/%d | %.3f | %s |\n",
			s.Metric, num(s.Parent.Median), num(s.Parent.Q1), num(s.Parent.Q3), num(s.Change.Median), num(s.Change.Q1), num(s.Change.Q3),
			100*s.Delta, s.K, s.N, s.P, s.Verdict)
	}
}

// num formats a value to four significant digits, large ones whole.
func num(v float64) string {
	if math.Abs(v) >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}
