package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSignTestP pins the exact two-sided p at the counts the claim rules
// quote, and its symmetry.
func TestSignTestP(t *testing.T) {
	for _, c := range []struct {
		k, n int
		want float64
	}{
		{10, 10, 0.001953}, {9, 10, 0.021484}, {8, 10, 0.109375}, {5, 10, 1},
		{0, 10, 0.001953}, {1, 1, 1}, {0, 0, 1}, {17, 20, 0.002577},
	} {
		if got := signTestP(c.k, c.n); math.Abs(got-c.want) > 5e-6 {
			t.Errorf("signTestP(%d, %d) = %.6f, want %.6f", c.k, c.n, got, c.want)
		}
	}
}

// TestSpreadOf: medians and quartiles interpolate between ranks.
func TestSpreadOf(t *testing.T) {
	s := spreadOf([]float64{4, 1, 3, 2})
	if s.Median != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 {
		t.Fatalf("spread of 1..4 = %+v", s)
	}
	if s := spreadOf([]float64{7}); s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 {
		t.Fatalf("spread of one value = %+v", s)
	}
}

// TestRunResolvesOnlyAClearWin: ten pairs in which the change's memory is
// lower every time resolve; rates that alternate do not; a tie is a pair but
// no one's win.
func TestRunResolvesOnlyAClearWin(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "BENCHMARK.json")
	write := func(path, body string) {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(manifest, `{"end_to_end":[{"name":"mem","unit":"ratio","better":"lower","bound":0.05},`+
		`{"name":"rate","unit":"1/s","better":"higher","bound":0.25}]}`)
	var files []string
	for i := 0; i < 10; i++ {
		for side, mem := range []float64{0.76 + float64(i)/1000, 0.65 + float64(i)/1000} {
			rate := 100.0 + float64((i+side)%2)
			if i == 0 {
				rate = 100
			}
			path := filepath.Join(dir, strings.Repeat("x", i+1)+[]string{"p", "c"}[side]+".json")
			body, _ := json.Marshal(map[string]any{"correct": true, "metrics": map[string]any{
				"mem": map[string]float64{"value": mem}, "rate": map[string]float64{"value": rate}}})
			write(path, string(body))
			files = append(files, path)
		}
	}
	out := filepath.Join(dir, "pairs.json")
	var table bytes.Buffer
	if err := run(manifest, "w", out, files, &table); err != nil {
		t.Fatal(err)
	}
	var rep report
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	mem, rate := rep.Metrics[0], rep.Metrics[1]
	if mem.K != 10 || mem.N != 10 || mem.Verdict != "resolved" {
		t.Errorf("mem: %+v", mem)
	}
	if rate.N != 10 || rate.Ties != 1 || rate.K != 4 || rate.Verdict != "unresolved" {
		t.Errorf("rate: %+v", rate)
	}
	if !strings.Contains(table.String(), "| mem | 0.7645 (0.7622–0.7668) | 0.6545") {
		t.Errorf("table:\n%s", table.String())
	}

	// Three pairs resolve only when every run of one side beats every run
	// of the other.
	if err := run(manifest, "w", out, files[:6], &table); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(out)
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if mem, rate := rep.Metrics[0], rep.Metrics[1]; mem.Verdict != "resolved" || rate.Verdict != "unresolved" {
		t.Errorf("three pairs: mem %s, rate %s", mem.Verdict, rate.Verdict)
	}
}

// TestCPUMetrics: a run with its CPU times and full result beside it reports
// user+sys seconds per row read and per query sent; one without reports
// neither.
func TestCPUMetrics(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("run.json", `{"correct":true,"attempted":1100,"metrics":{}}`)
	write("run.cpu", "1.5 0.5\n")
	write("run.full.json", `{"results":[{"loops":[{"sent":60},{"sent":40}]}]}`)
	write("bare.json", `{"correct":true,"attempted":1100,"metrics":{}}`)
	var r, bare result
	for _, c := range []struct {
		r    *result
		base string
	}{{&r, "run"}, {&bare, "bare"}} {
		if err := readJSON(filepath.Join(dir, c.base+".json"), c.r); err != nil {
			t.Fatal(err)
		}
		if err := addCPU(c.r, filepath.Join(dir, c.base)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Metrics["cpu_s_per_row"].Value; got != 2.0/1000 {
		t.Errorf("cpu_s_per_row = %v, want 0.002", got)
	}
	if got := r.Metrics["cpu_s_per_query"].Value; got != 2.0/100 {
		t.Errorf("cpu_s_per_query = %v, want 0.02", got)
	}
	if len(bare.Metrics) != 0 {
		t.Errorf("a run without CPU times reports %v", bare.Metrics)
	}
}
