package metrics

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// buildFixture assembles a small deterministic exposition payload: two
// counters, a gauge with labels needing escaping, and one histogram.
func buildFixture() string {
	h := NewHistogram()
	for _, d := range []time.Duration{
		100 * time.Nanosecond, // below floor -> bucket 0
		time.Microsecond,
		time.Microsecond,
		50 * time.Microsecond,
		time.Millisecond,
		20 * time.Millisecond,
	} {
		h.Observe(d)
	}
	var b bytes.Buffer
	p := NewPromWriter(&b)
	p.Metric("sky_rows_inserted_total", "Rows inserted.", "counter")
	p.SampleInt("sky_rows_inserted_total", nil, 1234567)
	p.Metric("sky_violations_total", "Constraint violations by kind.", "counter")
	p.SampleInt("sky_violations_total", []Label{{"kind", `primary"key`}}, 3)
	p.SampleInt("sky_violations_total", []Label{{"kind", "foreign\nkey"}}, 4)
	p.Metric("sky_cache_resident_pages", "Resident buffer-cache pages.", "gauge")
	p.Sample("sky_cache_resident_pages", nil, 2048)
	p.Metric("sky_latency_seconds", "Query latency.", "histogram")
	p.Histogram("sky_latency_seconds", []Label{{"class", "cone"}}, h)
	if p.Err() != nil {
		panic(p.Err())
	}
	return b.String()
}

func TestPromGolden(t *testing.T) {
	got := buildFixture()
	path := filepath.Join("testdata", "prom_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden file %s\n--- got ---\n%s", path, got)
	}
}

func TestPromValidAcceptsFixture(t *testing.T) {
	families, err := PromValid(buildFixture())
	if err != nil {
		t.Fatalf("fixture rejected: %v", err)
	}
	for _, want := range []string{"sky_rows_inserted_total", "sky_violations_total", "sky_latency_seconds"} {
		if !families[want] {
			t.Errorf("family %q not reported (got %v)", want, families)
		}
	}
}

func TestPromValidRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE header": "sky_x_total 1\n",
		"non-monotone buckets": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"0.2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"count mismatch": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 6\n",
		"missing +Inf": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_sum 1\nh_count 5\n",
		"garbage value": "# HELP c c\n# TYPE c counter\nc zork\n",
		"second TYPE":   "# TYPE c counter\nc 1\n# TYPE c gauge\nc 2\n",
		"split family":  "# TYPE c counter\nc{a=\"1\"} 1\n# TYPE g gauge\ng 1\nc{a=\"2\"} 2\n",
	}
	for name, payload := range cases {
		if _, err := PromValid(payload); err == nil {
			t.Errorf("%s: payload accepted, want error", name)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	durations := []time.Duration{
		0, 300 * time.Nanosecond, time.Microsecond, time.Microsecond,
		37 * time.Microsecond, 2 * time.Millisecond, 3 * time.Second,
	}
	for _, d := range durations {
		h.Observe(d)
	}
	counts, bounds := h.Buckets()
	if len(counts) != len(bounds) {
		t.Fatalf("len(counts)=%d len(bounds)=%d", len(counts), len(bounds))
	}
	var total int64
	for i, c := range counts {
		total += c
		if i > 0 && bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v <= %v", i, bounds[i], bounds[i-1])
		}
	}
	if total != int64(len(durations)) {
		t.Fatalf("bucket counts sum to %d, want %d", total, len(durations))
	}
	if got := h.Sum(); got != 3*time.Second+2*time.Millisecond+39*time.Microsecond+300*time.Nanosecond {
		t.Fatalf("Sum() = %v", got)
	}
	// Every observation must land in the bucket whose bound covers it.
	for _, d := range durations {
		idx := 0
		for idx < len(bounds)-1 && d > bounds[idx] {
			idx++
		}
		if counts[idx] == 0 {
			t.Errorf("observation %v expected in bucket %d (bound %v), which is empty", d, idx, bounds[idx])
		}
	}
	if bounds[len(bounds)-1] != time.Duration(math.MaxInt64) {
		t.Errorf("last bound = %v, want open-ended", bounds[len(bounds)-1])
	}
}

func TestHistogramMerge(t *testing.T) {
	all := NewHistogram()
	parts := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram()}
	for i := 0; i < 3000; i++ {
		d := time.Duration(i*i%7919) * time.Microsecond
		all.Observe(d)
		parts[i%3].Observe(d)
	}
	merged := NewHistogram()
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != all.Count() || merged.Sum() != all.Sum() || merged.Max() != all.Max() {
		t.Fatalf("merged count/sum/max = %d/%v/%v, want %d/%v/%v",
			merged.Count(), merged.Sum(), merged.Max(), all.Count(), all.Sum(), all.Max())
	}
	if ms, as := merged.Summary(), all.Summary(); ms != as {
		t.Fatalf("merged summary %+v != combined summary %+v", ms, as)
	}
	mc, _ := merged.Buckets()
	ac, _ := all.Buckets()
	for i := range mc {
		if mc[i] != ac[i] {
			t.Fatalf("bucket %d: merged %d != combined %d", i, mc[i], ac[i])
		}
	}
	merged.Merge(nil) // must not panic
}

// TestPromScrapeUnderLoad renders the histogram while writers hammer it; run
// under -race this is the exporter/Observe ownership check: scrapes take no
// locks and writers never stall, and every scrape must still satisfy the
// structural validity rules.
func TestPromScrapeUnderLoad(t *testing.T) {
	h := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := time.Duration(g+1) * 37 * time.Microsecond
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(d)
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		var b bytes.Buffer
		p := NewPromWriter(&b)
		p.Metric("sky_latency_seconds", "latency", "histogram")
		p.Histogram("sky_latency_seconds", nil, h)
		if p.Err() != nil {
			t.Fatal(p.Err())
		}
		if _, err := PromValid(b.String()); err != nil {
			t.Fatalf("scrape %d invalid under load: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
