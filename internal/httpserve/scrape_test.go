package httpserve

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"skyloader/internal/metrics"
	"skyloader/internal/relstore"
	"skyloader/internal/shard"
	"skyloader/internal/shard/wire"
)

var writeScrapeGolden = flag.Bool("write-scrape-golden", false, "rewrite testdata/scrape/*.prom from the exporter")

// fillDistinct sets every integer, bool and string reachable from v to a
// value of its own (slices get two elements, maps two entries), so a family
// rendered from the wrong field cannot go unnoticed.
func fillDistinct(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		*next += 7
		v.SetInt(*next)
	case reflect.Uint32:
		*next += 7
		v.SetUint(uint64(*next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		*next += 7
		v.SetString("n" + strconv.FormatInt(*next, 10))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillDistinct(v.Index(i), next)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			if k.Kind() == reflect.String {
				fillDistinct(k, next)
			} else {
				k.SetInt(int64(i)) // ConstraintKind: the first two kinds
			}
			fillDistinct(e, next)
			v.SetMapIndex(k, e)
		}
	}
}

// TestScrapeUnchangedByFamilyHelpers renders fixed snapshots of a database and
// of a fleet, and the serving and transport families of a live front door,
// and compares each with its golden bytes in testdata/scrape.  The goldens
// were recorded while the hand-written scrape the exporter replaced still
// asserted byte equality with it; rewrite them (-write-scrape-golden) only
// for a change that means to move the scrape, and review their diff.
func TestScrapeUnchangedByFamilyHelpers(t *testing.T) {
	render := func(fn func(*metrics.PromWriter)) string {
		var buf bytes.Buffer
		p := metrics.NewPromWriter(&buf)
		fn(p)
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
		if _, err := metrics.PromValid(buf.String()); err != nil {
			t.Fatalf("invalid exposition: %v", err)
		}
		return buf.String()
	}
	golden := func(name, got string) {
		t.Helper()
		path := filepath.Join("testdata", "scrape", name)
		if *writeScrapeGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: the scrape moved\n--- exporter ---\n%s--- golden ---\n%s", name, got, want)
		}
	}

	var n int64
	var dbSnap relstore.StatsSnapshot
	fillDistinct(reflect.ValueOf(&dbSnap).Elem(), &n)
	golden("database.prom", render(func(p *metrics.PromWriter) { writeDBMetrics(p, dbSnap) }))

	var fleetSnap shard.Snapshot
	fillDistinct(reflect.ValueOf(&fleetSnap).Elem(), &n)
	fleetSnap.GatherHist = metrics.NewHistogram()
	fleetSnap.GatherHist.Observe(3 * time.Millisecond)
	var stats []wire.Stats
	fillDistinct(reflect.ValueOf(&stats).Elem(), &n)
	golden("fleet.prom", render(func(p *metrics.PromWriter) { writeFleetMetrics(p, fleetSnap, stats, nil) }))
	golden("fleet_probe_failed.prom", render(func(p *metrics.PromWriter) {
		writeFleetMetrics(p, fleetSnap, stats, errors.New("probe failed"))
	}))

	// The serving and transport families read live objects, so they are
	// rendered by a front door that has answered one query per class and is
	// now idle.  Everything after the backend's families is compared, less
	// what the wall clock decides: the buckets a latency histogram prints,
	// and the value of every other timed sample (sums, counts, waits,
	// uptime).
	env := newHTTPEnv(t, Config{})
	for _, q := range classQueries() {
		u, err := QueryURL(q)
		if err != nil {
			t.Fatal(err)
		}
		env.get(t, u)
	}
	var scrape bytes.Buffer
	if err := env.front.WriteMetrics(&scrape); err != nil {
		t.Fatal(err)
	}
	backend := render(env.front.backend.writeMetrics)
	front, ok := strings.CutPrefix(scrape.String(), backend)
	if !ok {
		t.Fatal("the scrape does not open with the backend's families")
	}
	buckets := regexp.MustCompile(`(?m)^sky_\w*_seconds_bucket\{.*\n`)
	timed := regexp.MustCompile(`(?m)^(sky_\w*_seconds\w*(?:\{[^}]*\})?) .*$`)
	golden("front_door.prom", timed.ReplaceAllString(buckets.ReplaceAllString(front, ""), "$1 X"))
}
