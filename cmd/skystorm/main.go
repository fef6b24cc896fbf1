// Command skystorm is the load driver for skyserve -http: it replays a Zipf
// query trace against a running HTTP front door from N concurrent socket
// clients and reports CLIENT-side latency percentiles next to the SERVER-side
// histograms scraped from /metrics — the two views whose difference is the
// network plus everything the server doesn't measure about itself.
//
// Usage (server and driver must agree on the catalog shape so the trace hits
// real objects — same -size/-files/-rows-per-mb/-seed):
//
//	skyserve -http :8080 -size 20 -files 8 -seed 1 &
//	skystorm -addr 127.0.0.1:8080 -clients 8 -queries 5000 -size 20 -files 8 -seed 1
//
// While the replay runs, a background goroutine scrapes /metrics once per
// -scrape-interval and validates the payload structurally (the "parseable
// under load" check); the final line fails the run if any scrape was invalid
// or any request errored at the transport layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/httpserve"
	"skyloader/internal/metrics"
	"skyloader/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "skyserve -http address")
		clients = flag.Int("clients", 8, "concurrent socket clients")

		nQueries  = flag.Int("queries", 2000, "queries to replay (ignored with -trace)")
		zipfS     = flag.Float64("zipf", 1.2, "Zipf skew of the generated workload")
		coneFrac  = flag.Float64("cone-frac", 0.4, "cone-search fraction")
		seed      = flag.Int64("seed", 1, "workload seed (match the server's)")
		size      = flag.Float64("size", 10, "server catalog MB (match the server's)")
		nfiles    = flag.Int("files", 4, "server catalog files (match the server's)")
		rowsPerMB = flag.Int("rows-per-mb", 100, "server rows per nominal MB (match the server's)")
		tracePth  = flag.String("trace", "", "replay a CSV query trace written by skygen -queries")

		rate     = flag.Float64("rate", 0, "paced arrival rate in qps across all clients (0 = closed loop, as fast as possible)")
		scrapeIv = flag.Duration("scrape-interval", 500*time.Millisecond, "background /metrics validation interval (0 disables)")
		shard    = flag.Bool("shard", false, "target a skyshard coordinator: every scrape must carry the fleet families (sky_shard_* and sky_serve_*)")
	)
	flag.Parse()

	trace, err := buildClientTrace(*tracePth, *nQueries, *seed, *zipfS, *coneFrac, *rate, *size, *rowsPerMB, *nfiles)
	if err != nil {
		fatal(err)
	}
	base := "http://" + *addr

	// Wait for readiness so a just-started server doesn't count as down.
	if err := waitHealthy(base, 10*time.Second); err != nil {
		fatal(err)
	}

	// Background scrape validator: /metrics must stay structurally valid
	// while every counter it exports is moving.
	var scrapes, badScrapes atomic.Int64
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	if *scrapeIv > 0 {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			tick := time.NewTicker(*scrapeIv)
			defer tick.Stop()
			client := &http.Client{Timeout: 10 * time.Second}
			for {
				select {
				case <-stopScrape:
					return
				case <-tick.C:
					body, err := fetch(client, base+httpserve.PathMetrics)
					scrapes.Add(1)
					if err != nil {
						badScrapes.Add(1)
						continue
					}
					families, err := metrics.PromValid(string(body))
					if err != nil {
						badScrapes.Add(1)
						fmt.Fprintln(os.Stderr, "skystorm: invalid scrape:", err)
						continue
					}
					if *shard {
						for _, want := range httpserve.FleetFamilies {
							if !families[want] {
								badScrapes.Add(1)
								fmt.Fprintln(os.Stderr, "skystorm: scrape missing fleet family", want)
								break
							}
						}
					}
				}
			}
		}()
	}

	// Replay: the trace is dealt round-robin to clients; each client owns a
	// keep-alive connection pool entry, a latency histogram (merged at the
	// end — cheaper than one contended histogram) and its outcome counters.
	results := make([]clientResult, *clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = runClient(base, trace, c, *clients, *rate, start)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopScrape)
	scrapeWG.Wait()

	// Merge per-client histograms and counters.
	total := clientResult{latency: metrics.NewHistogram(), byClass: map[string]*metrics.Histogram{}}
	for i := range results {
		r := &results[i]
		total.latency.Merge(r.latency)
		for cls, h := range r.byClass {
			if total.byClass[cls] == nil {
				total.byClass[cls] = metrics.NewHistogram()
			}
			total.byClass[cls].Merge(h)
		}
		total.sent += r.sent
		total.transportErrs += r.transportErrs
		for code, n := range r.status {
			if total.status == nil {
				total.status = map[int]int64{}
			}
			total.status[code] += n
		}
	}

	fmt.Printf("skystorm: %d clients, %d requests in %s (%.0f qps)\n",
		*clients, total.sent, elapsed.Round(time.Millisecond), float64(total.sent)/elapsed.Seconds())
	var codes []int
	for code := range total.status {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Printf("  status %d: %d\n", code, total.status[code])
	}
	if total.transportErrs > 0 {
		fmt.Printf("  transport errors: %d\n", total.transportErrs)
	}

	sum := total.latency.Summary()
	fmt.Printf("client-side latency: p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
		ms(sum.P50), ms(sum.P95), ms(sum.P99), ms(sum.Max))
	for _, cls := range metrics.SortedLabelNames(total.byClass) {
		s := total.byClass[cls].Summary()
		fmt.Printf("  %-8s p50 %.3fms  p95 %.3fms  p99 %.3fms  (%d)\n",
			cls, ms(s.P50), ms(s.P95), ms(s.P99), s.Count)
	}

	// The server-side view of the same window, from /v1/stats.
	printServerSide(base)

	if *scrapeIv > 0 {
		fmt.Printf("scrapes: %d valid, %d invalid\n", scrapes.Load()-badScrapes.Load(), badScrapes.Load())
	}
	if badScrapes.Load() > 0 || total.transportErrs > 0 {
		os.Exit(1)
	}
}

// clientResult is one client's accounting, merged after the run.
type clientResult struct {
	latency       *metrics.Histogram
	byClass       map[string]*metrics.Histogram
	status        map[int]int64
	sent          int64
	transportErrs int64
}

// runClient replays trace entries c, c+n, c+2n, ... against the server.
// With rate > 0 each request honors its trace arrival offset rescaled to the
// global rate (open loop); otherwise the client runs closed-loop.
func runClient(base string, trace []serve.Request, c, n int, rate float64, start time.Time) clientResult {
	res := clientResult{
		latency: metrics.NewHistogram(),
		byClass: map[string]*metrics.Histogram{},
		status:  map[int]int64{},
	}
	client := &http.Client{Timeout: 30 * time.Second}
	for i := c; i < len(trace); i += n {
		req := trace[i]
		if rate > 0 {
			// Trace arrivals are generated at the trace's own rate; with an
			// explicit -rate the i-th request globally is due at i/rate.
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		u, err := httpserve.QueryURL(req.Query)
		if err != nil {
			res.transportErrs++
			continue
		}
		began := time.Now()
		resp, err := client.Get(base + u)
		if err != nil {
			res.transportErrs++
			continue
		}
		_, copyErr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		elapsed := time.Since(began)
		if copyErr != nil {
			res.transportErrs++
			continue
		}
		res.sent++
		res.status[resp.StatusCode]++
		res.latency.Observe(elapsed)
		cls := req.Query.Class()
		if res.byClass[cls] == nil {
			res.byClass[cls] = metrics.NewHistogram()
		}
		res.byClass[cls].Observe(elapsed)
	}
	return res
}

// buildClientTrace mirrors skyserve's trace construction so the same
// -size/-files/-rows-per-mb/-seed hit the same objects the server loaded.
func buildClientTrace(path string, n int, seed int64, zipfS, coneFrac, rate, sizeMB float64, rowsPerMB, nfiles int) ([]serve.Request, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return serve.ReadTrace(f)
	}
	files := catalog.GenerateNight(catalog.NightSpec{
		TotalMB: sizeMB, Files: nfiles, RowsPerMB: rowsPerMB, Seed: seed, RunID: 1,
	})
	if rate <= 0 {
		rate = 1000 // closed loop ignores arrivals; any positive rate works
	}
	spec := serve.NightTraceSpec(sizeMB, rowsPerMB, files)
	spec.Queries, spec.Seed, spec.ZipfS, spec.ConeFrac, spec.RatePerSec = n, seed+1000, zipfS, coneFrac, rate
	return serve.GenTrace(spec), nil
}

// waitHealthy polls /healthz until the server reports ready.
func waitHealthy(base string, timeout time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + httpserve.PathHealthz)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %s (last err: %v)", base, timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// printServerSide fetches /v1/stats and prints the server-side class
// percentiles in the same shape as the client-side block above it, and, when
// the server fronts a fleet, the coordinator's scatter-gather counters and
// each shard's self-reported state.
func printServerSide(base string) {
	client := &http.Client{Timeout: 10 * time.Second}
	body, err := fetch(client, base+httpserve.PathStats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skystorm: stats fetch failed:", err)
		return
	}
	var stats httpserve.StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		fmt.Fprintln(os.Stderr, "skystorm: stats decode failed:", err)
		return
	}
	rep := stats.Server
	fmt.Printf("server-side: %d requests, %d served, %d shed, %d expired, %d cache hits\n",
		rep.Requests, rep.Served, rep.Shed, rep.Expired, rep.Cache.Hits)
	for _, cls := range rep.Classes {
		fmt.Printf("  %-8s p50 %.3fms  p95 %.3fms  p99 %.3fms  (%d)\n",
			cls.Class, ms(cls.Latency.P50), ms(cls.Latency.P95), ms(cls.Latency.P99), cls.Served)
	}
	if fl := stats.Fleet; fl != nil {
		fmt.Printf("coordinator-side: %d shards, %d queries, %d errors, gather p50 %.3fms p99 %.3fms, wire %d B out / %d B in\n",
			fl.Shards, fl.Queries, fl.QueryErrors,
			float64(fl.GatherP50NS)/1e6, float64(fl.GatherP99NS)/1e6,
			fl.BytesSent, fl.BytesReceived)
		for _, st := range fl.ShardStats {
			fmt.Printf("  shard %3d: ready=%v  %7d rows  %6d queries served\n",
				st.ShardID, st.Ready, st.Rows, st.QueriesServed)
		}
	}
}

func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "skystorm:", err)
	os.Exit(1)
}
