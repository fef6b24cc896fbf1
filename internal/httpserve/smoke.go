package httpserve

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"skyloader/internal/metrics"
	"skyloader/internal/queries"
)

// Smoke drives a running front door at base (scheme://host:port) the way the
// commands' -smoke modes need: /healthz must answer 200, one query per class
// must answer 200, and the /metrics scrape must pass metrics.PromValid and
// carry every family in wantFamilies.  It is the end-to-end check that the
// wire API and the exporter work over a real socket, not just in-process.
func Smoke(base string, wantFamilies ...string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string) ([]byte, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		return body, nil
	}

	if _, err := get(PathHealthz); err != nil {
		return err
	}
	for _, q := range []queries.Query{
		queries.Cone{RA: 30, Dec: -10, RadiusDeg: 2},
		queries.ObjectLookup{ObjectID: 100_000_010},
		queries.FrameObjects{FrameID: 3},
		queries.MagHistogram{BinWidth: 0.5},
	} {
		u, err := QueryURL(q)
		if err != nil {
			return err
		}
		if _, err := get(u); err != nil {
			return err
		}
	}
	scrape, err := get(PathMetrics)
	if err != nil {
		return err
	}
	families, err := metrics.PromValid(string(scrape))
	if err != nil {
		return fmt.Errorf("%s: invalid exposition: %w", PathMetrics, err)
	}
	for _, want := range wantFamilies {
		if !families[want] {
			return fmt.Errorf("%s: scrape missing family %s", PathMetrics, want)
		}
	}
	return nil
}
