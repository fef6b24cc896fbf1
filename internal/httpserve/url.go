package httpserve

import (
	"fmt"
	"math"
	"net/url"
	"strconv"

	"skyloader/internal/queries"
)

// Endpoint paths.  The skystorm load driver imports these (and QueryURL) so
// the driver and the server cannot drift on the wire scheme.
const (
	PathCone    = "/v1/cone"
	PathObject  = "/v1/object"
	PathFrame   = "/v1/frame"
	PathMagHist = "/v1/maghist"
	PathStats   = "/v1/stats"
	PathMetrics = "/metrics"
	PathHealthz = "/healthz"
	PathTraces  = "/debug/traces"
)

// QueryURL renders the path and query string that requests q — the inverse
// of parseQuery.
func QueryURL(q queries.Query) (string, error) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch q := q.(type) {
	case queries.Cone:
		v := url.Values{}
		v.Set("ra", f(q.RA))
		v.Set("dec", f(q.Dec))
		v.Set("radius", f(q.RadiusDeg))
		return PathCone + "?" + v.Encode(), nil
	case queries.ObjectLookup:
		return PathObject + "?id=" + strconv.FormatInt(q.ObjectID, 10), nil
	case queries.FrameObjects:
		return PathFrame + "?id=" + strconv.FormatInt(q.FrameID, 10), nil
	case queries.MagHistogram:
		return PathMagHist + "?bin=" + f(q.BinWidth), nil
	}
	return "", fmt.Errorf("httpserve: unsupported query type %T", q)
}

// parseQuery builds the queries.Query for a request path + parameters — the
// inverse of QueryURL.
func parseQuery(path string, v url.Values) (queries.Query, error) {
	switch path {
	case PathCone:
		ra, err1 := parseFloat(v, "ra")
		dec, err2 := parseFloat(v, "dec")
		radius, err3 := parseFloat(v, "radius")
		if err := firstErr(err1, err2, err3); err != nil {
			return nil, err
		}
		if radius <= 0 || radius > 90 {
			return nil, fmt.Errorf("radius %g out of range (0, 90]", radius)
		}
		if dec < -90 || dec > 90 {
			return nil, fmt.Errorf("dec %g out of range [-90, 90]", dec)
		}
		return queries.Cone{RA: ra, Dec: dec, RadiusDeg: radius}, nil
	case PathObject:
		id, err := parseInt(v, "id")
		if err != nil {
			return nil, err
		}
		return queries.ObjectLookup{ObjectID: id}, nil
	case PathFrame:
		id, err := parseInt(v, "id")
		if err != nil {
			return nil, err
		}
		return queries.FrameObjects{FrameID: id}, nil
	case PathMagHist:
		bin, err := parseFloat(v, "bin")
		if err != nil {
			return nil, err
		}
		// The schema checks keep |mag| <= 40, so a bin of at least 0.001 (the
		// stored magnitude precision) numbers its bins within ±40,000, far
		// inside int64; a tinier bin would overflow the bin index.
		if bin < 0.001 || bin > 10 {
			return nil, fmt.Errorf("bin %g out of range [0.001, 10]", bin)
		}
		return queries.MagHistogram{BinWidth: bin}, nil
	}
	return nil, fmt.Errorf("no query at %q", path)
}

func parseFloat(v url.Values, key string) (float64, error) {
	raw := v.Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", key)
	}
	// A non-finite value passes every range check after it (NaN compares
	// false), so none is accepted.
	x, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("bad parameter %s=%q", key, raw)
	}
	return x, nil
}

func parseInt(v url.Values, key string) (int64, error) {
	raw := v.Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", key)
	}
	x, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad parameter %s=%q", key, raw)
	}
	return x, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
