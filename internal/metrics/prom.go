package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// PromWriter emits metrics in the Prometheus text exposition format
// (version 0.0.4) without depending on a client library: the /metrics
// endpoint of the HTTP front door hand-rolls its catalog through this
// writer.  An unlabeled scalar family is one Counter/Gauge call; a labeled
// family or a histogram is two-phase: Metric writes the # HELP / # TYPE
// header, then one or more Sample/Histogram calls write the series.  Errors
// are sticky — the first write error suppresses all later output and is
// reported by Err, so call sites don't need per-line checks.
//
// The writer is not safe for concurrent use; the exporter builds one per
// scrape.  Values are read from live atomics by the caller, so a scrape
// racing ongoing traffic sees per-series-consistent (not cross-series
// consistent) values, the same contract a real Prometheus client offers.
type PromWriter struct {
	w   io.Writer
	err error
	buf []byte
}

// Label is one name="value" pair attached to a series.
type Label struct {
	Name, Value string
}

// NewPromWriter creates a writer emitting to w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, buf: make([]byte, 0, 256)}
}

// Err returns the first write error, or nil.
func (p *PromWriter) Err() error { return p.err }

// Metric writes the # HELP and # TYPE header of a metric family.  kind is
// one of "counter", "gauge" or "histogram".
func (p *PromWriter) Metric(name, help, kind string) {
	if p.err != nil {
		return
	}
	// HELP text escapes backslash and newline (label-value escaping rules
	// minus the quote, per the exposition format spec).
	help = strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(help)
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// Sample writes one series line: name{labels} value.
func (p *PromWriter) Sample(name string, labels []Label, value float64) {
	if p.err != nil {
		return
	}
	p.buf = p.buf[:0]
	p.buf = append(p.buf, name...)
	p.buf = appendLabels(p.buf, labels)
	p.buf = append(p.buf, ' ')
	p.buf = appendValue(p.buf, value)
	p.buf = append(p.buf, '\n')
	_, p.err = p.w.Write(p.buf)
}

// SampleInt writes one series line with an integer value (counters stay
// exact where float64 formatting would round above 2^53).
func (p *PromWriter) SampleInt(name string, labels []Label, value int64) {
	if p.err != nil {
		return
	}
	p.buf = p.buf[:0]
	p.buf = append(p.buf, name...)
	p.buf = appendLabels(p.buf, labels)
	p.buf = append(p.buf, ' ')
	p.buf = strconv.AppendInt(p.buf, value, 10)
	p.buf = append(p.buf, '\n')
	_, p.err = p.w.Write(p.buf)
}

// Counter writes a whole unlabeled counter family — the header and its one
// sample — so the name is written once.  Gauge, CounterFloat and GaugeFloat
// are the same for the other kind and for non-integer values; labeled
// families and histograms keep the two-phase Metric + Sample form.
func (p *PromWriter) Counter(name, help string, value int64) {
	p.Metric(name, help, "counter")
	p.SampleInt(name, nil, value)
}

// Gauge writes a whole unlabeled integer gauge family.
func (p *PromWriter) Gauge(name, help string, value int64) {
	p.Metric(name, help, "gauge")
	p.SampleInt(name, nil, value)
}

// CounterFloat writes a whole unlabeled counter family with a float value.
func (p *PromWriter) CounterFloat(name, help string, value float64) {
	p.Metric(name, help, "counter")
	p.Sample(name, nil, value)
}

// GaugeFloat writes a whole unlabeled gauge family with a float value.
func (p *PromWriter) GaugeFloat(name, help string, value float64) {
	p.Metric(name, help, "gauge")
	p.Sample(name, nil, value)
}

// Histogram writes a latency histogram as cumulative le-bucket series in
// seconds: name_bucket{le="..."} lines (monotone non-decreasing, ending in
// le="+Inf"), then name_sum and name_count.  Empty trailing buckets are
// collapsed into the +Inf line, which keeps a 140-bucket histogram's
// exposition proportional to its occupied range; empty leading/interior
// buckets are kept so every scrape exposes the same bucket layout across the
// occupied range.  The caller must have declared the family with
// Metric(name, help, "histogram").
func (p *PromWriter) Histogram(name string, labels []Label, h *Histogram) {
	if p.err != nil || h == nil {
		return
	}
	counts, bounds := h.Buckets()
	last := -1
	for i, c := range counts {
		if c != 0 {
			last = i
		}
	}
	var cum int64
	bucket := name + "_bucket"
	lbls := make([]Label, len(labels)+1)
	copy(lbls, labels)
	for i := 0; i <= last; i++ {
		cum += counts[i]
		lbls[len(labels)] = Label{Name: "le", Value: formatSeconds(bounds[i])}
		p.SampleInt(bucket, lbls, cum)
	}
	// The +Inf bucket equals the total count by definition; emitting it from
	// Count() (not the bucket sum) keeps _count consistent even if a
	// concurrent Observe landed between the bucket loads above and here —
	// cumulative monotonicity is preserved because Observe bumps the bucket
	// before the count.
	total := h.Count()
	if total < cum {
		total = cum
	}
	lbls[len(labels)] = Label{Name: "le", Value: "+Inf"}
	p.SampleInt(bucket, lbls, total)
	p.Sample(name+"_sum", labels, h.Sum().Seconds())
	p.SampleInt(name+"_count", labels, total)
}

// appendLabels renders {k="v",...} with label-value escaping; no braces when
// empty.
func appendLabels(buf []byte, labels []Label) []byte {
	if len(labels) == 0 {
		return buf
	}
	buf = append(buf, '{')
	for i, l := range labels {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, l.Name...)
		buf = append(buf, '=', '"')
		for j := 0; j < len(l.Value); j++ {
			switch c := l.Value[j]; c {
			case '\\':
				buf = append(buf, '\\', '\\')
			case '"':
				buf = append(buf, '\\', '"')
			case '\n':
				buf = append(buf, '\\', 'n')
			default:
				buf = append(buf, c)
			}
		}
		buf = append(buf, '"')
	}
	return append(buf, '}')
}

func appendValue(buf []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(buf, "+Inf"...)
	case math.IsInf(v, -1):
		return append(buf, "-Inf"...)
	case math.IsNaN(v):
		return append(buf, "NaN"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// formatSeconds renders a duration bound as a seconds float le-value.  The
// open last bucket (bound == MaxInt64) never reaches here as a finite bound
// in practice, but render it as its literal seconds value anyway so the
// bucket layout stays well-formed if it ever holds counts.
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// PromValid is a structural validity check over an exposition payload; the
// scrape smokes and tests share it so "parseable Prometheus text" means the
// same thing everywhere.  It verifies for every metric family: exactly one
// # TYPE line, preceding its samples; its lines form one group, not split by
// another family's; sample lines parse; histogram buckets are
// cumulative-monotone ending in le="+Inf", and _count equals the +Inf
// bucket.  It returns the set of metric family names seen.
func PromValid(payload string) (map[string]bool, error) {
	families := make(map[string]bool)
	typed := make(map[string]string)
	type histState struct {
		last    int64
		inf     int64
		sawInf  bool
		count   int64
		sawCnt  bool
		baseSet bool
	}
	hists := make(map[string]*histState) // keyed by family+rendered labels (minus le)
	current := ""                        // the family whose lines are being read
	ended := make(map[string]bool)       // families another family's lines followed
	enter := func(family string) {
		if family != current {
			ended[current] = true
			current = family
		}
	}
	lineNo := 0
	for _, line := range strings.Split(payload, "\n") {
		lineNo++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				if _, dup := typed[fields[2]]; dup {
					return nil, fmt.Errorf("line %d: second # TYPE for %s", lineNo, fields[2])
				}
				enter(fields[2])
				typed[fields[2]] = fields[3]
				families[fields[2]] = true
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typed[base] == "histogram" {
				family = base
				break
			}
		}
		if _, ok := typed[family]; !ok {
			return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, name)
		}
		if ended[family] {
			return nil, fmt.Errorf("line %d: sample %q of %s after another family's lines", lineNo, name, family)
		}
		enter(family)
		families[family] = true
		if typed[family] != "histogram" {
			continue
		}
		le := ""
		var rest []string
		for _, l := range labels {
			if l.Name == "le" {
				le = l.Value
			} else {
				rest = append(rest, l.Name+"="+l.Value)
			}
		}
		key := family + "|" + strings.Join(rest, ",")
		st := hists[key]
		if st == nil {
			st = &histState{}
			hists[key] = st
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			n := int64(value)
			if le == "+Inf" {
				st.inf, st.sawInf = n, true
				break
			}
			if st.sawInf {
				return nil, fmt.Errorf("line %d: bucket after le=\"+Inf\" in %s", lineNo, key)
			}
			if st.baseSet && n < st.last {
				return nil, fmt.Errorf("line %d: non-monotone cumulative bucket in %s (%d < %d)", lineNo, key, n, st.last)
			}
			st.last, st.baseSet = n, true
		case strings.HasSuffix(name, "_count"):
			st.count, st.sawCnt = int64(value), true
		}
	}
	for key, st := range hists {
		if !st.sawInf {
			return nil, fmt.Errorf("histogram %s missing le=\"+Inf\" bucket", key)
		}
		if st.baseSet && st.last > st.inf {
			return nil, fmt.Errorf("histogram %s: largest finite bucket %d exceeds +Inf %d", key, st.last, st.inf)
		}
		if !st.sawCnt {
			return nil, fmt.Errorf("histogram %s missing _count", key)
		}
		if st.count != st.inf {
			return nil, fmt.Errorf("histogram %s: _count %d != +Inf bucket %d", key, st.count, st.inf)
		}
	}
	return families, nil
}

// parseSample parses one exposition sample line.
func parseSample(line string) (name string, labels []Label, value float64, err error) {
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	} else {
		name, rest = rest[:i], rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		body := rest[1:end]
		rest = rest[end+1:]
		for _, part := range splitLabels(body) {
			eq := strings.Index(part, "=")
			if eq < 0 || len(part) < eq+2 || part[eq+1] != '"' || part[len(part)-1] != '"' {
				return "", nil, 0, fmt.Errorf("malformed label %q in %q", part, line)
			}
			v := part[eq+2 : len(part)-1]
			v = strings.NewReplacer(`\n`, "\n", `\"`, `"`, `\\`, `\`).Replace(v)
			labels = append(labels, Label{Name: part[:eq], Value: v})
		}
	}
	rest = strings.TrimSpace(rest)
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return "", nil, 0, fmt.Errorf("missing value in %q", line)
	}
	switch fields[0] {
	case "+Inf":
		value = math.Inf(1)
	case "-Inf":
		value = math.Inf(-1)
	case "NaN":
		value = math.NaN()
	default:
		value, err = strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return "", nil, 0, fmt.Errorf("bad value %q in %q", fields[0], line)
		}
	}
	return name, labels, value, nil
}

// splitLabels splits k1="v1",k2="v2" on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// SortedLabelNames returns map keys sorted, a tiny helper exporters use to
// emit label-sets deterministically.
func SortedLabelNames[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
