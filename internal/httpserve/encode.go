package httpserve

import (
	"fmt"
	"math"
	"strconv"

	"skyloader/internal/queries"
)

// The body of an answered query is QueryResponse exactly as
// json.NewEncoder(w).Encode writes it, built without reflection in two parts.
// appendAnswer encodes the members that come from the result — "objects",
// "bins" (each omitted when empty) and "stats" — once per answer: the serve
// layer's result cache keeps those bytes beside the result, so a cache hit
// copies them instead of encoding again.  frame then writes the members that
// belong to one request ("request_id", "outcome", "elapsed_ns") in front of
// them.  FuzzResponseEncode holds the two to json.Encoder byte for byte.

// encodeAnswer is the serve.AppendBody the query handler passes; tests wrap
// it to count encodings.
var encodeAnswer = appendAnswer

// appendAnswer appends the result members of res's QueryResponse to dst.  A
// NaN or infinite float has no JSON form (json.Encoder fails on it too), so
// it is an error.
func appendAnswer(dst []byte, res queries.Result) ([]byte, error) {
	if len(res.Objects) > 0 {
		dst = append(dst, `"objects":[`...)
		for i := range res.Objects {
			o := &res.Objects[i]
			if err := finite(o.RA, o.Dec, o.Mag); err != nil {
				return dst, err
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"ObjectID":`...)
			dst = strconv.AppendInt(dst, o.ObjectID, 10)
			dst = append(dst, `,"FrameID":`...)
			dst = strconv.AppendInt(dst, o.FrameID, 10)
			dst = append(dst, `,"RA":`...)
			dst = appendFloat(dst, o.RA)
			dst = append(dst, `,"Dec":`...)
			dst = appendFloat(dst, o.Dec)
			dst = append(dst, `,"HTMID":`...)
			dst = strconv.AppendInt(dst, o.HTMID, 10)
			dst = append(dst, `,"Mag":`...)
			dst = appendFloat(dst, o.Mag)
			dst = append(dst, '}')
		}
		dst = append(dst, "],"...)
	}
	if len(res.Bins) > 0 {
		dst = append(dst, `"bins":[`...)
		for i := range res.Bins {
			b := &res.Bins[i]
			if err := finite(b.Low, b.High); err != nil {
				return dst, err
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"Low":`...)
			dst = appendFloat(dst, b.Low)
			dst = append(dst, `,"High":`...)
			dst = appendFloat(dst, b.High)
			dst = append(dst, `,"Count":`...)
			dst = strconv.AppendInt(dst, b.Count, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, "],"...)
	}
	st := &res.Stats
	dst = append(dst, `"stats":{"RowsExamined":`...)
	dst = strconv.AppendInt(dst, int64(st.RowsExamined), 10)
	dst = append(dst, `,"RowsReturned":`...)
	dst = strconv.AppendInt(dst, int64(st.RowsReturned), 10)
	dst = append(dst, `,"UsedIndex":`...)
	dst = strconv.AppendBool(dst, st.UsedIndex)
	dst = append(dst, `,"TrixelsScanned":`...)
	dst = strconv.AppendInt(dst, int64(st.TrixelsScanned), 10)
	return append(dst, '}'), nil
}

// finite reports the first NaN or infinity among fs as an error.
func finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("httpserve: the answer holds %v, which JSON cannot carry", f)
		}
	}
	return nil
}

// appendFloat appends a finite float64 as encoding/json does: the shortest
// decimal that round-trips, in 'f' form unless |f| < 1e-6 or |f| >= 1e21,
// and an exponent of e-07 written e-7.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// headRoom is the longest head frame writes: the members before the answer
// with both integers at their widest (20 characters) and the longer outcome.
const headRoom = len(`{"request_id":,"outcome":"cache_hit","elapsed_ns":,`) + 20 + 20

// frame completes buf — headRoom bytes of any content followed by an answer
// appendAnswer wrote — into the body of a 200 response and returns it, a
// subslice of buf: the request's members go at the end of the room and "}\n"
// after the answer.
func frame(buf []byte, id uint64, outcome string, elapsedNS int64) []byte {
	var h [headRoom]byte
	head := append(h[:0], `{"request_id":`...)
	head = strconv.AppendUint(head, id, 10)
	head = append(head, `,"outcome":"`...)
	head = append(head, outcome...)
	head = append(head, `","elapsed_ns":`...)
	head = strconv.AppendInt(head, elapsedNS, 10)
	head = append(head, ',')
	start := headRoom - len(head)
	copy(buf[start:], head)
	return append(buf, '}', '\n')[start:]
}
