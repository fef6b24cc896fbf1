package httpserve

import (
	"sync/atomic"
	"testing"

	"skyloader/internal/queries"
)

// countEncodes makes every answer encoding the query handler asks for until
// the test ends add one to the returned counter.  Drive the handler on the
// test's goroutine while it is installed.
func countEncodes(t testing.TB) *atomic.Int64 {
	var n atomic.Int64
	prev := encodeAnswer
	encodeAnswer = func(dst []byte, res queries.Result) ([]byte, error) {
		n.Add(1)
		return prev(dst, res)
	}
	t.Cleanup(func() { encodeAnswer = prev })
	return &n
}
