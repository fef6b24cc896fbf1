package serve

import (
	"bytes"
	"errors"
	"testing"

	"skyloader/internal/exec"
	"skyloader/internal/queries"
)

// TestExecuteBodyEncodesEachAnswerOnce drives ExecuteBody with one reused
// buffer, the way the HTTP handler's pool does: a miss encodes, the cache
// keeps its own copy of the bytes (a later request writing the buffer cannot
// reach them), a hit appends the stored copy without encoding, and
// CacheStats.BodyBytes counts what the entries hold.  An entry stored by
// Execute has no body; a hit on it encodes for that request only.  An answer
// the encoder refuses is an error outcome that is neither cached nor
// appended.
func TestExecuteBodyEncodesEachAnswerOnce(t *testing.T) {
	db := testDB(t)
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 9})
	s := NewServer(sched, db, Config{Workers: 1, QueueDepth: 10})
	var encodes int
	enc := func(dst []byte, res queries.Result) ([]byte, error) {
		encodes++
		return append(dst, bodyOf(int64(len(res.Objects)), res)...), nil
	}
	buf := make([]byte, 0, 256)
	run := func(q queries.Query, enc AppendBody) ([]byte, Outcome, error) {
		var body []byte
		var outcome Outcome
		var err error
		sched.RunInline("body-test", func(w exec.Worker) {
			_, body, outcome, err = s.ExecuteBody(w, q, nil, append(buf[:0], '>'), enc)
		})
		return body, outcome, err
	}
	want := func(q queries.Query) []byte {
		res, err := q.Run(db)
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte{'>'}, bodyOf(int64(len(res.Objects)), res)...)
	}
	check := func(step string, q queries.Query, enc AppendBody, outcome Outcome, encoded int) {
		t.Helper()
		body, got, err := run(q, enc)
		if err != nil || got != outcome {
			t.Fatalf("%s: outcome %v, %v; want %v", step, got, err, outcome)
		}
		if w := want(q); !bytes.Equal(body, w) {
			t.Fatalf("%s: body %q, want %q", step, body, w)
		}
		if encodes != encoded {
			t.Fatalf("%s: %d encodings so far, want %d", step, encodes, encoded)
		}
	}

	found, absent, cone := queries.ObjectLookup{ObjectID: 1}, queries.ObjectLookup{ObjectID: 2}, queries.Cone{RA: 120, Dec: -30, RadiusDeg: 1}
	check("miss", found, enc, OutcomeServed, 1)
	check("second miss over the same buffer", absent, enc, OutcomeServed, 2)
	check("hit", found, enc, OutcomeCacheHit, 2)
	check("second hit", absent, enc, OutcomeCacheHit, 2)
	if got, w := s.Cache().Stats().BodyBytes, int64(len(want(found))+len(want(absent))-2); got != w {
		t.Fatalf("BodyBytes = %d, want %d", got, w)
	}

	var res queries.Result
	sched.RunInline("body-test", func(w exec.Worker) { res, _, _ = s.Execute(w, cone, nil) })
	if len(res.Objects) != 1 {
		t.Fatalf("cone found %d objects, want 1", len(res.Objects))
	}
	check("hit on an entry stored without a body", cone, enc, OutcomeCacheHit, 3)
	check("and again", cone, enc, OutcomeCacheHit, 4)

	refused := errors.New("no body for this answer")
	before := s.Cache().Stats()
	body, outcome, err := run(queries.ObjectLookup{ObjectID: 3}, func(dst []byte, _ queries.Result) ([]byte, error) {
		return append(dst, "partial"...), refused
	})
	if !errors.Is(err, refused) || outcome != OutcomeError || string(body) != ">" {
		t.Fatalf("refused answer: outcome %v, %v, body %q", outcome, err, body)
	}
	if after := s.Cache().Stats(); after.Stores != before.Stores || after.BodyBytes != before.BodyBytes {
		t.Fatalf("refused answer was cached: %+v → %+v", before, after)
	}
	if c := s.Counters(); c.Errors != 1 {
		t.Fatalf("errors = %d, want 1", c.Errors)
	}
}
