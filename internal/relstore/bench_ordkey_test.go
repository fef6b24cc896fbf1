package relstore

import (
	"bytes"
	"math/rand"
	"testing"
)

// BenchmarkBTreeEncodedCompare is the microbenchmark behind the encoded-key
// refactor: one key comparison the way the tree used to do it (CompareKeys
// over []Value columns, a kind switch per element) versus the way it does now
// (a single bytes.Compare over order-preserving encodings).  Shapes mirror
// the two Figure 8 indexes (one int64 htmid column; three float columns) plus
// a mixed string shape.
func BenchmarkBTreeEncodedCompare(b *testing.B) {
	shapes := []struct {
		name  string
		shape []ValueKind
	}{
		{"Int", []ValueKind{KindInt}},
		{"Float3", []ValueKind{KindFloat, KindFloat, KindFloat}},
		{"StrIntFloat", []ValueKind{KindString, KindInt, KindFloat}},
	}
	const pairs = 1024
	for _, s := range shapes {
		rng := rand.New(rand.NewSource(20050714))
		av := make([][]Value, pairs)
		bv := make([][]Value, pairs)
		ae := make([][]byte, pairs)
		be := make([][]byte, pairs)
		for i := 0; i < pairs; i++ {
			av[i] = make([]Value, len(s.shape))
			bv[i] = make([]Value, len(s.shape))
			for j, kind := range s.shape {
				av[i][j] = randOrderedValue(rng, kind)
				bv[i][j] = randOrderedValue(rng, kind)
			}
			if i%4 == 0 {
				copy(bv[i], av[i]) // equal keys walk the full length either way
			}
			ae[i] = EncodeOrderedKey(av[i])
			be[i] = EncodeOrderedKey(bv[i])
		}
		b.Run(s.name+"/CompareKeys", func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				p := i % pairs
				sink += CompareKeys(av[p], bv[p])
			}
			benchSink = sink
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cmp")
		})
		b.Run(s.name+"/BytesCompare", func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				p := i % pairs
				sink += bytes.Compare(ae[p], be[p])
			}
			benchSink = sink
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cmp")
		})
	}
}

// benchSink defeats dead-code elimination of the comparison results.
var benchSink int
