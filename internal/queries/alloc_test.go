package queries

import (
	"math/rand"
	"testing"
)

// TestConeSearchCandidatesDoNotAllocate pins the decode-on-read path: a cone
// search reads its candidates straight from the page bytes and trusts the
// cover's disjoint ranges instead of remembering every object it has seen, so
// allocations grow with the answer (the result slice doubles a logarithmic
// number of times) and the cover's ranges (one id buffer per index probe),
// never with the candidates examined: 28 here for 4000 candidates, 74 with the
// seen-map.  Before row views every candidate cost a copied row.
func TestConeSearchCandidatesDoNotAllocate(t *testing.T) {
	const spread = 2.0
	db := randomCatalog(t, rand.New(rand.NewSource(3)), 4000, 180, 10, spread)
	var stats Stats
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if _, stats, err = coneSearch(db, 180, 10, spread/3); err != nil {
			t.Fatal(err)
		}
	})
	if !stats.UsedIndex || stats.RowsExamined < 1000 {
		t.Fatalf("cone examined %d rows (index used: %v); the test needs an indexed cone with many candidates",
			stats.RowsExamined, stats.UsedIndex)
	}
	if budget := float64(stats.RowsExamined) / 100; allocs > budget {
		t.Errorf("ConeSearch allocates %.0f times for %d candidates, budget %.0f", allocs, stats.RowsExamined, budget)
	}
	t.Logf("%.0f allocations, %d candidates examined, %d returned", allocs, stats.RowsExamined, stats.RowsReturned)
}
