package queries

import (
	"math/rand"
	"testing"
)

// TestConeSearchCandidatesDoNotAllocate pins the decode-on-read path: a cone
// search reads its candidates straight from the page bytes, so allocations
// grow with the answer (the result slice and the duplicate filter double a
// logarithmic number of times), never with the candidates examined.  Before
// row views every candidate cost a copied row.
func TestConeSearchCandidatesDoNotAllocate(t *testing.T) {
	const spread = 2.0
	db := randomCatalog(t, rand.New(rand.NewSource(3)), 4000, 180, 10, spread)
	var stats Stats
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if _, stats, err = ConeSearch(db, 180, 10, spread/3); err != nil {
			t.Fatal(err)
		}
	})
	if !stats.UsedIndex || stats.RowsExamined < 1000 {
		t.Fatalf("cone examined %d rows (index used: %v); the test needs an indexed cone with many candidates",
			stats.RowsExamined, stats.UsedIndex)
	}
	if budget := float64(stats.RowsExamined) / 10; allocs > budget {
		t.Errorf("ConeSearch allocates %.0f times for %d candidates, budget %.0f", allocs, stats.RowsExamined, budget)
	}
	t.Logf("%.0f allocations, %d candidates examined, %d returned", allocs, stats.RowsExamined, stats.RowsReturned)
}
