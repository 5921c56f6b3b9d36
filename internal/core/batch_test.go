package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pointset"
)

// TestOrientBatchMatchesSerial pins OrientItem fanned across ParallelFor
// against one-by-one Orient calls: same assignments, same self-reports,
// same errors for invalid budgets, input order preserved at every worker
// count.
func TestOrientBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var items []BatchItem
	for i := 0; i < 12; i++ {
		items = append(items, BatchItem{
			Pts: pointset.Uniform(rng, 30+10*i, 8),
			K:   1 + i%5,
			Phi: float64(i%3) * math.Pi / 2,
		})
	}
	// Invalid budgets must be refused by the default orienter exactly as
	// Orient refuses them.
	bad := pointset.Uniform(rng, 40, 8)
	items = append(items,
		BatchItem{Pts: bad, K: 0, Phi: math.Pi},
		BatchItem{Pts: bad, K: 2, Phi: -1},
		BatchItem{Pts: bad, K: 2, Phi: math.NaN()},
	)
	for _, workers := range []int{1, 3, 16} {
		got := make([]BatchResult, len(items))
		ParallelFor(len(items), workers, func(i int) {
			got[i] = OrientItem(context.Background(), items[i])
		})
		for i, it := range items {
			asg, res, err := Orient(it.Pts, it.K, it.Phi)
			if (err != nil) != (got[i].Err != nil) {
				t.Fatalf("workers=%d item %d: err %v vs %v", workers, i, got[i].Err, err)
			}
			if err != nil {
				continue
			}
			if got[i].Res.RadiusUsed != res.RadiusUsed || got[i].Res.SpreadUsed != res.SpreadUsed {
				t.Fatalf("workers=%d item %d: result diverges from serial Orient", workers, i)
			}
			if got[i].Asg.N() != asg.N() || got[i].Asg.MaxAntennas() != asg.MaxAntennas() {
				t.Fatalf("workers=%d item %d: assignment diverges", workers, i)
			}
		}
	}
	ParallelFor(0, 4, func(int) { t.Fatal("empty range must not call fn") })
}
