package device

import (
	"reflect"
	"testing"

	"ldpids/internal/fo"
)

// TestPopulationDeterminism: two populations with the same seed produce
// identical value streams and identical perturbed reports, regardless of
// how they are sharded across processes — the property that lets a
// networked run be diffed against an in-process run.
func TestPopulationDeterminism(t *testing.T) {
	const n, d = 20, 5
	oracle := fo.NewGRR(d)

	whole := NewPopulation(42, 0, n, d)
	again := NewPopulation(42, 0, n, d)
	wholeReport := whole.Report(oracle)
	againReport := again.Report(oracle)
	wholeNum := whole.Report(fo.NewMean())
	againNum := again.Report(fo.NewMean())

	for ts := 1; ts <= 8; ts++ {
		for id := 0; id < n; id++ {
			a, b := wholeReport(id, ts, 1.0), againReport(id, ts, 1.0)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("t=%d id=%d: reports diverged: %+v vs %+v", ts, id, a, b)
			}
		}
		// Mean-oracle rounds advance the same per-device sources.
		if a, b := wholeNum(0, ts, 1.0), againNum(0, ts, 1.0); !reflect.DeepEqual(a, b) || a.Kind != fo.KindNumeric {
			t.Fatalf("t=%d: numeric reports diverged: %+v vs %+v", ts, a, b)
		}
	}
}

// TestPopulationLazyAdvance: devices answer for whatever timestamp they
// are asked, skipping intermediate ones deterministically.
func TestPopulationLazyAdvance(t *testing.T) {
	a := NewPopulation(7, 0, 3, 4)
	b := NewPopulation(7, 0, 3, 4)
	// a visits t=1..5, b jumps straight to 5: same value at 5.
	for ts := 1; ts <= 5; ts++ {
		a.Device(1).Value(ts)
	}
	if got, want := b.Device(1).Value(5), a.Device(1).Value(5); got != want {
		t.Fatalf("lazy advance diverged: %d vs %d", got, want)
	}
}

func TestPopulationBounds(t *testing.T) {
	p := NewPopulation(1, 10, 5, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range device access did not panic")
		}
	}()
	p.Device(3)
}

// TestPopulationShardAlignment: a shard population [first, first+n) hosts
// devices identical to the same id range of one full population sharing
// the seed — the derivation burns the preceding devices' root splits. This
// is what makes a cluster of shard-hosting client processes bit-identical
// to one process hosting everyone.
func TestPopulationShardAlignment(t *testing.T) {
	const n, d, shard = 12, 5, 4
	oracle := fo.NewGRR(d)

	whole := NewPopulation(99, 0, n, d)
	wholeReport := whole.Report(oracle)
	for first := 0; first < n; first += shard {
		part := NewPopulation(99, first, shard, d)
		partReport := part.Report(oracle)
		for ts := 1; ts <= 4; ts++ {
			for id := first; id < first+shard; id++ {
				a, b := wholeReport(id, ts, 1.0), partReport(id, ts, 1.0)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("first=%d t=%d id=%d: shard report diverged from the full population: %+v vs %+v",
						first, ts, id, a, b)
				}
			}
		}
	}
}
