package fo

import (
	"testing"

	"ldpids/internal/ldprand"
)

// foldShard folds one shard of reports into a fresh aggregator and
// exports its counter frame.
func foldShard(t *testing.T, o Oracle, eps float64, reports []Report) CounterFrame {
	t.Helper()
	agg, err := o.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if err := agg.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	f, err := ExportCounters(agg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// mergeFrames merges frames, in order, into a fresh aggregator and
// exports the combined counter state.
func mergeFrames(t *testing.T, o Oracle, eps float64, frames []CounterFrame) CounterFrame {
	t.Helper()
	agg, err := o.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := MergeCounters(agg, f); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ExportCounters(agg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// framesEqual compares two frames bit-exactly.
func framesEqual(a, b CounterFrame) bool {
	if a.Shape != b.Shape || a.N != b.N || a.K != b.K || a.G != b.G || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i, v := range a.Counts {
		if v != b.Counts[i] {
			return false
		}
	}
	return true
}

// TestMergeCountersCommutativeAssociative is the property behind the
// cluster's bit-identity claim and the history checker's refold proof:
// for every oracle name New accepts, partitioning a report stream into
// random shards and merging their frames in any order (commutativity) and
// any grouping (associativity) reproduces, bit-exactly, the counters of
// folding every report into one aggregator.
func TestMergeCountersCommutativeAssociative(t *testing.T) {
	const n, eps, trials = 150, 0.8, 6
	for _, name := range spellings() {
		t.Run(name, func(t *testing.T) {
			d := 16
			if name == "OLH-C" {
				d = 32 // exercise a non-trivial cohort matrix
			}
			o, err := New(name, d)
			if err != nil {
				t.Fatal(err)
			}
			src := ldprand.New(0x1d71d5 + uint64(len(name)))
			reports := make([]Report, n)
			for u := range reports {
				reports[u] = o.Perturb(u%o.Domain(), eps, src)
			}
			reference := foldShard(t, o, eps, reports)

			for trial := 0; trial < trials; trial++ {
				// Random partition: each report lands in one of k shards.
				k := 2 + src.Intn(5)
				shards := make([][]Report, k)
				for _, r := range reports {
					s := src.Intn(k)
					shards[s] = append(shards[s], r)
				}
				frames := make([]CounterFrame, k)
				for i, shard := range shards {
					frames[i] = foldShard(t, o, eps, shard)
				}

				// Commutativity: merge the frames in a random order.
				order := src.Perm(k)
				permuted := make([]CounterFrame, k)
				for i, j := range order {
					permuted[i] = frames[j]
				}
				if got := mergeFrames(t, o, eps, permuted); !framesEqual(got, reference) {
					t.Fatalf("trial %d: merging %d shards in order %v diverged from the single fold", trial, k, order)
				}

				// Associativity: repeatedly merge two random frames into
				// one until a single frame remains — a random merge tree.
				tree := append([]CounterFrame(nil), frames...)
				for len(tree) > 1 {
					i := src.Intn(len(tree))
					j := src.Intn(len(tree) - 1)
					if j >= i {
						j++
					}
					merged := mergeFrames(t, o, eps, []CounterFrame{tree[i], tree[j]})
					if i < j {
						i, j = j, i
					}
					tree[i] = tree[len(tree)-1] // drop both inputs, keep the merge
					tree = tree[:len(tree)-1]
					tree[j] = merged
				}
				if !framesEqual(tree[0], reference) {
					t.Fatalf("trial %d: a random merge tree over %d shards diverged from the single fold", trial, k)
				}
			}
		})
	}
}
