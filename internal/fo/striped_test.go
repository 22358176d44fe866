package fo

import (
	"strings"
	"sync"
	"testing"

	"ldpids/internal/ldprand"
)

// TestStripedMatchesPlain folds the same report stream concurrently into a
// StripedAggregator (by user-id stripe) and serially into the plain
// aggregator: the estimates must be bit-identical for every oracle, because
// integer counter addition commutes.
func TestStripedMatchesPlain(t *testing.T) {
	oracles := map[string]Oracle{
		"GRR":        NewGRR(6),
		"OUE-packed": mustNew("OUE-packed", 130),
		"SUE":        NewSUE(9),
		"OLH":        NewOLH(12),
		"OLH-C":      NewOLHC(16),
	}
	const n, eps = 400, 1.0
	for name, o := range oracles {
		o := o
		t.Run(name, func(t *testing.T) {
			src := ldprand.New(42)
			reports := make([]Report, n)
			for u := range reports {
				reports[u] = o.Perturb(u%o.Domain(), eps, src)
			}

			plain, err := o.NewAggregator(eps)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reports {
				if err := plain.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			want, err := plain.Estimate()
			if err != nil {
				t.Fatal(err)
			}

			striped, err := NewStripedAggregator(o, eps, 7)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for u := range reports {
				wg.Add(1)
				go func(u int) {
					defer wg.Done()
					if err := striped.AddStripe(u%striped.Stripes(), reports[u]); err != nil {
						t.Error(err)
					}
				}(u)
			}
			wg.Wait()
			if striped.Reports() != n {
				t.Fatalf("striped folded %d reports, want %d", striped.Reports(), n)
			}
			got, err := striped.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("estimate diverged at k=%d: striped %v, plain %v", k, got[k], want[k])
				}
			}
			// Estimate is terminal and repeatable.
			if striped.Reports() != n {
				t.Fatalf("post-merge report count %d, want %d", striped.Reports(), n)
			}
			again, err := striped.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if again[k] != want[k] {
					t.Fatalf("repeated estimate diverged at k=%d", k)
				}
			}
			if err := striped.Add(reports[0]); err == nil {
				t.Fatal("Add after Estimate succeeded")
			}
		})
	}
}

// TestStripedConcurrentAdd exercises the round-robin Add path from many
// goroutines: every report must land exactly once.
func TestStripedConcurrentAdd(t *testing.T) {
	o := NewGRR(4)
	striped, err := NewStripedAggregator(o, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := striped.Add(Report{Kind: KindValue, Value: i % 4}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if striped.Reports() != n {
		t.Fatalf("folded %d reports, want %d", striped.Reports(), n)
	}
	est, err := striped.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != 4 {
		t.Fatalf("estimate length %d, want 4", len(est))
	}
}

func TestStripedErrors(t *testing.T) {
	striped, err := NewStripedAggregator(NewGRR(4), 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := striped.AddStripe(5, Report{Kind: KindValue}); err == nil || !strings.Contains(err.Error(), "stripe") {
		t.Fatalf("out-of-range stripe error = %v", err)
	}
	// Validation errors from the underlying aggregator surface directly.
	if err := striped.AddStripe(0, Report{Kind: KindHash}); err == nil {
		t.Fatal("mismatched report kind accepted")
	}
	if _, err := NewStripedAggregator(NewGRR(4), 0, 2); err == nil {
		t.Fatal("zero eps accepted")
	}
	// stripes < 1 selects one per CPU.
	s, err := NewStripedAggregator(NewGRR(4), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stripes() < 1 {
		t.Fatalf("default stripes %d", s.Stripes())
	}
}

// TestStripedReportsDuringEstimate hammers Reports from many goroutines
// while Estimate merges and while post-merge reads land on stripe 0 — the
// stripelock finding: the merged fast path of Reports used to read stripe
// 0's counters outside the stripe's locked region. Run under -race.
func TestStripedReportsDuringEstimate(t *testing.T) {
	o := NewGRR(4)
	striped, err := NewStripedAggregator(o, 1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		if err := striped.Add(Report{Kind: KindValue, Value: i % 4}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 100; i++ {
				if got := striped.Reports(); got != n {
					t.Errorf("Reports() = %d, want %d", got, n)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if _, err := striped.Estimate(); err != nil {
			t.Error(err)
		}
	}()
	close(start)
	wg.Wait()
}
