package fo

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"ldpids/internal/ldprand"
)

// naiveSupport is the definition the digit-packed kernel must reproduce:
// element v's support is Σ_c matrix[c][olhHash(cohortSeed(c), v, g)],
// straight from olhHash with no table in between.
func naiveSupport(matrix []int64, k, g, d int) []int64 {
	support := make([]int64, d)
	for c := 0; c < k; c++ {
		seed := cohortSeed(c)
		for v := range support {
			support[v] += matrix[c*g+olhHash(seed, v, g)]
		}
	}
	return support
}

// packedSupport runs the production Estimate over a freshly built bucket
// table with p=1, q=0, n=1, under which the unbiased finish
// (float64(s)/1 − 0)/(1 − 0) returns float64(s) itself — exact for the
// |s| < 2^53 the callers keep to.
func packedSupport(t testing.TB, matrix []int64, k, g, d int) []float64 {
	t.Helper()
	tab := new(cohortTable)
	tab.build(k, d, g)
	c := &cohortCore{p: 1, k: k, g: g, d: d, n: 1, matrix: matrix, table: func(int) *cohortTable { return tab }}
	est, err := c.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func checkPackedMatchesNaive(t testing.TB, matrix []int64, k, g, d int) {
	t.Helper()
	got := packedSupport(t, matrix, k, g, d)
	for v, want := range naiveSupport(matrix, k, g, d) {
		if got[v] != float64(want) {
			t.Fatalf("g=%d k=%d d=%d: support[%d] = %v, want %d", g, k, d, v, got[v], want)
		}
	}
}

// TestOLHCPackedSupportMatchesDefinition sweeps the kernel's edges: g on
// both sides of every change of m (2→8 … 16→2, 17→1) and of the uint8 and
// uint16 ranges, k that leaves a short tail group and a slot count that
// needs padding to four, and d on both sides of one sweep block.
func TestOLHCPackedSupportMatchesDefinition(t *testing.T) {
	src := ldprand.New(409)
	for _, g := range []int{2, 3, 4, 15, 16, 17, 255, 256, 257, 65536} {
		for _, k := range []int{2, 5, 128, 131} {
			if k*g > 1<<21 {
				continue // a 16 MiB+ matrix proves nothing k=2 and k=5 do not
			}
			matrix := make([]int64, k*g)
			for i := range matrix {
				matrix[i] = int64(src.Uint64()>>23) - 1<<40
			}
			for _, d := range []int{1, 7, sweepBlock - 1, sweepBlock, sweepBlock + 1} {
				checkPackedMatchesNaive(t, matrix, k, g, d)
			}
		}
	}
}

func TestOLHCTableShape(t *testing.T) {
	for _, c := range []struct{ g, m, span, slots int }{
		{2, 8, 256, 16}, {3, 5, 243, 28}, {4, 4, 256, 32}, {6, 3, 216, 44},
		{7, 2, 49, 64}, {16, 2, 256, 64}, {17, 1, 17, 128}, {65536, 1, 65536, 128},
	} {
		tab := new(cohortTable)
		tab.build(DefaultCohorts, 3, c.g)
		if tab.m != c.m || tab.span != c.span || tab.slots != c.slots || len(tab.idx) != 3*c.slots {
			t.Errorf("g=%d: m=%d span=%d slots=%d len(idx)=%d, want m=%d span=%d slots=%d",
				c.g, tab.m, tab.span, tab.slots, len(tab.idx), c.m, c.span, c.slots)
		}
	}
}

// TestOLHCWarmEstimateAllocs pins a warm Estimate to the returned slice:
// the lookup tables come from the table's pool and the accumulator block
// lives on the stack, so nothing else of size d is allocated.
func TestOLHCWarmEstimateAllocs(t *testing.T) {
	const d = 65536
	o := NewOLHC(d)
	agg, err := o.NewAggregator(1)
	if err != nil {
		t.Fatal(err)
	}
	src := ldprand.New(419)
	for u := 0; u < 1000; u++ {
		if err := agg.Add(o.Perturb(u, 1, src)); err != nil {
			t.Fatal(err)
		}
	}
	estimate := func() {
		if _, err := agg.Estimate(); err != nil {
			t.Fatal(err)
		}
	}
	estimate() // builds the table and fills the scratch pool
	if allocs := testing.AllocsPerRun(20, estimate); allocs > 2 {
		t.Errorf("warm Estimate made %v allocations, want the result slice and at most one small one", allocs)
	}
	// Bytes per call, as a median: the race detector makes sync.Pool drop
	// a quarter of its Puts, and those calls re-make the scratch.
	perCall := make([]uint64, 21)
	for i := range perCall {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		estimate()
		runtime.ReadMemStats(&after)
		perCall[i] = after.TotalAlloc - before.TotalAlloc
	}
	sort.Slice(perCall, func(i, j int) bool { return perCall[i] < perCall[j] })
	if median := perCall[len(perCall)/2]; float64(median) > 1.1*8*d {
		t.Errorf("warm Estimate allocated %d B, want within 10%% of the %d B result", median, 8*d)
	}
}

// TestOLHCBuildDoesNotBlockOtherRanges: while the table for one g is
// still being built, Estimate at an already-built g on the same oracle
// must complete — the oracle's mutex guards the map, not the build. A
// regression deadlocks here and fails by test timeout.
func TestOLHCBuildDoesNotBlockOtherRanges(t *testing.T) {
	o := NewOLHC(32)
	src := ldprand.New(421)
	reports := make([]Report, 50)
	for i := range reports {
		reports[i] = o.Perturb(i%32, 1, src)
	}
	want, err := o.Estimate(reports, 1) // builds g=3
	if err != nil {
		t.Fatal(err)
	}

	const slowG = 9
	building, release, built := make(chan struct{}), make(chan struct{}), make(chan struct{})
	o.mu.Lock()
	slow := new(cohortTable)
	o.tables[slowG] = slow
	o.mu.Unlock()
	go func() {
		defer close(built)
		slow.once.Do(func() {
			close(building)
			<-release
			slow.build(o.k, o.d, slowG)
		})
	}()
	<-building

	got, err := o.Estimate(reports, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("estimate changed at %d while another range was building", v)
		}
	}
	// A caller that wants the range being built waits for it and then
	// sees the finished table.
	waited := make(chan *cohortTable)
	go func() { waited <- o.bucketTable(slowG) }()
	close(release)
	<-built
	if tab := <-waited; tab != slow || len(tab.idx) == 0 {
		t.Fatal("bucketTable did not return the table the first builder finished")
	}
}

func TestOLHGClamped(t *testing.T) {
	budgets := []float64{1, 5.6, 11, 12, 25, 50, 800}
	for i, g := range []int{3, 271, 59875, maxOLHG, maxOLHG, maxOLHG, maxOLHG} {
		if got := olhG(budgets[i]); got != g {
			t.Errorf("olhG(%v) = %d, want %d", budgets[i], got, g)
		}
	}
	if got := olhG(1e-9); got != 2 {
		t.Errorf("olhG(1e-9) = %d, want 2", got)
	}
	// Both hashing oracles run a whole round at every budget whose e^ε
	// float64 holds, however large, on a small domain with modest state
	// (OLH-C: 4 cohorts × 65536 buckets = 2 MiB, where k·(⌊e^25⌋+1)
	// counters could never be allocated). Past it the device still does
	// not panic and the server refuses the budget instead of releasing NaN.
	src := ldprand.New(431)
	for _, eps := range budgets {
		for _, o := range []Oracle{NewOLH(16), NewOLHCCohorts(16, 4)} {
			agg, err := o.NewAggregator(eps)
			if eps > 700 {
				o.Perturb(3, eps, src)
				if err != ErrBadEpsilon {
					t.Fatalf("%s eps=%v: NewAggregator = %v, want ErrBadEpsilon", o.Name(), eps, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s eps=%v: %v", o.Name(), eps, err)
			}
			for u := 0; u < 64; u++ {
				if err := agg.Add(o.Perturb(u%16, eps, src)); err != nil {
					t.Fatalf("%s eps=%v: server refused the client's report: %v", o.Name(), eps, err)
				}
			}
			est, err := agg.Estimate()
			if err != nil || len(est) != 16 {
				t.Fatalf("%s eps=%v: Estimate = %d elements, %v", o.Name(), eps, len(est), err)
			}
			for v, x := range est {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("%s eps=%v: estimate[%d] = %v", o.Name(), eps, v, x)
				}
			}
		}
	}
}
