package cluster

import (
	"testing"

	"ldpids/internal/fo"
)

// shipMergeRig is one replica → coordinator frame hop without the HTTP:
// a two-stripe shard aggregator at d=65536 whose counters are exported,
// encoded, decoded and merged once per step, through the buffers the
// production loop reuses (Replica.sh on one side, a pooled shipment on
// the other).
type shipMergeRig struct {
	shard    *fo.StripedAggregator
	out, in  shipment
	received fo.Aggregator
}

// newShipMergeRig folds one GRR report into each of nonzero distinct
// cells, spread evenly over the domain and alternating between stripes.
func newShipMergeRig(tb testing.TB, nonzero int) *shipMergeRig {
	tb.Helper()
	const d = 65536
	o := fo.NewGRR(d)
	shard, err := fo.NewStripedAggregator(o, 1, 2)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < nonzero; i++ {
		if err := shard.AddStripe(i%2, fo.Report{Kind: fo.KindValue, Value: i * (d / nonzero)}); err != nil {
			tb.Fatal(err)
		}
	}
	received, err := o.NewAggregator(1)
	if err != nil {
		tb.Fatal(err)
	}
	return &shipMergeRig{shard: shard, received: received,
		out: shipment{Round: 7, Replica: 1, Token: []byte("0123456789abcdef0123456789abcdef")}}
}

// step ships the shard's counters once.
func (g *shipMergeRig) step(tb testing.TB) {
	if err := fo.ExportCountersInto(g.shard, &g.out.Frame); err != nil {
		tb.Fatal(err)
	}
	if err := g.out.encode(); err != nil {
		tb.Fatal(err)
	}
	g.in.body = append(g.in.body[:0], g.out.body...) // the wire
	if err := g.in.decode(); err != nil {
		tb.Fatal(err)
	}
	if err := fo.MergeCounters(g.received, g.in.Frame); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkShipMerge64k is the counter-frame layer of the ledger: export
// → encode → decode → MergeCounters of a d=65536 GRR frame, with the
// ~2 500 non-zero cells a population-division round leaves and fully
// dense. wire_B/op is the encoded shipment.
func BenchmarkShipMerge64k(b *testing.B) {
	for _, c := range []struct {
		name    string
		nonzero int
	}{{"sparse-2500", 2500}, {"dense", 65536}} {
		b.Run(c.name, func(b *testing.B) {
			g := newShipMergeRig(b, c.nonzero)
			g.step(b) // warm the reused buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.step(b)
			}
			b.ReportMetric(float64(len(g.out.body)), "wire_B/op")
		})
	}
}

// TestShipMergeAllocs pins the steady state BenchmarkShipMerge64k
// reports: once its buffers are warm, shipping a frame allocates nothing.
func TestShipMergeAllocs(t *testing.T) {
	for _, nonzero := range []int{2500, 65536} {
		g := newShipMergeRig(t, nonzero)
		g.step(t)
		if allocs := testing.AllocsPerRun(10, func() { g.step(t) }); allocs != 0 {
			t.Errorf("%d non-zero cells: %v allocs per shipped frame, want 0", nonzero, allocs)
		}
	}
}
