package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
)

// shortOptions is the smoke scale: a dozen measured timestamps through
// the same code path as a real run.
func shortOptions(seed uint64, trace bool) options {
	return options{seed: seed, minT: 12, trace: trace, short: true}
}

// runShort runs one workload at smoke scale from a scratch directory.
func runShort(t *testing.T, name string, opt options) *result {
	t.Helper()
	s, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(s.short(), opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestSmoke runs all four workloads, untraced then traced, and asserts
// what every real run asserts: both release streams equal the collect.Sim
// reference bit for bit (so traced equals untraced), no operation failed,
// the ingest history checks clean, and the emitted metric names are
// exactly the declared ones.
func TestSmoke(t *testing.T) {
	var declared []string
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		declared = append(declared, m.name)
	}
	sort.Strings(declared)
	for _, s := range workloads {
		t.Run(s.name, func(t *testing.T) {
			res := runShort(t, s.name, shortOptions(1, true))
			if !res.correct() {
				t.Fatalf("incorrect: %v", res.problems)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("attempted %d failed %d", res.attempted, res.failed)
			}
			if !res.short {
				t.Fatal("smoke-scale output must be flagged short")
			}
			if got := res.names(); !reflect.DeepEqual(got, declared) {
				t.Fatalf("emitted metrics differ from the declared ones:\n got %v\nwant %v", got, declared)
			}
			if s.history && res.values["history.records"] == 0 {
				t.Fatal("journaling workload audited no history records")
			}
			if res.values["history.violations"] != 0 {
				t.Fatalf("%v history violations", res.values["history.violations"])
			}
			if s.cluster && res.values["cluster.frames"] == 0 {
				t.Fatal("traced cluster run merged no counter frames")
			}
			// The disjoint layers must add up to the step they divide.
			parts := res.values["collect.round_s"] + res.values["fo.estimate_s"] +
				res.values["mechanism.self_s"] + res.values["serve.publish_s"]
			if step := res.values["mechanism.step_s"]; parts < 0.98*step || parts > 1.02*step {
				t.Fatalf("layers sum to %v, step is %v", parts, step)
			}
		})
	}
}

// TestDeclarations keeps BENCHMARK.json and the code's declarations of
// workloads and metrics identical, in both directions.
func TestDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var file struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var wantWorkloads []decl
	for _, s := range workloads {
		wantWorkloads = append(wantWorkloads, decl{Name: s.name, Why: s.why})
	}
	if !reflect.DeepEqual(file.Workloads, wantWorkloads) {
		t.Errorf("workloads differ:\n file %+v\n code %+v", file.Workloads, wantWorkloads)
	}
	flatten := func(ds []decl) []metric {
		var out []metric
		for _, d := range ds {
			m := metric{name: d.Name, unit: d.Unit, better: d.Better}
			if d.Bound != nil {
				m.bound = *d.Bound
			}
			out = append(out, m)
		}
		return out
	}
	if got := flatten(file.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", got, endToEnd)
	}
	if got := flatten(file.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", got, perLayer)
	}
}

// stripedBackend is a collector that, like serve.Backend, asks for striped
// round aggregators; Collect hands the test the sink it was given.
type stripedBackend struct {
	stripes int
	sink    collect.Sink
}

func (b *stripedBackend) N() int                { return 4 }
func (b *stripedBackend) PreferredStripes() int { return b.stripes }
func (b *stripedBackend) Collect(_ collect.Request, sink collect.Sink) error {
	b.sink = sink
	return nil
}

// TestWrappersAreTransparent checks that the traced set's wrappers change
// nothing the program can observe: the timed Env hands the backend the
// very aggregator collect.Env chose, so the sink still stripes as the
// backend prefers, still absorbs and exports counter frames as the cluster
// needs, and the timed aggregator only adds a span around Estimate.
func TestWrappersAreTransparent(t *testing.T) {
	o := fo.NewGRR(8)
	backend := &stripedBackend{stripes: 3}
	tr := newTracer()
	env := timedEnv{Env: collect.NewEnv(backend), tr: tr}
	env.Advance(1)
	agg, err := env.NewRoundAggregator(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.CollectStream(nil, 1, agg); err != nil {
		t.Fatal(err)
	}
	striped, ok := backend.sink.(collect.StripedSink)
	if !ok || striped.Stripes() != backend.stripes {
		t.Fatalf("sink %T does not stripe %d ways through the timed Env", backend.sink, backend.stripes)
	}
	// A replica's frame, absorbed through the sink the coordinator sees.
	shard, err := o.NewAggregator(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.Add(o.Perturb(3, 1, ldprand.New(7))); err != nil {
		t.Fatal(err)
	}
	frame, err := fo.ExportCounters(shard)
	if err != nil {
		t.Fatal(err)
	}
	counters, ok := backend.sink.(collect.CounterSink)
	if !ok {
		t.Fatalf("sink %T absorbs no counter frames", backend.sink)
	}
	if err := counters.AbsorbCounters(frame); err != nil {
		t.Fatal(err)
	}
	exported, err := collect.SinkCounters(backend.sink)
	if err != nil {
		t.Fatal(err)
	}
	if exported.N != frame.N || !reflect.DeepEqual(exported.Counts, frame.Counts) {
		t.Fatalf("sink exports %+v, absorbed %+v", exported, frame)
	}
	want, err := shard.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := agg.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("timed aggregator estimates %v, plain one %v", got, want)
	}
	names := map[string]int{}
	for _, s := range tr.snapshot() {
		names[s.name]++
	}
	if names[spanRound] != 1 || names[spanEstimate] != 1 {
		t.Fatalf("spans recorded: %v", names)
	}
}

// TestDeterminism: one seed gives one release stream, one cfpu, one mre
// and one report count, run after run; another seed gives another stream.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"gw-oue-lbu", "gw-olhc-lpa"} {
		t.Run(name, func(t *testing.T) {
			a := runShort(t, name, shortOptions(1, false))
			b := runShort(t, name, shortOptions(1, false))
			c := runShort(t, name, shortOptions(2, false))
			for _, res := range []*result{a, b, c} {
				if !res.correct() {
					t.Fatalf("incorrect: %v", res.problems)
				}
			}
			if a.digest != b.digest {
				t.Fatal("one seed, two release streams")
			}
			for _, m := range []string{"cfpu", "mre"} {
				if a.values[m] != b.values[m] {
					t.Fatalf("%s: %v then %v on one seed", m, a.values[m], b.values[m])
				}
			}
			if a.reports != b.reports {
				t.Fatalf("reports: %d then %d on one seed", a.reports, b.reports)
			}
			if a.digest == c.digest {
				t.Fatal("two seeds, one release stream")
			}
		})
	}
}

// TestReplayPoolIsPure: the replayed reports are a function of (seed, id)
// alone, whoever builds the pool and whenever.
func TestReplayPoolIsPure(t *testing.T) {
	s, err := findWorkload("gw-oue-lbu")
	if err != nil {
		t.Fatal(err)
	}
	s = s.short()
	o, err := fo.New(s.oracle, s.d)
	if err != nil {
		t.Fatal(err)
	}
	a, b := newDevices(s, o, 5), newDevices(s, o, 5)
	other := newDevices(s, o, 6)
	differ := false
	for id := 0; id < s.n; id++ {
		ra, rb := a.report(id, 1, 0.1), b.report(id, 9, 0.7)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("user %d: two pools from one seed disagree", id)
		}
		if !reflect.DeepEqual(ra, a.report(id+replayPool, 1, 0.1)) {
			t.Fatalf("user %d and %d must replay the same pool entry", id, id+replayPool)
		}
		differ = differ || !reflect.DeepEqual(ra, other.report(id, 1, 0.1))
	}
	if !differ {
		t.Fatal("another seed built the same pool")
	}
}

// TestQuietPoolsTheQuietestSlices: the timing metrics come from the fifth
// of the slices with the lowest median latency, and from more of them only
// until the pool holds the timestamps its p90 needs.
func TestQuietPoolsTheQuietestSlices(t *testing.T) {
	var slices []slice
	for i := 0; i < 10; i++ {
		// Slice i is i ms slower than slice 0, whatever its position.
		at := float64((i*7)%10) + 10
		slices = append(slices, slice{
			latencyMs: []float64{at, at, at + 50}, wall: time.Second, reports: int64(at), cpuS: at,
		})
	}
	pool, kept := quiet(slices, 0)
	if kept != 2 || len(pool.latencyMs) != 6 {
		t.Fatalf("kept %d slices, %d timestamps; want the quietest 2 of 10", kept, len(pool.latencyMs))
	}
	if got := percentile(pool.latencyMs, 0.5); got != 11 {
		t.Fatalf("pooled median %v, want 11: slices 10 and 11 pooled", got)
	}
	if pool.wall != 2*time.Second || pool.reports != 21 || pool.cpuS != 21 {
		t.Fatalf("pool sums %+v", pool)
	}
	if _, kept := quiet(slices, 8); kept != 3 {
		t.Fatalf("kept %d slices for 8 timestamps, want 3", kept)
	}
	if _, kept := quiet(slices[:1], 100); kept != 1 {
		t.Fatalf("kept %d of one slice", kept)
	}
}

// names returns the sorted metric names of a result.
func (r *result) names() []string {
	names := make([]string, 0, len(r.values))
	for name := range r.values {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
