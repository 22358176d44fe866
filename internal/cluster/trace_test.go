package cluster

import (
	"path/filepath"
	"testing"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/collect/collecttest"
	"ldpids/internal/fo"
	"ldpids/internal/obs"
)

// TestTracePropagatesAcrossCluster runs a full deployment — coordinator,
// two Replica loops over real HTTP backends, and device clients — with
// every process tracing into its own crash-safe log, exactly as the
// separate ldpids-gateway processes would. Two collected rounds must leave
// two connected traces: one coordinator root each, every parent edge
// resolving inside the trace, and spans from all three tiers (client post
// → replica batch/shard-round/ship → coordinator merge) present.
func TestTracePropagatesAcrossCluster(t *testing.T) {
	const n, d = 8, 4
	oracle, err := fo.New("GRR", d)
	if err != nil {
		t.Fatal(err)
	}
	spec := collecttest.Spec{N: n, Oracle: oracle, BaseSeed: 99}

	dir := t.TempDir()
	var logs []*obs.TraceLog
	paths := map[string]string{}
	newTracer := func(role string) *obs.Tracer {
		path := filepath.Join(dir, role+".jsonl")
		tlog, err := obs.CreateTraceLog(path)
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, tlog)
		paths[role] = path
		return obs.NewTracer(role, tlog)
	}

	coord, coordTS := testCoordinator(t, n, "GRR", d)
	coord.Tracer = newTracer("coordinator")
	report := spec.Reporter()
	h := &clusterHarness{t: t, coord: coord, coordTS: coordTS, report: report, tracer: newTracer}
	h.startReplica("r1", 0, n/2)
	h.startReplica("r2", n/2, n)

	const rounds = 2
	for tt := 1; tt <= rounds; tt++ {
		agg, err := oracle.NewAggregator(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Collect(collect.Request{T: tt, Eps: 1}, collect.AggregatorSink{Agg: agg}); err != nil {
			t.Fatalf("round %d: %v", tt, err)
		}
	}

	// Device post spans end after the client reads its HTTP response,
	// which can trail the coordinator's release; wait for them before
	// tearing the deployment down.
	readAll := func() []obs.SpanRecord {
		var spans []obs.SpanRecord
		for _, path := range paths {
			got, err := obs.ReadSpans(path)
			if err != nil {
				t.Fatalf("reading %s: %v", path, err)
			}
			spans = append(spans, got...)
		}
		return spans
	}
	wantPosts := rounds * 2 // two device clients, one chunk each
	deadline := time.Now().Add(5 * time.Second)
	var spans []obs.SpanRecord
	for {
		spans = readAll()
		posts := 0
		for _, sp := range spans {
			if sp.Name == "post" {
				posts++
			}
		}
		if posts >= wantPosts || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	h.stop()
	for _, tlog := range logs {
		tlog.Close()
	}
	spans = readAll()

	byID := make(map[string]obs.SpanRecord, len(spans))
	perTrace := make(map[string]map[string]int) // trace -> span name -> count
	rootsPerTrace := make(map[string]int)
	srcs := make(map[string]bool)
	for _, sp := range spans {
		if _, dup := byID[sp.Span]; dup {
			t.Fatalf("duplicate span id %s", sp.Span)
		}
		byID[sp.Span] = sp
		srcs[sp.Src] = true
		if perTrace[sp.Trace] == nil {
			perTrace[sp.Trace] = make(map[string]int)
		}
		perTrace[sp.Trace][sp.Name]++
		if sp.Parent == "" {
			rootsPerTrace[sp.Trace]++
			if sp.Src != "coordinator" || sp.Name != "round" {
				t.Errorf("root span is %s/%s, want coordinator/round — a tier broke the chain", sp.Src, sp.Name)
			}
		}
	}
	if len(perTrace) != rounds {
		t.Fatalf("spans form %d traces, want %d (one per round): %v", len(perTrace), rounds, perTrace)
	}
	for trace, names := range perTrace {
		if rootsPerTrace[trace] != 1 {
			t.Errorf("trace %s has %d roots, want 1", trace, rootsPerTrace[trace])
		}
		// One coordinator round + two backend rounds; both replicas run a
		// shard-round and ship; the coordinator merges once; each device
		// client posts once and each backend folds at least one batch.
		for name, want := range map[string]int{
			"round": 3, "shard-round": 2, "ship": 2, "merge": 1, "post": 2, "batch": 2,
		} {
			if names[name] < want {
				t.Errorf("trace %s: %d %q spans, want >= %d (all: %v)", trace, names[name], name, want, names)
			}
		}
	}
	for _, role := range []string{"coordinator", "replica-r1", "replica-r2", "client-r1", "client-r2"} {
		if !srcs[role] {
			t.Errorf("no spans from %s (sources: %v)", role, srcs)
		}
	}
	for _, sp := range spans {
		if sp.Parent == "" {
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			t.Errorf("span %s (%s/%s) parent %s unresolved", sp.Span, sp.Src, sp.Name, sp.Parent)
			continue
		}
		if parent.Trace != sp.Trace {
			t.Errorf("span %s (%s/%s) crosses traces", sp.Span, sp.Src, sp.Name)
		}
	}
}
