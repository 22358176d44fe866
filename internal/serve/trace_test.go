package serve

import (
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/collect/collecttest"
	"ldpids/internal/fo"
	"ldpids/internal/obs"
)

// runObservedCollection drives three full scripted rounds over an HTTP
// cluster built from spec and returns every estimate. When tracePath is
// non-empty the backend and both clients trace into it and metrics are
// attached; otherwise the run is completely uninstrumented. The two
// configurations must be bit-identical: telemetry only observes.
func runObservedCollection(t *testing.T, spec collecttest.Spec, tracePath string) [][]float64 {
	t.Helper()
	report := spec.Reporter()

	var (
		serverTracer *obs.Tracer
		clientTracer *obs.Tracer
	)
	if tracePath != "" {
		tlog, err := obs.CreateTraceLog(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := tlog.Close(); err != nil {
				t.Errorf("closing trace log: %v", err)
			}
		}()
		serverTracer = obs.NewTracer("gateway", tlog)
		clientTracer = obs.NewTracer("client", tlog)
	}

	backend, err := NewBackend(spec.N)
	if err != nil {
		t.Fatal(err)
	}
	backend.Timeout = 10 * time.Second
	if tracePath != "" {
		backend.Tracer = serverTracer
		backend.Metrics = NewMetrics(nil)
	}
	c := &cluster{backend: backend, ts: httptest.NewServer(backend)}
	defer c.stop()
	first := 0
	for _, size := range []int{spec.N / 2, spec.N - spec.N/2} {
		cl, err := NewClient(c.ts.URL, first, size, Funcs{Report: report})
		if err != nil {
			t.Fatal(err)
		}
		cl.PollWait = 2 * time.Second
		cl.Tracer = clientTracer // before Serve starts: no racing writes
		first += size
		c.clients = append(c.clients, cl)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if err := cl.Serve(); err != nil {
				t.Errorf("client serve loop: %v", err)
			}
		}()
	}

	var estimates [][]float64
	for tt := 1; tt <= 3; tt++ {
		agg, err := spec.Oracle.NewAggregator(float64(spec.N))
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Collect(collect.Request{T: tt, Eps: 1}, collect.AggregatorSink{Agg: agg}); err != nil {
			t.Fatalf("round %d: %v", tt, err)
		}
		est, err := agg.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		estimates = append(estimates, est)
	}
	return estimates
}

// TestTracingIsObserveOnly is the telemetry determinism guard: the same
// seeded population collected with full tracing and metrics enabled, and
// again with telemetry off, must produce bit-identical estimates — trace
// ids come from crypto/rand and never touch the seeded report streams.
// The traced run must also leave a connected trace: every span's parent
// resolves inside its trace, each round has exactly one root span, and
// client posts hang off gateway rounds.
func TestTracingIsObserveOnly(t *testing.T) {
	spec := collecttest.Spec{N: 12, Oracle: fo.NewGRR(5), BaseSeed: 4200}
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")

	traced := runObservedCollection(t, spec, tracePath)
	plain := runObservedCollection(t, spec, "")
	if len(traced) != len(plain) {
		t.Fatalf("round counts differ: %d vs %d", len(traced), len(plain))
	}
	for i := range traced {
		if len(traced[i]) != len(plain[i]) {
			t.Fatalf("round %d estimate lengths differ", i+1)
		}
		for j := range traced[i] {
			if traced[i][j] != plain[i][j] {
				t.Fatalf("round %d estimate[%d]: traced %v != plain %v — telemetry influenced the release",
					i+1, j, traced[i][j], plain[i][j])
			}
		}
	}

	spans, err := obs.ReadSpans(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("traced run wrote no spans")
	}
	byID := make(map[string]obs.SpanRecord, len(spans))
	names := make(map[string]int)
	srcs := make(map[string]bool)
	rootsPerTrace := make(map[string]int)
	for _, sp := range spans {
		if _, dup := byID[sp.Span]; dup {
			t.Fatalf("duplicate span id %s", sp.Span)
		}
		byID[sp.Span] = sp
		names[sp.Name]++
		srcs[sp.Src] = true
		if sp.Parent == "" {
			rootsPerTrace[sp.Trace]++
			if sp.Name != "round" || sp.Src != "gateway" {
				t.Errorf("root span is %s/%s, want gateway/round", sp.Src, sp.Name)
			}
		}
	}
	for _, name := range []string{"round", "batch", "post"} {
		if names[name] == 0 {
			t.Errorf("no %q spans recorded (names: %v)", name, names)
		}
	}
	if !srcs["gateway"] || !srcs["client"] {
		t.Errorf("span sources = %v, want both gateway and client", srcs)
	}
	if len(rootsPerTrace) != 3 {
		t.Errorf("distinct rooted traces = %d, want 3 (one per round)", len(rootsPerTrace))
	}
	for trace, roots := range rootsPerTrace {
		if roots != 1 {
			t.Errorf("trace %s has %d roots, want 1", trace, roots)
		}
	}
	// Connectivity: every non-root parent edge resolves to a span in the
	// same trace. Client posts therefore chain up to gateway rounds.
	for _, sp := range spans {
		if sp.Parent == "" {
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			t.Errorf("span %s (%s/%s) parent %s not in trace log", sp.Span, sp.Src, sp.Name, sp.Parent)
			continue
		}
		if parent.Trace != sp.Trace {
			t.Errorf("span %s crosses traces: %s vs parent %s", sp.Span, sp.Trace, parent.Trace)
		}
	}
}
