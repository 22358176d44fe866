package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSpanContextRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: "0123456789abcdef0123456789abcdef", Span: "0123456789abcdef"}
	got, ok := ParseSpanContext(sc.String())
	if !ok || got != sc {
		t.Errorf("round trip: got %+v, %v", got, ok)
	}
	for _, bad := range []string{"", "abc", "xyz-123", "ABC-def", "-", "abc-", "-def"} {
		if _, ok := ParseSpanContext(bad); ok {
			t.Errorf("ParseSpanContext(%q) = ok, want reject", bad)
		}
	}
	if (SpanContext{}).String() != "" {
		t.Error("zero context should render empty")
	}
}

func TestTracerSpanLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	log, err := CreateTraceLog(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer("gateway", log)

	root := tr.Start("round", SpanContext{}, 7)
	if !root.Context().Valid() {
		t.Fatal("root span has invalid context")
	}
	child := tr.Start("batch", root.Context(), 0)
	child.SetRound(7)
	child.End(map[string]any{"reports": 3})
	root.End(nil)
	root.End(nil) // double End records once
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	spans, err := ReadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	batch, round := spans[0], spans[1]
	if batch.Name != "batch" || round.Name != "round" {
		t.Fatalf("span order: %s, %s", batch.Name, round.Name)
	}
	if batch.Trace != round.Trace {
		t.Errorf("trace ids differ: %s vs %s", batch.Trace, round.Trace)
	}
	if batch.Parent != round.Span {
		t.Errorf("batch parent %s != round span %s", batch.Parent, round.Span)
	}
	if round.Parent != "" {
		t.Errorf("root span has parent %s", round.Parent)
	}
	if batch.Round != 7 || round.Round != 7 {
		t.Errorf("rounds: %d, %d; want 7, 7", batch.Round, round.Round)
	}
	if batch.Src != "gateway" {
		t.Errorf("src = %s", batch.Src)
	}
}

func TestNilTracerPassesContextThrough(t *testing.T) {
	var tr *Tracer
	parent := SpanContext{Trace: "aa", Span: "bb"}
	sp := tr.Start("x", parent, 1)
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	if got := sp.ContextOr(parent); got != parent {
		t.Errorf("ContextOr = %+v, want parent", got)
	}
	sp.SetRound(2)
	sp.SetParent(parent)
	sp.End(nil)
	if NewTracer("x", nil) != nil {
		t.Error("NewTracer with nil log should return nil")
	}
}

func TestTraceLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	log, err := CreateTraceLog(path)
	if err != nil {
		t.Fatal(err)
	}
	log.Append(SpanRecord{Trace: "t", Span: "a", Name: "one", Src: "s"})
	log.Append(SpanRecord{Trace: "t", Span: "b", Name: "two", Src: "s"})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: tear the final line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(path)
	if err != nil {
		t.Fatalf("torn tail should be dropped, got error: %v", err)
	}
	if len(spans) != 1 || spans[0].Span != "a" {
		t.Fatalf("got %d spans, want the single intact record", len(spans))
	}

	// Mid-file corruption (complete lines after the bad one) is an error.
	if err := os.WriteFile(path, append([]byte("{garbage\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSpans(path); err == nil {
		t.Error("mid-file corruption not reported")
	}
}

func TestTraceLogAppendsAcrossIncarnations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	for i := 0; i < 2; i++ {
		log, err := CreateTraceLog(path)
		if err != nil {
			t.Fatal(err)
		}
		log.Append(SpanRecord{Trace: "t", Span: "s", Name: "n", Src: "s"})
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	spans, err := ReadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans after two incarnations, want 2", len(spans))
	}
}

// TestTraceLogReopenRepairsTornTail is the restarted-replica regression:
// an incarnation that crashed mid-append leaves a torn last line, and the
// next incarnation sharing the file must cut it off before appending —
// otherwise its first span glues onto the fragment and ReadSpans fails
// the whole file as mid-file corruption.
func TestTraceLogReopenRepairsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	log, err := CreateTraceLog(path)
	if err != nil {
		t.Fatal(err)
	}
	log.Append(SpanRecord{Trace: "t", Span: "a", Name: "one", Src: "s"})
	log.Append(SpanRecord{Trace: "t", Span: "b", Name: "two", Src: "s"})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	log, err = CreateTraceLog(path)
	if err != nil {
		t.Fatal(err)
	}
	log.Append(SpanRecord{Trace: "t", Span: "c", Name: "three", Src: "s"})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(path)
	if err != nil {
		t.Fatalf("a log reopened over a torn tail must stay readable: %v", err)
	}
	if len(spans) != 2 || spans[0].Span != "a" || spans[1].Span != "c" {
		t.Fatalf("got %+v, want the intact span a and the new span c", spans)
	}
}

func TestChromeTrace(t *testing.T) {
	spans := []SpanRecord{
		{Trace: "t1", Span: "a", Name: "round", Src: "coordinator", Round: 3, Start: 2000, Dur: 5000},
		{Trace: "t1", Span: "b", Parent: "a", Name: "shard-round", Src: "replica-r1", Round: 3, Start: 2500, Dur: 2000},
		{Trace: "t1", Span: "c", Parent: "b", Name: "post", Src: "client", Round: 3, Start: 2600, Dur: 100},
	}
	out, err := ChromeTrace(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var metas, complete int
	procs := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			metas++
			if args, ok := ev["args"].(map[string]any); ok {
				procs[args["name"].(string)] = true
			}
		case "X":
			complete++
		}
	}
	if metas != 3 || complete != 3 {
		t.Fatalf("got %d metadata + %d complete events, want 3 + 3", metas, complete)
	}
	for _, p := range []string{"client", "replica-r1", "coordinator"} {
		if !procs[p] {
			t.Errorf("missing process_name metadata for %s", p)
		}
	}
	if !strings.Contains(string(out), `"traceEvents"`) {
		t.Error("missing traceEvents key")
	}
}
