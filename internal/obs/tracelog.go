package obs

import "ldpids/internal/jsonl"

// SpanRecord is one completed span as a JSONL trace-log line.
type SpanRecord struct {
	Trace  string         `json:"trace"`
	Span   string         `json:"span"`
	Parent string         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Src    string         `json:"src"`
	Round  int64          `json:"round,omitempty"`
	Start  int64          `json:"start"` // wall clock, Unix nanoseconds
	Dur    int64          `json:"dur"`   // nanoseconds
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// TraceLog is a crash-safe JSONL span log with the same append
// discipline as the history journal (a jsonl.Appender): O_APPEND fd, one
// write syscall per record, so a crash tears at most the final line.
// Append failures stick and surface through Err/Close rather than
// failing the traced operation. All methods are nil-safe.
type TraceLog = jsonl.Appender[SpanRecord]

// CreateTraceLog opens path for appending, creating it if absent.
// Unlike the history journal it does not truncate: multiple process
// incarnations (e.g. a restarted replica) may share one trace file. A
// line the previous incarnation's crash tore is cut off first, so the
// next span never glues onto a fragment.
func CreateTraceLog(path string) (*TraceLog, error) {
	return jsonl.Open[SpanRecord](path, nil)
}

// ReadSpans reads every complete span record from a trace-log file. A
// torn final line (a crash mid-append) is dropped; corruption anywhere
// else is an error, since O_APPEND single-write discipline cannot
// produce it.
func ReadSpans(path string) ([]SpanRecord, error) {
	return jsonl.Read[SpanRecord](path, nil)
}
