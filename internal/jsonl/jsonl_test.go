package jsonl

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type rec struct {
	ID   string `json:"id"`
	Note string `json:"note,omitempty"`
}

func hasID(r *rec) bool { return r.ID != "" }

func tmpPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "log.jsonl")
}

// TestAppendReadRoundTrip covers the happy path, Create's truncation, and
// Open's appending after the records already there.
func TestAppendReadRoundTrip(t *testing.T) {
	path := tmpPath(t)
	if err := os.WriteFile(path, []byte(`{"id":"stale"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Create[rec](path)
	if err != nil {
		t.Fatal(err)
	}
	a.Append(rec{ID: "a", Note: "first"})
	a.Append(rec{ID: "b"})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	var seen []string
	a, err = Open(path, func(r *rec) bool { seen = append(seen, r.ID); return true })
	if err != nil {
		t.Fatal(err)
	}
	a.Append(rec{ID: "c"})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(seen, ",") != "a,b" {
		t.Fatalf("Open visited %v, want the two records Create left", seen)
	}
	got, err := Read(path, hasID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != (rec{ID: "a", Note: "first"}) || got[2].ID != "c" {
		t.Fatalf("read back %+v", got)
	}
}

// TestTornTail proves the crash discipline on both sides: Read drops a
// torn final line (no newline, an undecodable fragment, or a decodable
// line that is not a record), and Open truncates it away so the next
// append does not glue onto the fragment.
func TestTornTail(t *testing.T) {
	intact := `{"id":"a"}` + "\n" + `{"id":"b"}` + "\n"
	for name, tail := range map[string]string{
		"no-newline":    `{"id":"c","no`,
		"torn-fragment": `{"id":"c","no` + "\n",
		"not-a-record":  `{"note":"idless"}` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := tmpPath(t)
			if err := os.WriteFile(path, []byte(intact+tail), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := Read(path, hasID)
			if err != nil || len(got) != 2 {
				t.Fatalf("Read over a torn tail = %d records, %v; want the 2 intact ones", len(got), err)
			}
			a, err := Open(path, hasID)
			if err != nil {
				t.Fatalf("Open over a torn tail: %v", err)
			}
			a.Append(rec{ID: "d"})
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := intact + `{"id":"d"}` + "\n"; string(data) != want {
				t.Fatalf("after recovery the file holds %q, want %q", data, want)
			}
		})
	}
}

// TestMidFileCorruption proves tampering detection: a damaged line that is
// not the final append cannot occur under append-only writes and must be
// reported with its byte offset, by Read and Open alike, never skipped.
func TestMidFileCorruption(t *testing.T) {
	first := `{"id":"a"}` + "\n"
	for name, bad := range map[string]string{
		"undecodable":  "not json at all\n",
		"not-a-record": `{"note":"idless"}` + "\n",
		"long":         strings.Repeat("x", 500) + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := tmpPath(t)
			if err := os.WriteFile(path, []byte(first+bad+`{"id":"b"}`+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Read(path, hasID)
			if err == nil || !strings.Contains(err.Error(), "corrupt record at byte 11") {
				t.Fatalf("Read: mid-file corruption must name its offset, got %v", err)
			}
			if len(err.Error()) > 300 {
				t.Fatalf("the quoted line is not bounded: %d-byte error", len(err.Error()))
			}
			if _, err := Open(path, hasID); err == nil || !strings.Contains(err.Error(), "corrupt record") {
				t.Fatalf("Open: mid-file corruption must error, got %v", err)
			}
		})
	}
}

// TestNilAppenderIsSafe proves instrumented code paths need no guards.
func TestNilAppenderIsSafe(t *testing.T) {
	var a *Appender[rec]
	a.Append(rec{ID: "a"})
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStickyError proves append failures — write errors and unmarshalable
// records alike — surface at Err and Close without failing the appends
// themselves, and that the first one wins.
func TestStickyError(t *testing.T) {
	a, err := Create[rec](tmpPath(t))
	if err != nil {
		t.Fatal(err)
	}
	a.f.Close() // force every subsequent write to fail
	a.Append(rec{ID: "a"})
	first := a.Err()
	if first == nil {
		t.Fatal("append to a closed file must stick an error")
	}
	a.Append(rec{ID: "b"})
	if err := a.Close(); err != first {
		t.Fatalf("Close = %v, want the first sticky error %v", err, first)
	}

	b, err := Create[map[string]any](tmpPath(t))
	if err != nil {
		t.Fatal(err)
	}
	b.Append(map[string]any{"f": func() {}})
	b.Append(map[string]any{"ok": true})
	if err := b.Close(); err == nil || !strings.Contains(err.Error(), "unsupported type") {
		t.Fatalf("a record that does not marshal must stick, got %v", err)
	}
}
