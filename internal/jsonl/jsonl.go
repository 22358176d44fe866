// Package jsonl is the one crash-safe append-only JSONL file under the
// run journal (internal/runlog), the ingest history (internal/history)
// and the trace log (internal/obs): one JSON record per line.
//
// The file is opened O_APPEND and every Append is a single write syscall,
// so a crash can damage at most the final line — and even two processes
// sharing a file interleave whole records instead of overwriting each
// other at stale offsets. Readers therefore drop a torn final line (no
// trailing newline, or a fragment that does not decode) and report a bad
// line anywhere else, which append-only writes cannot produce, as
// corruption with its byte offset. Open repairs a torn tail by truncating
// the file back to the last intact record before the first append, so a
// new record never glues onto a fragment.
//
// An Appender is deliberately forgiving at runtime: every method is a
// no-op on a nil receiver, so instrumented code paths need no guards, and
// a failed append sticks (surfaced by Err and Close) instead of failing
// the operation that triggered it — an audit trail must never take the
// service down.
package jsonl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Appender is a JSONL file open for appending records of type T. All
// methods are safe for concurrent use and on a nil receiver.
type Appender[T any] struct {
	mu   sync.Mutex
	f    *os.File
	path string
	err  error // first append failure, sticky
}

// Create truncates (or creates) the file at path and opens it for
// appending.
func Create[T any](path string) (*Appender[T], error) {
	return open[T](path, os.O_TRUNC, nil)
}

// Open opens (or creates) the file at path for appending after the
// records already there. Each existing record is handed to visit (nil
// accepts them all), which returns false for a record that is not valid;
// a crash-torn tail is truncated away and any other bad line fails the
// open.
func Open[T any](path string, visit func(*T) bool) (*Appender[T], error) {
	return open(path, 0, visit)
}

func open[T any](path string, flag int, visit func(*T) bool) (*Appender[T], error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND|flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jsonl: %w", err)
	}
	if flag&os.O_TRUNC == 0 {
		if err := repair(f, path, visit); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &Appender[T]{f: f, path: path}, nil
}

// repair scans the records already in f and cuts a torn tail off.
func repair[T any](f *os.File, path string, visit func(*T) bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("jsonl: %w", err)
	}
	intact, err := scan(path, data, visit)
	if err != nil {
		return err
	}
	if intact < len(data) {
		if err := f.Truncate(int64(intact)); err != nil {
			return fmt.Errorf("jsonl: dropping the torn tail of %s: %w", path, err)
		}
	}
	return nil
}

// Append writes rec as one line in a single write syscall. rec is
// serialized before Append returns, so it may alias buffers the caller
// reuses afterwards. Failures do not propagate to the caller; the first
// one sticks, stops further appends, and surfaces through Err and Close.
func (a *Appender[T]) Append(rec T) {
	if a == nil {
		return
	}
	line, err := json.Marshal(rec)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return
	}
	if err == nil {
		_, err = a.f.Write(append(line, '\n'))
	}
	if err != nil {
		a.err = fmt.Errorf("jsonl: append to %s: %w", a.path, err)
	}
}

// Err returns the first append failure, if any.
func (a *Appender[T]) Err() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Close releases the file, returning the sticky append error (preferred)
// or the close error.
func (a *Appender[T]) Close() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	closeErr := a.f.Close()
	if a.err != nil {
		return a.err
	}
	return closeErr
}

// Read parses every intact record of the file at path. valid (nil accepts
// everything that decodes) returns false for a decoded record that is not
// one — a line of well-formed JSON missing its mandatory field. A torn
// final line is dropped; a bad line anywhere else is an error.
func Read[T any](path string, valid func(*T) bool) ([]T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("jsonl: %w", err)
	}
	var recs []T
	_, err = scan(path, data, func(rec *T) bool {
		if valid != nil && !valid(rec) {
			return false
		}
		recs = append(recs, *rec)
		return true
	})
	return recs, err
}

// scan decodes data line by line, handing each record to visit, and
// returns the offset just past the last intact record. A line that does
// not decode (or that visit rejects) is a torn tail when nothing follows
// it, and mid-file corruption otherwise.
func scan[T any](path string, data []byte, visit func(*T) bool) (intact int, err error) {
	for intact < len(data) {
		nl := bytes.IndexByte(data[intact:], '\n')
		if nl < 0 {
			break // no newline: a torn final append
		}
		line := data[intact : intact+nl]
		var rec T
		if err := json.Unmarshal(line, &rec); err != nil || visit != nil && !visit(&rec) {
			if intact+nl+1 >= len(data) {
				break // a torn final line that happened to include a newline
			}
			const max = 120
			if len(line) > max {
				line = append(line[:max:max], "..."...)
			}
			return intact, fmt.Errorf("jsonl: %s: corrupt record at byte %d: %q", path, intact, line)
		}
		intact += nl + 1
	}
	return intact, nil
}
