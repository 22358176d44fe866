// Package runlog persists completed experiment cells in an append-only,
// content-addressed journal, so interrupted evaluation runs resume instead
// of restarting (the experiment scheduler skips any run whose hash is
// already journaled).
//
// The journal is an internal/jsonl file: one Record per line, carrying the
// run's canonical content hash, an optional human-readable key (the
// preimage of the hash, for auditing), and a map of named metric values.
// The file is only ever appended to; a crash can therefore damage at most
// the final line, and Open drops a partial tail line (no trailing newline,
// or torn JSON) by truncating the file back to the last intact record.
// Torn lines in the middle of the file cannot result from append-only
// writes and are reported as corruption.
//
// Records with the same hash may appear more than once (for example when a
// later run computes additional metrics for an already-journaled cell);
// their metric maps merge in file order, later values winning per key.
// Because metric values are float64s serialized by encoding/json (shortest
// round-trippable form), a value read back from the journal is bit-identical
// to the value that was appended — resumed runs reproduce fresh runs
// exactly.
package runlog

import (
	"fmt"
	"sync"

	"ldpids/internal/jsonl"
)

// Metrics maps metric selector names (for example "MRE" or "CFPU") to
// their computed values for one run.
type Metrics map[string]float64

// Record is one journal line: the content hash of a run, an optional
// human-readable canonical key, and the run's metric values.
type Record struct {
	// Hash is the canonical content hash addressing the run.
	Hash string `json:"hash"`
	// Key optionally carries the hash preimage, so journals stay
	// auditable with standard text tools.
	Key string `json:"key,omitempty"`
	// Metrics holds the run's named metric values.
	Metrics Metrics `json:"metrics"`
}

// Journal is an open run journal. All methods are safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	log  *jsonl.Appender[Record]
	path string
	recs map[string]Metrics
}

// Open loads (or creates) the journal at path, drops a partial tail line
// left by a crash, and positions the file for appending.
func Open(path string) (*Journal, error) {
	j := &Journal{path: path, recs: make(map[string]Metrics)}
	var err error
	j.log, err = jsonl.Open(path, func(rec *Record) bool {
		if rec.Hash == "" {
			return false
		}
		j.merge(*rec)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	return j, nil
}

// merge folds rec into the in-memory index; callers hold mu (or are still
// single-goroutine in Open).
func (j *Journal) merge(rec Record) {
	m := j.recs[rec.Hash]
	if m == nil {
		m = make(Metrics, len(rec.Metrics))
		j.recs[rec.Hash] = m
	}
	for k, v := range rec.Metrics {
		m[k] = v
	}
}

// Append writes rec as one journal line and folds it into the index. The
// write is a single syscall, so a crash leaves at most a droppable partial
// tail. A failed append sticks: it and every later Append return it.
func (j *Journal) Append(rec Record) error {
	if rec.Hash == "" {
		return fmt.Errorf("runlog: record without hash")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.log.Append(rec)
	if err := j.log.Err(); err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	j.merge(rec)
	return nil
}

// Lookup returns the merged metrics journaled for hash.
func (j *Journal) Lookup(hash string) (Metrics, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	m, ok := j.recs[hash]
	if !ok {
		return nil, false
	}
	cp := make(Metrics, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp, true
}

// All returns a copy of every journaled record's merged metrics, keyed by
// hash.
func (j *Journal) All() map[string]Metrics {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]Metrics, len(j.recs))
	for h, m := range j.recs {
		cp := make(Metrics, len(m))
		for k, v := range m {
			cp[k] = v
		}
		out[h] = cp
	}
	return out
}

// Len reports the number of distinct journaled hashes.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close releases the underlying file.
func (j *Journal) Close() error { return j.log.Close() }
