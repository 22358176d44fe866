package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ldpids/internal/fo"
	"ldpids/internal/history"
)

// registryAggregators returns one aggregator per registered oracle at
// d = 64, so a fuzz target folds whatever decodes into every oracle.
func registryAggregators(tb testing.TB) []fo.Aggregator {
	var aggs []fo.Aggregator
	for _, name := range fo.Names() {
		o, err := fo.New(name, 64)
		if err != nil {
			tb.Fatal(err)
		}
		agg, err := o.NewAggregator(1)
		if err != nil {
			tb.Fatal(err)
		}
		aggs = append(aggs, agg)
	}
	return aggs
}

// FuzzReportBatchDecode drives the /v1/report body decoding with
// arbitrary JSON: the batch decoder and the per-report decode must refuse
// garbage with errors, never panics, and anything the decode accepts must
// fold into every registered oracle's aggregator — or be refused by it —
// without panicking.
func FuzzReportBatchDecode(f *testing.F) {
	seed := func(batch reportBatch) []byte {
		body, err := json.Marshal(batch)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	f.Add(seed(reportBatch{Round: 1, Token: "tok", Reports: []history.Report{
		{User: 0, Kind: "value", Value: 3},
		{User: 1, Kind: "hash", Value: 2, Seed: 77},
	}}))
	f.Add(seed(reportBatch{Round: 2, Token: "tok", Reports: []history.Report{
		{User: 0, Kind: "packed", Value: -1, Packed: []byte{1, 0, 0, 0, 0, 0, 0, 0}},
		{User: 1, Kind: "unary", Value: -1, Bits: []byte{0, 1, 0, 0, 0, 0, 0, 1}},
	}}))
	f.Add(seed(reportBatch{Round: 3, Token: "tok", Reports: []history.Report{
		{User: 5, Kind: "numeric", Num: -0.25},
		{User: 6, Kind: "cohort", Value: 1, Seed: 3},
	}}))
	f.Add([]byte(`{"round":1,"token":"t","reports":[{"user":0,"kind":"packed","packed":"AQ=="}]}`))
	f.Add([]byte(`{"reports":[{`))
	f.Add([]byte(`{"round":1,"token":"t","reports":[{"user":0,"kind":"numeric","num":1e300}]}`))
	aggs := registryAggregators(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := decodeJSON(bytes.NewReader(data), DefaultMaxBatch)
		if err != nil {
			return
		}
		for _, wr := range batch.reports {
			if r, err := wr.Decode(true); err == nil {
				for _, agg := range aggs {
					_ = agg.Add(r) // mismatched kinds and shapes error; panics fail the fuzz
				}
			}
		}
	})
}

// FuzzReportHandler posts arbitrary bodies at a live backend with no
// open round: every request must be refused with a protocol status —
// 400 (malformed), 409 (no round to authenticate against), or 413
// (oversized) — and the backend must stay up.
func FuzzReportHandler(f *testing.F) {
	backend, err := NewBackend(4)
	if err != nil {
		f.Fatal(err)
	}
	backend.MaxBody = 1 << 16
	ts := httptest.NewServer(backend)
	f.Cleanup(func() {
		backend.Close()
		ts.Close()
	})
	f.Add([]byte(`{"round":1,"token":"tok","reports":[{"user":0,"kind":"value","value":1}]}`))
	f.Add([]byte(`{"round":9,"token":"","reports":[]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))
	f.Add(bytes.Repeat([]byte("a"), 1<<10))
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/report", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("closed-round report answered %d, want 400/409/413", resp.StatusCode)
		}
	})
}
