package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"ldpids/internal/collect"
	"ldpids/internal/collect/collecttest"
	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
)

// honestChunk is what a client hosting users [0, n) owes round ri: the
// reference the tests below hold posted bodies against.
func honestChunk(fns Funcs, ri *RoundInfo, n int) chunk {
	k := chunk{round: ri.Round, token: ri.Token}
	for u := 0; u < n; u++ {
		k.users = append(k.users, u)
		k.reports = append(k.reports, fns.Report(u, ri.T, ri.Eps))
	}
	return k
}

// TestClientFrameSurvivesEarlyAnswer drives the reused binary frame
// through the real transport's early-answer path: net/http writes a
// request body on its own goroutine and Do returns as soon as the server
// has answered, which — for a refusal sent before the body is read, like
// this server's 415 — is while that goroutine may still be reading the
// frame. The frame here is 8 MiB, more than the loopback socket buffers
// hold, so the write is still in flight when the 415 arrives. The JSON
// fallback must carry the very reports of the refused frame, and the next
// binary frame must arrive intact, with -race silent throughout.
// (TestClientFrameNotReusedWhileRead pins the lease itself, without
// depending on timing.)
func TestClientFrameSurvivesEarlyAnswer(t *testing.T) {
	const users, words = 64, 16384 // 64 × 128 KiB reports
	fns := Funcs{Report: func(id, tt int, _ float64) fo.Report {
		src := ldprand.New(uint64(id)<<20 | uint64(tt))
		packed := make([]uint64, words)
		for i := range packed {
			packed[i] = src.Uint64()
		}
		return fo.Report{Kind: fo.KindPacked, Value: -1, Packed: packedLE(packed...)}
	}}
	type post struct {
		contentType string
		body        []byte
	}
	var (
		mu    sync.Mutex
		posts []post
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		i := len(posts)
		posts = append(posts, post{contentType: r.Header.Get("Content-Type")})
		mu.Unlock()
		if i == 0 {
			// Refuse before reading a byte, like handleReport's 415.
			w.WriteHeader(http.StatusUnsupportedMediaType)
			return
		}
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		posts[i].body = body
		mu.Unlock()
		WriteJSON(w, reportAck{Accepted: users})
	}))
	defer ts.Close()

	cl, err := NewClient(ts.URL, 0, users, fns)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Wire = WireBinary
	ri := &RoundInfo{Round: 1, T: 1, Eps: 1, Token: "first"}
	if err := cl.answer(ri); err != nil {
		t.Fatal(err)
	}
	if len(posts) != 2 || posts[0].contentType != ContentTypeBinary || posts[1].contentType != ContentTypeJSON || !cl.jsonOnly {
		t.Fatalf("a 415 must be followed by one JSON re-post and latch; saw %d posts, jsonOnly=%v", len(posts), cl.jsonOnly)
	}
	if want, _ := json.Marshal(honestChunk(fns, ri, users).canonical()); !bytes.Equal(posts[1].body, want) {
		t.Fatal("the JSON fallback does not carry the refused frame's reports")
	}

	// Back on the binary wire, the next round's frame is built while the
	// transport may still hold the refused one.
	cl.jsonOnly = false
	ri = &RoundInfo{Round: 2, T: 2, Eps: 1, Token: "second"}
	if err := cl.answer(ri); err != nil {
		t.Fatal(err)
	}
	if len(posts) != 3 || posts[2].contentType != ContentTypeBinary {
		t.Fatalf("round 2 did not go out as one binary post (%d posts)", len(posts))
	}
	if want, _ := honestChunk(fns, ri, users).encodeBinary(nil); !bytes.Equal(posts[2].body, want) {
		t.Fatal("round 2's binary frame is not intact")
	}
}

// TestStripeChoiceUnobservable pins that dealing whole batches onto
// stripes reaches no released bit: however many concurrent posters split
// one OUE-packed round, and however they cut it into batches, the estimate
// is bit-identical to collect.Sim folding the same reports in user order.
func TestStripeChoiceUnobservable(t *testing.T) {
	const n, d, eps = 48, 200, 1.0
	spec := collecttest.Spec{N: n, Oracle: fo.NewOUEPacked(d), BaseSeed: 1600}
	report := spec.Reporter()
	ref, err := spec.Oracle.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	sim := &collect.Sim{Users: n, Report: report}
	if err := sim.Collect(collect.Request{T: 1, Eps: eps}, collect.AggregatorSink{Agg: ref}); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Estimate()
	if err != nil {
		t.Fatal(err)
	}

	for _, posters := range []int{1, 2, 3, 8} {
		backend, err := NewBackend(n)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(backend)
		agg, err := fo.NewStripedAggregator(spec.Oracle, eps, 4)
		if err != nil {
			t.Fatal(err)
		}
		ri, done := manualRound(t, backend, ts, collect.Request{T: 1, Eps: eps}, collect.AggregatorSink{Agg: agg})
		// Perturb in user order (each user owns its source), then deal the
		// users out arbitrarily: shuffled, poster p taking every posters-th,
		// in batches of 1 to 5.
		report := spec.Reporter()
		reports := make([]fo.Report, n)
		for u := range reports {
			reports[u] = report(u, 1, eps)
		}
		src := ldprand.New(uint64(posters))
		order := src.Perm(n)
		cuts := make([][]int, posters)
		for i, u := range order {
			cuts[i%posters] = append(cuts[i%posters], u)
		}
		var wg sync.WaitGroup
		for p, mine := range cuts {
			sizes := ldprand.New(uint64(posters)<<8 | uint64(p))
			wg.Add(1)
			go func(mine []int) {
				defer wg.Done()
				for len(mine) > 0 {
					k := chunk{round: ri.Round, token: ri.Token, users: mine[:min(1+sizes.Intn(5), len(mine))]}
					mine = mine[len(k.users):]
					for _, u := range k.users {
						k.reports = append(k.reports, reports[u])
					}
					frame, err := k.encodeBinary(nil)
					if err != nil {
						t.Error(err)
						return
					}
					resp, err := http.Post(ts.URL+"/v1/report", ContentTypeBinary, bytes.NewReader(frame))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%d posters: batch of %d answered %d", posters, len(k.users), resp.StatusCode)
					}
				}
			}(mine)
		}
		wg.Wait()
		if err := <-done; err != nil {
			t.Fatalf("%d posters: round: %v", posters, err)
		}
		got, err := agg.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d posters: the striped estimate differs from collect.Sim's", posters)
		}
		backend.Close()
		ts.Close()
	}
}

// lingeringTransport answers every post at once and, as net/http's
// contract lets a transport do, goes on reading the first request's body
// on its own goroutine after RoundTrip has returned — until resume closes.
type lingeringTransport struct {
	resume chan struct{}
	bodies chan []byte // every request body, as read
	posts  int
}

func (lt *lingeringTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	lt.posts++
	status := http.StatusOK
	read := func(wait <-chan struct{}) {
		defer req.Body.Close()
		body := make([]byte, req.ContentLength)
		half := len(body) / 2
		_, _ = io.ReadFull(req.Body, body[:half])
		<-wait
		_, _ = io.ReadFull(req.Body, body[half:])
		lt.bodies <- body
	}
	if lt.posts == 1 {
		// An early refusal: answered before the body is consumed.
		status = http.StatusServiceUnavailable
		go read(lt.resume)
	} else {
		done := make(chan struct{})
		close(done)
		read(done)
	}
	return &http.Response{StatusCode: status, Body: http.NoBody, Request: req}, nil
}

// TestClientFrameNotReusedWhileRead pins the frame's lease: a frame the
// transport is still reading when the post returns is left alone — the
// next post encodes into a fresh one — and comes home for reuse only once
// its last reader is closed.
func TestClientFrameNotReusedWhileRead(t *testing.T) {
	fns := Funcs{Report: func(id, tt int, _ float64) fo.Report {
		return fo.Report{Kind: fo.KindPacked, Value: -1, Packed: packedLE(uint64(tt), uint64(id), ^uint64(tt))}
	}}
	cl, err := NewClient("http://gateway.test", 0, 8, fns)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Wire = WireBinary
	lt := &lingeringTransport{resume: make(chan struct{}), bodies: make(chan []byte, 2)}
	cl.hc.Transport = lt
	want := func(ri *RoundInfo) []byte {
		frame, err := honestChunk(fns, ri, 8).encodeBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}

	first, second := &RoundInfo{Round: 1, T: 1, Token: "tok"}, &RoundInfo{Round: 2, T: 2, Token: "tok"}
	if err := cl.answer(first); err != nil { // 503, its body half read
		t.Fatal(err)
	}
	if err := cl.answer(second); err != nil {
		t.Fatal(err)
	}
	if got := <-lt.bodies; !bytes.Equal(got, want(second)) {
		t.Fatal("round 2's frame is not what the client perturbed")
	}
	if cl.frame.Load() == nil {
		t.Fatal("round 2's frame, fully read and closed, did not come home")
	}
	close(lt.resume)
	if got := <-lt.bodies; !bytes.Equal(got, want(first)) {
		t.Fatal("round 1's frame changed under the transport still reading it")
	}
}
