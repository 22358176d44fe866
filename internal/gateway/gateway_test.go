package gateway

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ldpids/internal/comm"
	"ldpids/internal/device"
	"ldpids/internal/fo"
	"ldpids/internal/history"
	"ldpids/internal/serve"
	"ldpids/internal/store"
)

// flags returns ldpids-gateway's flag defaults moved to an ephemeral port,
// set to the deployment CI's smoke jobs run: LPA over GRR, n=300, d=8,
// T=25, w=5, server seed 7, device seed 99.
func flags() Config {
	return Config{
		Addr: "127.0.0.1:0", Backend: "http", Role: "single", Wire: "json",
		N: 300, D: 8, Method: "LPA", W: 5, Eps: 1, T: 25, Oracle: "GRR",
		Seed: 7, ClientSeed: 99, RoundTimeout: serve.DefaultTimeout,
	}
}

// start starts cfg, failing the test on error.
func start(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// closeGateway closes g, failing the test on a log-close error.
func closeGateway(t *testing.T, g *Gateway) {
	t.Helper()
	if err := g.Close(); err != nil {
		t.Error(err)
	}
}

// devices hosts users [first, first+count) of the -client-seed population
// on conns serve.Clients reporting to the gateway g over its -wire, as
// ldpids-client would. The returned stop closes the clients and waits for
// their loops.
func devices(t *testing.T, g *Gateway, first, count, conns int) (stop func()) {
	t.Helper()
	cfg := g.cfg
	o, err := fo.New(cfg.Oracle, cfg.D)
	if err != nil {
		t.Fatal(err)
	}
	pop := device.NewPopulation(cfg.ClientSeed, first, count, cfg.D)
	fns := serve.Funcs{Report: pop.Report(o)}
	var (
		wg      sync.WaitGroup
		clients []*serve.Client
	)
	for i := 0; i < conns; i++ {
		lo, hi := first+i*count/conns, first+(i+1)*count/conns
		c, err := serve.NewClient("http://"+g.Addr(), lo, hi-lo, fns)
		if err != nil {
			t.Fatal(err)
		}
		c.Wire = serve.Wire(cfg.Wire)
		clients = append(clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Serve(); err != nil {
				t.Errorf("device client [%d,%d): %v", lo, hi, err)
			}
		}()
	}
	return func() {
		for _, c := range clients {
			c.Close()
		}
		wg.Wait()
	}
}

// runToEnd runs g for its -T timestamps, failing the test if the stream
// ends early.
func runToEnd(t *testing.T, g *Gateway) {
	t.Helper()
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// runSingle runs one single-role deployment end to end — with device
// clients unless the backend is sim — and returns its bill.
func runSingle(t *testing.T, cfg Config, conns int) comm.Stats {
	t.Helper()
	g := start(t, cfg)
	stop := func() {}
	if cfg.Backend == "http" {
		stop = devices(t, g, 0, cfg.N, conns)
	}
	runToEnd(t, g)
	stats := g.Stats()
	closeGateway(t, g)
	stop()
	return stats
}

// checkHistory proves the ingest history at path clean under
// history.Check and, given a release log, its release records bit-equal to
// it (what ldpids-check -releases does).
func checkHistory(t *testing.T, path, releases string) {
	t.Helper()
	recs, err := history.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	res := history.Check(recs)
	if !res.OK() {
		t.Errorf("%s: %d violations, first: %s", path, len(res.Violations), res.Violations[0])
	}
	if res.Summary.OKRounds == 0 {
		t.Errorf("%s: no round closed ok: the checker proved nothing", path)
	}
	if releases == "" {
		return
	}
	ts, hists, err := store.ReadAll(releases)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, rec := range recs {
		if rec.Kind != history.KindRelease {
			continue
		}
		if i >= len(ts) || rec.T != ts[i] || !slices.Equal(rec.Values, hists[i]) {
			t.Fatalf("%s: release %d (t=%d) differs from %s", path, i, rec.T, releases)
		}
		i++
	}
	if i != len(ts) || i == 0 {
		t.Fatalf("%s journals %d releases, %s holds %d", path, i, releases, len(ts))
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestConformanceAcrossRoles is the same-behaviour bar, in-process: the
// same seeds through every role and wire — simulated devices, HTTP with
// JSON batches, HTTP with binary batches, a coordinator with two replicas
// — release byte-identical logs, and every ingest history is checker-clean
// and agrees with its release log. It runs CI's GRR deployment and, as
// OUE-packed-d70, the packed-report path over a domain with a partial tail
// word, whose sim release log is pinned to the digest recorded before
// packed payloads became bytes (commit bf2066c).
func TestConformanceAcrossRoles(t *testing.T) {
	conformanceAcrossRoles(t, flags(), "")
	t.Run("OUE-packed-d70", func(t *testing.T) {
		cfg := flags()
		cfg.Oracle, cfg.D = "OUE-packed", 70
		conformanceAcrossRoles(t, cfg, "fb2cd4df54ca37b1fe3044ed20b4afaa9d0be9ceeedc9fdaa097a2aaba130829")
	})
}

// conformanceAcrossRoles runs base through every role and wire; a non-empty
// simSum is the sha256 the sim release log must have.
func conformanceAcrossRoles(t *testing.T, base Config, simSum string) {
	dir := t.TempDir()
	sim := base
	sim.Backend = "sim"
	sim.Out = filepath.Join(dir, "sim.ldps")
	runSingle(t, sim, 0)
	want := readFile(t, sim.Out)
	if ts, _, err := store.ReadAll(sim.Out); err != nil || len(ts) != sim.T {
		t.Fatalf("sim release log holds %d releases (err %v), want %d", len(ts), err, sim.T)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(want)); simSum != "" && got != simSum {
		t.Errorf("sim release log has sha256 %s, want %s", got, simSum)
	}

	for _, wire := range []string{"json", "binary"} {
		wire := wire
		t.Run("single-http-"+wire, func(t *testing.T) {
			cfg := base
			cfg.Wire = wire
			cfg.Out = filepath.Join(dir, wire+".ldps")
			cfg.IngestLog = filepath.Join(dir, wire+".jsonl")
			runSingle(t, cfg, 4)
			if !bytes.Equal(readFile(t, cfg.Out), want) {
				t.Errorf("%s-wire release log differs from the sim run's", wire)
			}
			checkHistory(t, cfg.IngestLog, cfg.Out)
		})
	}

	t.Run("cluster", func(t *testing.T) {
		cfg := base
		cfg.Role = "coordinator"
		cfg.Out = filepath.Join(dir, "cluster.ldps")
		cfg.IngestLog = filepath.Join(dir, "coord.jsonl")
		coord := start(t, cfg)

		ctx, cancel := context.WithCancel(context.Background())
		var (
			wg       sync.WaitGroup
			replicas []*Gateway
			stops    []func()
		)
		for _, shard := range []string{"0:150", "150:300"} {
			rc := base
			rc.Role = "replica"
			rc.Peers = coord.Addr() // scheme-less, as CI passes it
			rc.Shard = shard
			rc.Wire = "binary"
			rc.IngestLog = filepath.Join(dir, "replica-"+strings.Replace(shard, ":", "-", 1)+".jsonl")
			rep := start(t, rc)
			replicas = append(replicas, rep)
			stops = append(stops, devices(t, rep, rep.replica.Lo, rep.replica.Hi-rep.replica.Lo, 2))
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := rep.Run(ctx); err != nil {
					t.Error(err)
				}
			}()
		}
		runToEnd(t, coord)
		// Replicas leave gracefully while the coordinator still answers.
		cancel()
		wg.Wait()
		closeGateway(t, coord)
		for i, rep := range replicas {
			closeGateway(t, rep)
			stops[i]()
			checkHistory(t, rep.cfg.IngestLog, "")
		}
		if !bytes.Equal(readFile(t, cfg.Out), want) {
			t.Error("cluster release log differs from the sim run's")
		}
		checkHistory(t, cfg.IngestLog, cfg.Out)
	})
}

// TestMeanConformanceAcrossRoles holds the Mean oracle to the same bar as
// every categorical oracle: LPA's mean releases are byte-identical across
// the sim, both HTTP wires and a coordinator with two replicas, and every
// ingest history refolds clean (invariant 7) — and stops being clean when
// one counter of a mean round's close record is changed.
func TestMeanConformanceAcrossRoles(t *testing.T) {
	cfg := flags()
	cfg.Oracle = "Mean"
	conformanceAcrossRoles(t, cfg, "")
	t.Run("mutated-close", func(t *testing.T) {
		cfg.IngestLog = filepath.Join(t.TempDir(), "ingest.jsonl")
		runSingle(t, cfg, 3)
		recs, err := history.ReadAll(cfg.IngestLog)
		if err != nil {
			t.Fatal(err)
		}
		if res := history.Check(recs); !res.OK() {
			t.Fatalf("unmutated history: %q", res.Violations)
		}
		for _, rec := range recs {
			if rec.Kind == history.KindClose && rec.Counters != nil {
				rec.Counters.Counts[0]++
				break
			}
		}
		res := history.Check(recs)
		if len(res.Violations) != 1 || !strings.Contains(res.Violations[0], "closing counters are not reachable") {
			t.Fatalf("one mutated mean counter: violations %q, want exactly the refold's", res.Violations)
		}
	})
}

// TestNumericOverHTTP: a mean mechanism (LPU over the Mean oracle) runs end
// to end over the HTTP backend, releases what the simulated backend
// releases, and bills every 8-byte value with the wire's framing on top.
func TestNumericOverHTTP(t *testing.T) {
	dir := t.TempDir()
	cfg := flags()
	cfg.Oracle, cfg.Method, cfg.W, cfg.T = "Mean", "LPU", 3, 9
	cfg.Out = filepath.Join(dir, "http.ldps")
	bill := runSingle(t, cfg, 1)

	sim := cfg
	sim.Backend = "sim"
	sim.Out = filepath.Join(dir, "sim.ldps")
	runSingle(t, sim, 0)
	if !bytes.Equal(readFile(t, cfg.Out), readFile(t, sim.Out)) {
		t.Error("numeric releases over HTTP differ from the sim run's")
	}
	if ts, means, err := store.ReadAll(cfg.Out); err != nil || len(ts) != cfg.T || len(means[0]) != 1 {
		t.Fatalf("numeric release log: %d releases (err %v), want %d one-element ones", len(ts), err, cfg.T)
	}

	if want := int64(cfg.T * (cfg.N / cfg.W)); bill.Reports != want {
		t.Errorf("LPU uploaded %d reports, want T*(n/w) = %d", bill.Reports, want)
	}
	b, err := serve.NewBackend(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := bill.Reports * int64(8+b.FrameOverhead(8)); bill.Bytes != want {
		t.Errorf("numeric rounds billed %d bytes, want %d", bill.Bytes, want)
	}
}

// TestPopulationDivisionOverHTTP: the paper's communication claim on the
// real stack — LPA samples a fraction of the users per timestamp, so its
// communication frequency per user stays well under one.
func TestPopulationDivisionOverHTTP(t *testing.T) {
	bill := runSingle(t, flags(), 3)
	if bill.Reports == 0 || bill.CFPU >= 1 {
		t.Fatalf("LPA over HTTP: %d reports, CFPU %v, want 0 < CFPU < 1", bill.Reports, bill.CFPU)
	}
}

// TestCancelMidStream: cancelling Run's context in the middle of an
// unbounded stream is a clean stop — Run returns nil once the current
// round is done, and Close leaves a readable release log and a
// checker-clean history that agree.
func TestCancelMidStream(t *testing.T) {
	dir := t.TempDir()
	cfg := flags()
	cfg.T = 0
	cfg.Interval = 5 * time.Millisecond
	cfg.Out = filepath.Join(dir, "out.ldps")
	cfg.IngestLog = filepath.Join(dir, "ingest.jsonl")
	g := start(t, cfg)
	stop := devices(t, g, 0, cfg.N, 2)
	defer stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- g.Run(ctx) }()

	// Wait on the live query endpoint for the stream to be under way.
	for deadline := time.Now().Add(30 * time.Second); ; {
		var snap serve.Snapshot
		resp, err := http.Get("http://" + g.Addr() + "/v1/estimate")
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				err = json.NewDecoder(resp.Body).Decode(&snap)
			}
			resp.Body.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		if snap.Version >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no fifth release within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run after cancel = %v, want nil", err)
	}
	closeGateway(t, g)

	ts, _, err := store.ReadAll(cfg.Out)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) < 5 {
		t.Fatalf("release log holds %d releases, want the 5 seen live", len(ts))
	}
	checkHistory(t, cfg.IngestLog, cfg.Out)
}

// TestHistoryAttachedBeforeListening is the regression test for the
// journal being attached after the listener went live: a forged batch
// posted as soon as Start returns — no round was ever open — must be
// refused and that refusal must be in the journal (and, under -race, the
// handler's read of Backend.History must not race its assignment).
func TestHistoryAttachedBeforeListening(t *testing.T) {
	cfg := flags()
	cfg.IngestLog = filepath.Join(t.TempDir(), "ingest.jsonl")
	g := start(t, cfg)
	body := `{"round":1,"token":"forged","reports":[{"user":0,"kind":"value","value":1}]}`
	resp, err := http.Post("http://"+g.Addr()+"/v1/report", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("forged batch answered %d, want 409", resp.StatusCode)
	}
	closeGateway(t, g)

	recs, err := history.ReadAll(cfg.IngestLog)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Kind == history.KindBatch && rec.Verdict == history.VerdictRefused &&
			rec.Reason == history.ReasonStaleToken && rec.Token == "forged" {
			return
		}
	}
	t.Fatalf("the forged batch's refusal is not among the %d journal records", len(recs))
}

// TestStartRejectsBadConfig: every misconfiguration is an error from
// Start, before any file is created or port bound.
func TestStartRejectsBadConfig(t *testing.T) {
	replica := func(shard string) func(*Config) {
		return func(c *Config) { c.Role, c.Peers, c.Shard = "replica", "127.0.0.1:1", shard }
	}
	cases := []struct {
		name string
		edit func(*Config)
		want string // substring of the error
	}{
		{"empty population", func(c *Config) { c.N = 0 }, "must be positive"},
		{"empty domain", func(c *Config) { c.D = 0 }, "must be positive"},
		{"unknown role", func(c *Config) { c.Role = "observer" }, "unknown -role"},
		{"unknown backend", func(c *Config) { c.Backend = "tcp" }, "unknown -backend"},
		{"unknown wire", func(c *Config) { c.Wire = "gob" }, "unknown wire"},
		{"unknown method", func(c *Config) { c.Method = "LXX" }, "LXX"},
		{"unknown numeric method", func(c *Config) { c.Oracle, c.Method = "Mean", "LXX" }, "LXX"},
		{"unknown oracle", func(c *Config) { c.Oracle = "nope" }, "nope"},
		{"NaN eps", func(c *Config) { c.Eps = math.NaN() }, "eps must be positive and finite"},
		{"infinite eps", func(c *Config) { c.Eps = math.Inf(1) }, "eps must be positive and finite"},
		{"NaN eps numeric", func(c *Config) { c.Oracle, c.Method, c.Eps = "Mean", "LPA", math.NaN() }, "eps must be positive and finite"},
		{"infinite eps numeric", func(c *Config) { c.Oracle, c.Method, c.Eps = "Mean", "LPU", math.Inf(1) }, "eps must be positive and finite"},
		{"ingest log on sim", func(c *Config) { c.Backend = "sim" }, "-ingest-log needs -backend http"},
		{"replica without peers", func(c *Config) { c.Role, c.Shard = "replica", "0:150" }, "needs -peers"},
		{"replica without shard", replica(""), "needs -shard"},
		{"shard not a pair", replica("150"), "bad -shard"},
		{"shard not numeric", replica("a:b"), "bad -shard"},
		{"shard trailing junk", replica("0:150junk"), "bad -shard"},
		{"shard three parts", replica("1:2:3"), "bad -shard"},
		{"shard negative", replica("-1:5"), "want 0 <= lo < hi"},
		{"shard empty", replica("5:5"), "want 0 <= lo < hi"},
		{"shard reversed", replica("9:3"), "want 0 <= lo < hi"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := flags()
			cfg.Out = filepath.Join(dir, "out.ldps")
			cfg.IngestLog = filepath.Join(dir, "ingest.jsonl")
			cfg.TraceLog = filepath.Join(dir, "trace.jsonl")
			tc.edit(&cfg)
			g, err := Start(cfg)
			if err == nil {
				g.Close()
				t.Fatal("Start accepted the config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Start error = %q, want it to mention %q", err, tc.want)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("a rejected config left %d files behind", len(left))
			}
		})
	}
}

// TestStartFailureReleasesEverything: a Start that fails late — the front
// port is taken — closes the logs it had opened and the debug listener it
// had bound, so the same config starts cleanly once the port is free.
func TestStartFailureReleasesEverything(t *testing.T) {
	holder := start(t, flags())
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := flags()
	cfg.Backend = "sim"
	cfg.Addr = holder.Addr()
	cfg.DebugAddr = probe.Addr().String()
	cfg.Out = filepath.Join(t.TempDir(), "out.ldps")
	probe.Close()
	if g, err := Start(cfg); err == nil {
		g.Close()
		t.Fatal("Start bound a taken port")
	}
	closeGateway(t, holder)

	g := start(t, cfg) // fails on the debug port if the failed Start leaked it
	resp, err := http.Get("http://" + cfg.DebugAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug listener answered %d", resp.StatusCode)
	}
	runToEnd(t, g)
	closeGateway(t, g)
	if ts, _, err := store.ReadAll(cfg.Out); err != nil || len(ts) != cfg.T {
		t.Fatalf("release log holds %d releases (err %v), want %d", len(ts), err, cfg.T)
	}
}
