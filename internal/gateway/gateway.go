// Package gateway assembles and runs one ldpids-gateway process: every
// deployment role — the all-in-one single gateway over HTTP or over an
// in-process simulated population, a cluster coordinator, a cluster
// ingestion replica — is built by Start through one assembly path from the
// same parts (metric registry, health probe, tracer, serve.Backend and/or
// cluster.Coordinator / cluster.Replica, snapshot store, ingest history,
// release log, mux), driven by Run, and torn down in one order by Close.
//
// Config carries exactly what cmd/ldpids-gateway's flags carry, so a test
// can start whole deployments in-process on ":0" listeners and hold them
// to the repo's same-behaviour bars: release logs byte-identical across
// roles and wires, ingest histories clean under history.Check.
//
// Everything a handler reads (History, Metrics, Tracer, Health) is
// attached before the listener goes live, so no request can observe a
// half-assembled gateway.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"ldpids/internal/cluster"
	"ldpids/internal/collect"
	"ldpids/internal/comm"
	"ldpids/internal/device"
	"ldpids/internal/fo"
	"ldpids/internal/history"
	"ldpids/internal/ldprand"
	"ldpids/internal/mechanism"
	"ldpids/internal/obs"
	"ldpids/internal/serve"
	"ldpids/internal/store"
)

// Config is the gateway's command line: one field per ldpids-gateway flag
// (named in each comment), whose definitions hold the defaults and usage.
type Config struct {
	Addr         string        // -addr
	Backend      string        // -backend: http or sim (role single)
	N, D         int           // -n, -d
	Method       string        // -method
	W            int           // -w
	Eps          float64       // -eps
	T            int           // -T (0 = until the context is cancelled)
	Oracle       string        // -oracle
	Seed         uint64        // -seed
	ClientSeed   uint64        // -client-seed (backend sim)
	RoundTimeout time.Duration // -round-timeout
	Interval     time.Duration // -interval
	Out          string        // -out
	IngestLog    string        // -ingest-log
	Role         string        // -role: single, coordinator or replica
	Peers        string        // -peers (role replica)
	Shard        string        // -shard lo:hi (role replica)
	Name         string        // -name (role replica)
	Wire         string        // -wire: json or binary
	TraceLog     string        // -trace-log
	DebugAddr    string        // -debug-addr
}

// Gateway is one started deployment role. Start returns it listening;
// Run drives it; Close tears it down.
type Gateway struct {
	cfg Config

	front, debug *httpServer
	ingest       io.Closer // serve.Backend or cluster.Coordinator; nil for sim

	metrics  *serve.Metrics
	snaps    *serve.Snapshots
	hist     *history.Log
	releases *store.Writer
	traces   *obs.TraceLog

	// Roles that own the mechanism step it over env; a replica runs its
	// cluster loop instead.
	oracle  fo.Oracle
	env     *collect.Env
	mech    mechanism.Mechanism
	replica *cluster.Replica
}

// Start validates cfg, assembles its role and binds the listener. On
// error nothing is left open.
func Start(cfg Config) (*Gateway, error) {
	if cfg.N < 1 || cfg.D < 1 {
		return nil, fmt.Errorf("population and domain must be positive, got -n %d -d %d", cfg.N, cfg.D)
	}
	wire, err := serve.ParseWire(cfg.Wire)
	if err != nil {
		return nil, err
	}
	var lo, hi int
	switch cfg.Role {
	case "single":
		switch cfg.Backend {
		case "http":
		case "sim":
			if cfg.IngestLog != "" {
				return nil, errors.New("-ingest-log needs -backend http: the sim backend has no ingestion protocol to journal")
			}
		default:
			return nil, fmt.Errorf("unknown -backend %q (want http or sim)", cfg.Backend)
		}
	case "coordinator":
	case "replica":
		if cfg.Peers == "" {
			return nil, errors.New("-role replica needs -peers (the coordinator's base URL)")
		}
		if lo, hi, err = parseShard(cfg.Shard); err != nil {
			return nil, err
		}
		if cfg.Name == "" {
			cfg.Name = fmt.Sprintf("replica-%d-%d", lo, hi)
		}
	default:
		return nil, fmt.Errorf("unknown -role %q (want single, coordinator, or replica)", cfg.Role)
	}

	g := &Gateway{cfg: cfg}
	if cfg.Role != "replica" {
		if g.oracle, err = fo.New(cfg.Oracle, cfg.D); err != nil {
			return nil, err
		}
		if g.mech, err = mechanism.New(cfg.Method, mechanism.Params{
			Eps: cfg.Eps, W: cfg.W, N: cfg.N, Oracle: g.oracle, Src: ldprand.New(cfg.Seed),
		}); err != nil {
			return nil, err
		}
	}
	if err := g.assemble(wire, lo, hi); err != nil {
		g.Close() // releases whatever assemble had opened; its error is the one to report
		return nil, err
	}
	return g, nil
}

// assemble opens the role's files, builds and wires its parts, and only
// then starts listening. Whatever it opened before failing is left on g
// for Close.
func (g *Gateway) assemble(wire serve.Wire, lo, hi int) error {
	var err error
	cfg := g.cfg
	replica, clustered := cfg.Role == "replica", cfg.Role != "single"
	// source names the role in the history's config record and on trace
	// spans; a replica's spans carry its own name instead.
	source := cfg.Role
	if !clustered {
		source = "gateway"
	}
	span := source
	if replica {
		span = cfg.Name
	}

	// One registry per process: gateway families, the cluster families
	// next to them, Go runtime gauges — one /metrics serves them all.
	g.metrics = serve.NewMetrics(nil)
	g.metrics.SetLabels(cfg.Oracle, wire)
	obs.RegisterRuntimeGauges(g.metrics.Registry())
	var clusterMetrics *cluster.Metrics
	if clustered {
		clusterMetrics = cluster.NewMetrics(g.metrics.Registry())
	}
	health := &serve.Health{}

	var tracer *obs.Tracer // nil (no -trace-log) disables tracing at zero cost
	if cfg.TraceLog != "" {
		if g.traces, err = obs.CreateTraceLog(cfg.TraceLog); err != nil {
			return err
		}
		tracer = obs.NewTracer(span, g.traces)
	}
	if cfg.IngestLog != "" {
		if g.hist, err = history.Create(cfg.IngestLog); err != nil {
			return err
		}
		// A shard cannot know the deployment's privacy window, so replicas
		// log a zero window/budget: ldpids-check skips the budget invariant
		// on their histories and proves it on the coordinator's instead,
		// charging each accepted frame's shard.
		rec := history.Record{Kind: history.KindConfig, Source: source,
			N: cfg.N, D: cfg.D, Oracle: cfg.Oracle}
		if !replica {
			rec.W, rec.Budget = cfg.W, cfg.Eps
		}
		g.hist.Append(rec)
	}
	if cfg.Out != "" && !replica {
		if g.releases, err = store.Create(cfg.Out, g.oracle.Domain()); err != nil {
			return err
		}
	}

	// The collection side: remote HTTP clients (single-http, replica), an
	// in-process simulated population with the same seed derivation, or
	// the cluster's replicas.
	mux := http.NewServeMux()
	var collector collect.Collector
	switch {
	case cfg.Role == "coordinator":
		coord, err := cluster.NewCoordinator(cfg.N, cfg.Oracle, cfg.D)
		if err != nil {
			return err
		}
		// Replica-side rounds are bounded by -round-timeout; the grace
		// covers shipping, so the replica's own deadline (with its precise
		// missing-user diagnosis) fires first.
		coord.Timeout = cfg.RoundTimeout + 15*time.Second
		coord.Metrics = clusterMetrics
		coord.Health = health
		coord.Tracer = tracer
		coord.History = g.hist
		mux.Handle("/cluster/v1/", coord)
		collector, g.ingest = coord, coord
	case replica || cfg.Backend == "http":
		b, err := serve.NewBackend(cfg.N)
		if err != nil {
			return err
		}
		b.Timeout = cfg.RoundTimeout
		b.Wire = wire
		b.Metrics = g.metrics
		b.Health = health
		b.Tracer = tracer
		b.History = g.hist
		mux.Handle("/v1/round", b)
		mux.Handle("/v1/report", b)
		collector, g.ingest = b, b
		if replica {
			peers := cfg.Peers
			if !strings.Contains(peers, "://") {
				peers = "http://" + peers
			}
			g.replica = &cluster.Replica{Coordinator: peers, Name: cfg.Name, Lo: lo, Hi: hi,
				Backend: b, Wire: wire, Metrics: clusterMetrics, Tracer: tracer, Logf: log.Printf}
		}
	default:
		pop := device.NewPopulation(cfg.ClientSeed, 0, cfg.N, cfg.D)
		collector = &collect.Sim{Users: cfg.N, Report: pop.Report(g.oracle)}
		// The sim backend has no announce path to flip the probe.
		health.MarkReady()
	}
	mux.Handle("/v1/healthz", health)
	mux.Handle("/metrics", g.metrics)
	if !replica {
		g.snaps = serve.NewSnapshots()
		g.snaps.Metrics = g.metrics
		mux.Handle("/v1/estimate", g.snaps)
		mux.Handle("/v1/stream", g.snaps)
		g.env = collect.NewEnv(collector)
	}

	if cfg.DebugAddr != "" {
		// net/http/pprof and nothing else, mounted explicitly so the
		// ingestion mux never inherits the profiles.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		if g.debug, err = listen(cfg.DebugAddr, dbg); err != nil {
			return err
		}
		log.Printf("debug listener on http://%s/debug/pprof/", g.debug.ln.Addr())
	}
	if g.front, err = listen(cfg.Addr, mux); err != nil {
		return err
	}
	switch cfg.Role {
	case "single":
		log.Printf("gateway listening on http://%s (backend %s, n=%d, d=%d, method %s)",
			g.Addr(), cfg.Backend, cfg.N, cfg.D, cfg.Method)
	case "coordinator":
		log.Printf("coordinator listening on http://%s (n=%d, d=%d, method %s, oracle %s)",
			g.Addr(), cfg.N, cfg.D, cfg.Method, cfg.Oracle)
	case "replica":
		log.Printf("replica %s listening on http://%s (shard [%d:%d) of %d), coordinator %s",
			cfg.Name, g.Addr(), lo, hi, cfg.N, g.replica.Coordinator)
	}
	return nil
}

// Addr is the bound listen address (host:port), resolving a ":0" -addr.
func (g *Gateway) Addr() string { return g.front.ln.Addr().String() }

// Stats is the communication bill so far; zero on a replica, whose
// coordinator keeps the deployment's bill.
func (g *Gateway) Stats() comm.Stats {
	if g.env == nil {
		return comm.Stats{}
	}
	return g.env.Stats()
}

// Run drives the role until it finishes or ctx is cancelled, both of which
// return nil: a single gateway or coordinator steps its mechanism once per
// timestamp (-T of them, 0 = unbounded), publishing every release, and
// prints the communication bill when the stream ends; a replica serves its
// shard of the coordinator's rounds. A cancelled ctx lets the current round
// finish (or be pruned at -round-timeout) first.
func (g *Gateway) Run(ctx context.Context) error {
	if g.replica != nil {
		if err := g.replica.Run(ctx); err != nil {
			return fmt.Errorf("replica stopped: %w", err)
		}
		log.Printf("replica %s stopped", g.replica.Name)
		return nil
	}
	defer func() { fmt.Printf("communication: %s\n", g.env.Stats()) }()
	for t := 1; g.cfg.T == 0 || t <= g.cfg.T; t++ {
		if ctx.Err() != nil {
			log.Printf("shutdown requested; stopping before t=%d", t)
			return nil
		}
		g.env.Advance(t)
		release, err := g.mech.Step(g.env)
		if err != nil {
			if ctx.Err() != nil {
				log.Printf("shutdown requested mid-round at t=%d: %v", t, err)
				return nil
			}
			return fmt.Errorf("stream ended: t=%d: %w", t, err)
		}
		version, err := g.publish(t, release)
		if err != nil {
			return fmt.Errorf("persisting release at t=%d: %w", t, err)
		}
		log.Printf("t=%-4d released (v%d)", t, version)
		if g.cfg.Interval > 0 {
			select {
			case <-time.After(g.cfg.Interval):
			case <-ctx.Done():
				return nil
			}
		}
	}
	return nil
}

// publish is the round-close release hook, timed as the release stage: the
// snapshot store (live queries, SSE), the ingest history (so ldpids-check
// can prove release coherence) and the durable release log. It returns the
// snapshot version the release was published as.
func (g *Gateway) publish(t int, release []float64) (version int64, err error) {
	start := time.Now()
	g.snaps.Publish(t, release)
	g.hist.Append(history.Record{Kind: history.KindRelease, T: t, Values: release})
	if g.releases != nil {
		err = g.releases.Append(t, release)
	}
	g.metrics.ObserveRelease(time.Since(start))
	if snap, ok := g.snaps.Latest(); ok {
		version = snap.Version
	}
	return version, err
}

// Close tears the gateway down in the one safe order — refuse new rounds
// (failing any in flight), drain the HTTP listeners, then flush and close
// the release log, the ingest history and the trace log — and returns the
// first log-close error.
func (g *Gateway) Close() error {
	if g.ingest != nil {
		g.ingest.Close() // only latches the closed flag; never fails
	}
	g.front.shutdown()
	g.debug.shutdown()
	var first error
	closeLog := func(what string, err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("closing %s: %w", what, err)
		}
	}
	if g.releases != nil {
		closeLog("release log", g.releases.Close())
	}
	closeLog("ingest log", g.hist.Close())
	closeLog("trace log", g.traces.Close())
	return first
}

// httpServer is one live listener: the front door or the debug port.
type httpServer struct {
	ln     net.Listener
	srv    *http.Server
	served chan error // Serve's result
}

// listen binds addr and serves h on it in the background.
func listen(addr string, h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &httpServer{ln: ln, srv: &http.Server{Handler: h}, served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// shutdown drains the server (a nil server was never started), giving
// in-flight requests five seconds; connections outlasting that — open
// /v1/stream feeds — are logged and cut.
func (s *httpServer) shutdown() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
		s.srv.Close()
	}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http server: %v", err)
	}
}

// parseShard parses a -shard lo:hi bound pair.
func parseShard(s string) (lo, hi int, err error) {
	if s == "" {
		return 0, 0, errors.New("-role replica needs -shard lo:hi")
	}
	los, his, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad -shard %q (want lo:hi)", s)
	}
	if lo, err = strconv.Atoi(los); err == nil {
		hi, err = strconv.Atoi(his)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want lo:hi): %w", s, err)
	}
	if lo < 0 || hi <= lo {
		return 0, 0, fmt.Errorf("bad -shard %q: want 0 <= lo < hi", s)
	}
	return lo, hi, nil
}
