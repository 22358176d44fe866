package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"ldpids/internal/cluster"
	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/history"
	"ldpids/internal/ldprand"
	"ldpids/internal/mechanism"
	"ldpids/internal/obs"
	"ldpids/internal/serve"
)

// roundTimeout is far above any healthy round, so a pruned round is a
// failure and never a speed-up.
const roundTimeout = 60 * time.Second

// journalName is the ingest journal's file name inside a run's scratch
// directory.
const journalName = "ingest.jsonl"

// rig is one assembled deployment: the real single gateway, or the real
// coordinator plus two replicas, built in-process from the same public
// constructors cmd/ldpids-gateway wires, each process behind its own
// loopback listener, with serve.Client devices attached.
type rig struct {
	spec  spec
	env   *collect.Env
	mech  mechanism.Mechanism
	snaps *serve.Snapshots
	// queryURL is the process serving /v1/estimate; scrapeURLs every
	// process's /metrics.
	queryURL   string
	scrapeURLs []string
	hist       *history.Log

	tr       *tracer // nil in the untraced set
	stops    []func()
	mu       sync.Mutex
	failures []error // client and replica loop errors
}

// listen starts one process's HTTP front door on a fresh loopback port.
func (r *rig) listen(mux *http.ServeMux) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			r.fail(fmt.Errorf("http server: %w", err))
		}
	}()
	// By the time a listener stops, every client of it has been stopped
	// and waited for, so nothing in flight is worth a graceful drain — and
	// Shutdown would wait five seconds on any connection a cancelled
	// long-poll dialed but never used.
	r.stops = append(r.stops, func() {
		_ = srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// fail records an error from a background loop.
func (r *rig) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures = append(r.failures, err)
}

// loopFailures returns the background-loop errors seen so far.
func (r *rig) loopFailures() []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]error(nil), r.failures...)
}

// handle mounts h on mux, timed when the rig is traced.
func (r *rig) handle(mux *http.ServeMux, proc, path string, h http.Handler) {
	mux.Handle(path, r.tr.handler(proc, h))
}

// newMetrics builds one process's registry as the gateway does: gateway
// families labeled with oracle and wire, plus the Go runtime gauges.
func (r *rig) newMetrics() *serve.Metrics {
	m := serve.NewMetrics(nil)
	m.SetLabels(r.spec.oracle, r.spec.wire)
	obs.RegisterRuntimeGauges(m.Registry())
	return m
}

// newBackend builds one ingestion backend with its /v1 front door.
func (r *rig) newBackend(proc string, metrics *serve.Metrics, mux *http.ServeMux) (*serve.Backend, error) {
	b, err := serve.NewBackend(r.spec.n)
	if err != nil {
		return nil, err
	}
	b.Timeout = roundTimeout
	b.Metrics = metrics
	b.Health = &serve.Health{}
	b.Wire = r.spec.wire
	r.handle(mux, proc, "/v1/round", b)
	r.handle(mux, proc, "/v1/report", b)
	r.handle(mux, proc, "/v1/healthz", b.Health)
	r.handle(mux, proc, "/metrics", metrics)
	r.stops = append(r.stops, func() { _ = b.Close() })
	return b, nil
}

// startClient attaches one serve.Client hosting users [first, first+count).
func (r *rig) startClient(base string, first, count int, dev devices) error {
	c, err := serve.NewClient(base, first, count, serve.Funcs{Report: r.tr.report(dev.report)})
	if err != nil {
		return err
	}
	c.Wire = r.spec.wire
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := c.Serve(); err != nil {
			r.fail(fmt.Errorf("client [%d,%d): %w", first, first+count, err))
		}
	}()
	r.stops = append(r.stops, func() { c.Close(); <-done })
	return nil
}

// setup assembles the workload's deployment and attaches its devices.
// tmp holds the ingest journal of workloads that keep one. The caller
// must close the rig.
func setup(s spec, seed uint64, tr *tracer, tmp string) (*rig, error) {
	mechSeed, devSeed := seeds(seed)
	o, err := fo.New(s.oracle, s.d)
	if err != nil {
		return nil, err
	}
	r := &rig{spec: s, tr: tr, snaps: serve.NewSnapshots()}
	dev := newDevices(s, o, devSeed)
	var collector collect.Collector
	if s.cluster {
		collector, err = r.setupCluster(dev)
	} else {
		collector, err = r.setupGateway(dev, tmp)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	r.env = collect.NewEnv(collector)
	if r.mech, err = newMechanism(s, o, mechSeed); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// newMechanism builds the workload's mechanism over its own seeded source,
// for the rig and the reference run alike.
func newMechanism(s spec, o fo.Oracle, seed uint64) (mechanism.Mechanism, error) {
	return mechanism.New(s.method, mechanism.Params{
		Eps: eps, W: window, N: s.n, Oracle: o, Src: ldprand.New(seed),
	})
}

// setupGateway wires the single gateway as cmd/ldpids-gateway -role single
// does, and attaches two clients, one per half of the population.
func (r *rig) setupGateway(dev devices, tmp string) (collect.Collector, error) {
	s := r.spec
	metrics := r.newMetrics()
	r.snaps.Metrics = metrics
	mux := http.NewServeMux()
	b, err := r.newBackend("gateway", metrics, mux)
	if err != nil {
		return nil, err
	}
	r.handle(mux, "gateway", "/v1/estimate", r.snaps)
	r.handle(mux, "gateway", "/v1/stream", r.snaps)
	if s.history {
		h, err := history.Create(filepath.Join(tmp, journalName))
		if err != nil {
			return nil, err
		}
		h.Append(history.Record{Kind: history.KindConfig, Source: "gateway",
			N: s.n, D: s.d, Oracle: s.oracle, W: window, Budget: eps})
		b.History = h
		r.hist = h
	}
	base, err := r.listen(mux)
	if err != nil {
		return nil, err
	}
	r.queryURL, r.scrapeURLs = base, []string{base}
	half := s.n / 2
	if err := r.startClient(base, 0, half, dev); err != nil {
		return nil, err
	}
	if err := r.startClient(base, half, s.n-half, dev); err != nil {
		return nil, err
	}
	return b, nil
}

// setupCluster wires a coordinator and two replicas as cmd/ldpids-gateway
// -role coordinator|replica does, one client per replica, and waits until
// both replicas have joined.
func (r *rig) setupCluster(dev devices) (collect.Collector, error) {
	s := r.spec
	metrics := r.newMetrics()
	r.snaps.Metrics = metrics
	clusterMetrics := cluster.NewMetrics(metrics.Registry())
	coord, err := cluster.NewCoordinator(s.n, s.oracle, s.d)
	if err != nil {
		return nil, err
	}
	coord.Timeout = roundTimeout + 15*time.Second
	coord.Metrics = clusterMetrics
	coord.Health = &serve.Health{}
	mux := http.NewServeMux()
	r.handle(mux, "coordinator", "/cluster/v1/", coord)
	r.handle(mux, "coordinator", "/v1/healthz", coord.Health)
	r.handle(mux, "coordinator", "/v1/estimate", r.snaps)
	r.handle(mux, "coordinator", "/v1/stream", r.snaps)
	r.handle(mux, "coordinator", "/metrics", metrics)
	r.stops = append(r.stops, func() { _ = coord.Close() })
	base, err := r.listen(mux)
	if err != nil {
		return nil, err
	}
	r.queryURL, r.scrapeURLs = base, []string{base}

	half := s.n / 2
	for i, shard := range [][2]int{{0, half}, {half, s.n}} {
		name := fmt.Sprintf("replica-%d", i)
		repMetrics := r.newMetrics()
		repMux := http.NewServeMux()
		b, err := r.newBackend(name, repMetrics, repMux)
		if err != nil {
			return nil, err
		}
		repBase, err := r.listen(repMux)
		if err != nil {
			return nil, err
		}
		r.scrapeURLs = append(r.scrapeURLs, repBase)
		rep := &cluster.Replica{
			Coordinator: base, Name: name, Lo: shard[0], Hi: shard[1],
			Backend: b, Wire: s.wire, Metrics: cluster.NewMetrics(repMetrics.Registry()),
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := rep.Run(ctx); err != nil {
				r.fail(fmt.Errorf("%s: %w", name, err))
			}
		}()
		r.stops = append(r.stops, func() { cancel(); <-done })
		if err := r.startClient(repBase, shard[0], shard[1]-shard[0], dev); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if joined, _ := metrics.Registry().Value("ldpids_cluster_replicas"); joined == 2 {
			return coord, nil
		}
		if time.Now().After(deadline) {
			return nil, errors.New("replicas did not join the coordinator within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// close tears the deployment down in reverse order of assembly — devices,
// replicas, listeners, backends — waiting for every goroutine it started,
// and closes the ingest journal, returning its sticky write error. The
// journal file stays in tmp for the caller to audit or delete.
func (r *rig) close() error {
	for i := len(r.stops) - 1; i >= 0; i-- {
		r.stops[i]()
	}
	r.stops = nil
	baseTransport.CloseIdleConnections()
	if r.hist == nil {
		return nil
	}
	h := r.hist
	r.hist = nil
	return h.Close()
}
