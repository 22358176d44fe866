// Command ldpids-gateway runs LDP-IDS as a long-running HTTP service: a
// registry mechanism (LBD, LBA, LPA, ...) drives collection rounds over
// the internal/serve ingestion backend, publishing every release into a
// versioned snapshot store that powers the live query endpoints.
//
// Endpoints:
//
//	POST /v1/report    batched, bit-packed perturbed reports (clients)
//	GET  /v1/round     long-poll for the next collection round (clients)
//	GET  /v1/healthz   readiness probe (503 until the first round opens)
//	GET  /v1/estimate  the current released histogram/mean as JSON
//	GET  /v1/stream    Server-Sent Events, one event per release
//	GET  /metrics      Prometheus text exposition (reports folded, bytes
//	                   in, per-stage latency histograms, refusals by
//	                   reason, releases; cluster membership and frame
//	                   counters on a coordinator; Go runtime gauges)
//
// Observability: -trace-log appends one JSON line per round-lifecycle
// span (round, batch, ship, merge, client post) to a crash-safe log;
// ldpids-dump -trace renders one or more such logs as Chrome trace-event
// JSON for chrome://tracing or Perfetto. -debug-addr starts a second,
// private listener serving /debug/pprof/ (CPU/heap profiles, execution
// traces) so production profiling never shares a port with ingestion.
// All telemetry is observe-only: trace ids come from crypto/rand and
// never touch the seeded report streams, so a traced run's release log
// is byte-identical to an untraced one.
//
// With -backend sim the gateway hosts the simulated device population
// in-process instead of collecting over HTTP (the query endpoints still
// serve); seeds derive identically in both modes, so an HTTP run driven by
// ldpids-client produces a bit-identical release log to a
// sim run with the same -seed/-client-seed — CI's gateway-smoke job diffs
// exactly that. SIGINT/SIGTERM shut the gateway down gracefully: the
// current round finishes (or is pruned), the release log is flushed, and
// the communication bill is printed.
//
// Distributed ingestion (-role): one coordinator process owns the
// mechanism, the round sequence, and the release stream; N replica
// processes each ingest a contiguous user shard and ship merged integer
// counters back per round (internal/cluster). Frequency aggregation is
// commutative integer counting, so the cluster's release log is
// byte-identical to a single process over the same seeds — CI's
// cluster-smoke job diffs exactly that, across a mid-stream replica
// restart.
//
// Cluster quickstart (three shells, population split 2x150):
//
//	ldpids-gateway -role coordinator -addr 127.0.0.1:7900 -n 300 -d 8 -method LPA -T 100
//	ldpids-gateway -role replica -addr 127.0.0.1:7901 -peers http://127.0.0.1:7900 -shard 0:150 -n 300 -d 8
//	ldpids-gateway -role replica -addr 127.0.0.1:7902 -peers http://127.0.0.1:7900 -shard 150:300 -n 300 -d 8
//	ldpids-client -addr 127.0.0.1:7901 -n 150 -first 0   -d 8
//	ldpids-client -addr 127.0.0.1:7902 -n 150 -first 150 -d 8
//	curl -s http://127.0.0.1:7900/v1/estimate
//
// Single-process demo (two shells):
//
//	ldpids-gateway -addr 127.0.0.1:8080 -n 200 -d 8 -method LPA -T 100 -interval 500ms
//	ldpids-client -addr http://127.0.0.1:8080 -n 200 -d 8
//	curl -s http://127.0.0.1:8080/v1/estimate
//	curl -sN http://127.0.0.1:8080/v1/stream
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ldpids/internal/fo"
	"ldpids/internal/gateway"
	"ldpids/internal/mechanism"
	"ldpids/internal/serve"
)

func main() {
	var cfg gateway.Config
	flag.StringVar(&cfg.Addr, "addr", "127.0.0.1:8080", "HTTP listen address")
	flag.StringVar(&cfg.Backend, "backend", "http", "collection backend for -role single: http (remote clients) or sim (in-process devices)")
	flag.IntVar(&cfg.N, "n", 100, "user population size (the whole population, in every role)")
	flag.IntVar(&cfg.D, "d", 5, "domain size")
	flag.StringVar(&cfg.Method, "method", "LPA", "mechanism: "+strings.Join(mechanism.Names, " ")+" (with -numeric: LPU LPA)")
	flag.IntVar(&cfg.W, "w", 10, "window size")
	flag.Float64Var(&cfg.Eps, "eps", 1.0, "privacy budget per window")
	flag.IntVar(&cfg.T, "T", 0, "timestamps to run (0 = until SIGINT/SIGTERM)")
	flag.StringVar(&cfg.Oracle, "oracle", "GRR", "frequency oracle: "+strings.Join(fo.Names(), " "))
	flag.Uint64Var(&cfg.Seed, "seed", 1, "server-side random seed (mechanism sampling)")
	flag.Uint64Var(&cfg.ClientSeed, "client-seed", 99, "device seed for -backend sim (must match ldpids-client -seed to compare runs)")
	flag.DurationVar(&cfg.RoundTimeout, "round-timeout", serve.DefaultTimeout, "per-round collection deadline (slow/dead clients are pruned)")
	flag.DurationVar(&cfg.Interval, "interval", 0, "pause between timestamps (gives live queries something to watch)")
	flag.BoolVar(&cfg.Numeric, "numeric", false, "run a streaming mean mechanism instead of a frequency mechanism")
	flag.StringVar(&cfg.Out, "out", "", "optional path to persist releases as an append-only log")
	flag.StringVar(&cfg.IngestLog, "ingest-log", "", "optional path for the append-only ingestion history (audited offline by ldpids-check)")
	flag.StringVar(&cfg.Role, "role", "single", "deployment role: single (all-in-one), coordinator (cluster rounds + releases), or replica (cluster ingestion shard)")
	flag.StringVar(&cfg.Peers, "peers", "", "coordinator base URL for -role replica, e.g. http://127.0.0.1:7900")
	flag.StringVar(&cfg.Shard, "shard", "", "user shard lo:hi for -role replica")
	flag.StringVar(&cfg.Name, "name", "", "replica name, stable across restarts (-role replica; default replica-<lo>-<hi>)")
	flag.StringVar(&cfg.Wire, "wire", "json", "report-batch encoding this deployment's clients post: json or binary (the server accepts both; this sets the byte accounting)")
	flag.StringVar(&cfg.TraceLog, "trace-log", "", "optional path for the append-only round-lifecycle trace log (render with ldpids-dump -trace)")
	flag.StringVar(&cfg.DebugAddr, "debug-addr", "", "optional second listen address serving /debug/pprof/ (keep it private)")
	flag.Parse()

	g, err := gateway.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Graceful shutdown: finish (or prune) the current round, then stop.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := g.Run(ctx); err != nil {
		log.Print(err)
	}
	if err := g.Close(); err != nil {
		log.Fatal(err)
	}
}
