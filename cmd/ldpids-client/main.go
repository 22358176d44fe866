// Command ldpids-client simulates -n user devices reporting to an
// ldpids-gateway (a single gateway or one cluster replica) over its HTTP
// protocol. The users are sharded across -conns connections (default 1),
// each hosting a contiguous id batch. Each simulated device holds a
// private value stream (a sticky Markov chain over the domain, or a
// clamped random walk in [-1, 1] under -oracle Mean; see internal/device)
// and answers report requests by perturbing locally — raw values never
// leave this process.
//
// Identical seeds produce identical report streams over both wires and in
// the gateway's in-process -backend sim mode, which is how CI's
// gateway-smoke job diffs an HTTP run against an in-process one.
// -trace-log appends one span per report post to a crash-safe JSONL log;
// render it together with the gateway's logs via ldpids-dump -trace.
// Tracing is observe-only and never perturbs the seeded report streams.
package main

import (
	"flag"
	"log"
	"strings"
	"sync"

	"ldpids/internal/device"
	"ldpids/internal/fo"
	"ldpids/internal/obs"
	"ldpids/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "gateway base URL (a bare host:port means http://)")
		n        = flag.Int("n", 100, "number of simulated users")
		d        = flag.Int("d", 5, "domain size")
		oracle   = flag.String("oracle", "GRR", "oracle (must match server; Mean reports real values): "+strings.Join(fo.Names(), " "))
		seed     = flag.Uint64("seed", 99, "client-side random seed")
		first    = flag.Int("first", 0, "first user id (for sharding users across processes)")
		conns    = flag.Int("conns", 1, "connections to shard the users across")
		wireName = flag.String("wire", "json", "report-batch encoding: json or binary (binary falls back to json on a 415)")
		traceLog = flag.String("trace-log", "", "optional path for the append-only post-span trace log (render with ldpids-dump -trace)")
	)
	flag.Parse()
	if *conns < 1 || *conns > *n {
		log.Fatalf("-conns must be in [1, %d], got %d", *n, *conns)
	}
	wire, err := serve.ParseWire(*wireName)
	if err != nil {
		log.Fatal(err)
	}
	var tracer *obs.Tracer
	if *traceLog != "" {
		tlog, err := obs.CreateTraceLog(*traceLog)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := tlog.Close(); err != nil {
				log.Printf("closing trace log: %v", err)
			}
		}()
		tracer = obs.NewTracer("client", tlog)
	}

	o, err := fo.New(*oracle, *d)
	if err != nil {
		log.Fatal(err)
	}
	pop := device.NewPopulation(*seed, *first, *n, *d)
	fns := serve.Funcs{Report: pop.Report(o)}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	var wg sync.WaitGroup
	per := *n / *conns
	extra := *n % *conns
	start := *first
	for i := 0; i < *conns; i++ {
		count := per
		if i < extra {
			count++
		}
		c, err := serve.NewClient(base, start, count, fns)
		if err != nil {
			log.Fatalf("users [%d,%d): %v", start, start+count, err)
		}
		c.Wire = wire
		c.Tracer = tracer
		wg.Add(1)
		go func(firstID, count int) {
			defer wg.Done()
			if err := c.Serve(); err != nil {
				log.Printf("users [%d,%d) disconnected: %v", firstID, firstID+count, err)
			}
		}(start, count)
		start += count
	}
	log.Printf("%d users connected to %s over %d http connections; serving report requests", *n, *addr, *conns)
	wg.Wait()
}
