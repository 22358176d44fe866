package main

import (
	"fmt"

	"ldpids/internal/device"
	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
	"ldpids/internal/serve"
)

// Stream parameters shared by every workload: the paper's default budget
// and window, and one window of warm-up timestamps that every metric
// except setup_s excludes.
const (
	eps    = 1.0
	window = 10
	warmUp = window
	// minMeasured keeps ten latency samples beyond the p90.
	minMeasured = 100
	// replayPool is the number of distinct pre-perturbed reports the
	// replayed workload cycles through.
	replayPool = 512
)

// spec sizes one workload. Sizes are constants, not flags: a later change
// is compared against this one on identical inputs.
type spec struct {
	name    string
	why     string
	cluster bool // coordinator + 2 replicas instead of a single gateway
	oracle  string
	method  string
	d, n    int
	wire    serve.Wire
	// replay answers rounds from a pool of pre-perturbed reports instead
	// of perturbing live, so device cost cannot hide the server's.
	replay  bool
	history bool // journal ingestion through Backend.History
}

// workloads are the four named traffic mixes. Each stresses layers the
// others bypass; README.md says which.
var workloads = []spec{
	{
		name: "gw-oue-lbu", why: "8 KiB packed reports replayed into one gateway: body read, binary decode, carry-save fold and client encode dominate; mechanism and Estimate are idle",
		oracle: "OUE-packed", method: "LBU", d: 65536, n: 1024, wire: serve.WireBinary, replay: true,
	},
	{
		name: "gw-olhc-lbu-json", why: "full-population rounds of tiny reports over the JSON wire with the ingest journal on: per-report JSON decode, take slots, stripe locks and journal append",
		oracle: "OLH-C", method: "LBU", d: 65536, n: 30000, wire: serve.WireJSON, history: true,
	},
	{
		name: "gw-olhc-lpa", why: "the paper's population division: few sampled users per round, so Estimate, the mechanism step and round open/announce/close latency dominate and ingest bytes are negligible",
		oracle: "OLH-C", method: "LPA", d: 65536, n: 100000, wire: serve.WireBinary,
	},
	{
		name: "cluster-grr-lpa", why: "coordinator plus two replicas shipping 512 KiB counter frames per round: cluster fan-out, ship and merge dominate; single-gateway workloads bypass them",
		cluster: true, oracle: "GRR", method: "LPA", d: 65536, n: 100000, wire: serve.WireBinary,
	},
}

// short returns the smoke-test scale of the workload: the same code path
// at sizes that finish in about a second, even under the race detector.
// Output at this scale is flagged short and never compared.
func (s spec) short() spec {
	s.d = 1024
	s.n = 2000
	return s
}

// findWorkload resolves a -workload name.
func findWorkload(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// seeds derives the mechanism seed and the device seed from -seed.
func seeds(seed uint64) (mech, dev uint64) {
	root := ldprand.New(seed)
	return root.Uint64(), root.Uint64()
}

// devices is the client side of a workload: the report function the
// serve.Clients (and the reference run) call, and the true histogram the
// reference run scores releases against. Building it twice from one seed
// yields identical report streams.
type devices struct {
	report func(id, t int, eps float64) fo.Report
	// truth fills hist with the population's true frequencies at t.
	truth func(t int, hist []float64)
}

// newDevices builds the workload's device population from the device
// seed.
func newDevices(s spec, o fo.Oracle, seed uint64) devices {
	if s.replay {
		return replayDevices(s, o, seed)
	}
	pop := device.NewPopulation(seed, 0, s.n, s.d)
	return devices{
		report: pop.Report(o),
		truth: func(t int, hist []float64) {
			clear(hist)
			for u := 0; u < s.n; u++ {
				hist[pop.Device(u).Value(t)] += 1 / float64(s.n)
			}
		},
	}
}

// replayDevices perturbs replayPool device values once, with the real
// oracle at the LBU per-round budget, and answers every round from that
// pool: user id always posts pool[id % replayPool]. LBU's round budget is
// constant, so the replayed reports stay statistically valid; the pool is
// a pure function of (seed, id) and is shared read-only by every client
// and by the reference run.
func replayDevices(s spec, o fo.Oracle, seed uint64) devices {
	pop := device.NewPopulation(seed, 0, replayPool, s.d)
	perturb := pop.Report(o)
	pool := make([]fo.Report, replayPool)
	values := make([]int, replayPool)
	for i := range pool {
		values[i] = pop.Device(i).Value(1)
		pool[i] = perturb(i, 1, eps/window)
	}
	return devices{
		report: func(id, _ int, _ float64) fo.Report { return pool[id%replayPool] },
		truth: func(_ int, hist []float64) {
			clear(hist)
			for u := 0; u < s.n; u++ {
				hist[values[u%replayPool]] += 1 / float64(s.n)
			}
		},
	}
}
