package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/mechanism"
	"ldpids/internal/metrics"
)

// digest chains the release stream: after timestamp t it commits to every
// release up to t, so two runs of different lengths compare on their
// common prefix.
type digest [sha256.Size]byte

// chain folds releases into a digest chain and counts publications —
// timestamps whose release differs from the previous one.
type chain struct {
	buf          []byte
	last         digest
	links        []digest
	publications int
}

func (c *chain) add(release []float64) {
	if c.buf == nil {
		c.buf = make([]byte, 8*len(release))
	}
	for i, v := range release {
		binary.LittleEndian.PutUint64(c.buf[8*i:], math.Float64bits(v))
	}
	h := digest(sha256.Sum256(c.buf))
	if h != c.last {
		c.publications++
	}
	c.last = h
	var prev digest
	if len(c.links) > 0 {
		prev = c.links[len(c.links)-1]
	}
	c.links = append(c.links, sha256.Sum256(append(prev[:], h[:]...)))
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// scrape is one reading of every process's /metrics, series values summed
// across processes.
type scrape map[string]float64

// scrapeAll reads /metrics from every process of the rig over HTTP, and
// returns how long the first process's scrape took.
func (r *rig) scrapeAll() (scrape, time.Duration, error) {
	out := scrape{}
	var first time.Duration
	for i, base := range r.scrapeURLs {
		start := time.Now()
		resp, err := pollerClient.Get(base + "/metrics")
		if err != nil {
			return nil, 0, err
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Text()
			cut := strings.LastIndexByte(line, ' ')
			if cut < 0 || strings.HasPrefix(line, "#") {
				continue
			}
			if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
				out[line[:cut]] += v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, 0, err
		}
		if i == 0 {
			first = time.Since(start)
		}
	}
	return out, first, nil
}

// sum adds every series of the named family whose label set contains all
// the given label pairs (written as they render, e.g. `stage="fold"`).
func (s scrape) sum(family string, labels ...string) float64 {
	total := 0.0
series:
	for key, v := range s {
		name, rest, _ := strings.Cut(key, "{")
		if name != family {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

// pollerClient carries the harness's own requests — the estimate poller
// and the /metrics scrapes — on a transport of its own, so the traced
// http.DefaultTransport sees only the program's traffic.
var pollerClient = &http.Client{Transport: &http.Transport{}}

// pollInterval is the open-loop query rate: 4 Hz.
const pollInterval = 250 * time.Millisecond

// querySample is one GET /v1/estimate, timed from the instant it was due.
type querySample struct {
	due           time.Time
	late, latency time.Duration
	ok            bool
}

// poller issues GET /v1/estimate on a fixed schedule regardless of how the
// gateway is doing, so reads run beside writes in both sets.
type poller struct {
	stop    chan struct{}
	done    chan struct{}
	samples []querySample
}

func startPoller(base string) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		due := time.Now()
		for {
			due = due.Add(pollInterval)
			select {
			case <-p.stop:
				return
			case <-time.After(time.Until(due)):
			}
			s := querySample{due: due, late: time.Since(due)}
			resp, err := pollerClient.Get(base + "/v1/estimate")
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// 404 is the documented answer before the first release.
				s.ok = err == nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotFound)
			}
			s.latency = time.Since(due)
			p.samples = append(p.samples, s)
		}
	}()
	return p
}

// finish stops the poller and returns its samples due at or after since.
func (p *poller) finish(since time.Time) []querySample {
	close(p.stop)
	<-p.done
	var out []querySample
	for _, s := range p.samples {
		if !s.due.Before(since) {
			out = append(out, s)
		}
	}
	return out
}

// A slice is about a second of back-to-back measured timestamps. The
// measured phase is cut into slices, and between two slices the reference
// run catches up, so a run's measured seconds are spread over its whole
// lifetime. The host this runs on is shared: whenever its other guests are
// busy, for five seconds or for minutes, everything here takes 1.4–1.8× as
// long. A run that samples more of those phases, and reports its quietest
// slices, repeats where a contiguous whole-run median does not.
type slice struct {
	latencyMs []float64 // Advance → release published, per timestamp
	wall      time.Duration
	reports   int64
	cpuS      float64
}

// sliceLen is the live time after which a slice ends.
const sliceLen = time.Second

// quietShare is the share of a run's slices, the ones with the lowest
// median latency, that the timing metrics are taken from.
const quietShare = 0.2

// quiet pools the quietest slices: a fifth of them, and more until the
// pool holds minT timestamps, so that its p90 keeps ten samples beyond it.
// Interference from the host's other guests only ever adds time, so the
// quietest slices are the closest a shared box gets to the program's own
// cost.
func quiet(slices []slice, minT int) (pool slice, kept int) {
	order := make([]int, len(slices))
	medians := make([]float64, len(slices))
	for i, s := range slices {
		order[i], medians[i] = i, percentile(s.latencyMs, 0.5)
	}
	sort.SliceStable(order, func(a, b int) bool { return medians[order[a]] < medians[order[b]] })
	share := max(1, int(quietShare*float64(len(slices))+0.5))
	for _, i := range order {
		if kept >= share && len(pool.latencyMs) >= minT {
			break
		}
		s := slices[i]
		pool.latencyMs = append(pool.latencyMs, s.latencyMs...)
		pool.wall += s.wall
		pool.reports += s.reports
		pool.cpuS += s.cpuS
		kept++
	}
	return pool, kept
}

// pass is what one run of a rig measured. Everything but the digest chain
// covers the measured phase only: the slices after the warm-up.
type pass struct {
	measured   int // measured timestamps
	slices     []slice
	wall       time.Duration // summed over the slices, like the next four
	cpuS       float64
	allocBytes uint64
	gcCycles   uint32
	gcCPUS     float64
	reportsPer []int64 // reports per timestamp, warm-up included
	chain      chain
	// publications counts measured timestamps whose release differs from
	// the one before: fresh estimates rather than approximations.
	publications int
	queries      []querySample
	before       scrape // at the start of the measured phase
	after        scrape
	scrapeTime   time.Duration
	began        time.Time     // start of the measured phase
	epoch        time.Duration // the same instant as a tracer offset
}

// measuredReports sums the reports of the timestamps after the warm-up.
func measuredReports(per []int64) int64 {
	var n int64
	for _, k := range per[warmUp:] {
		n += k
	}
	return n
}

// run drives the mechanism through the rig: warm-up, then measured slices
// until at least minT timestamps have released and d of live time has been
// measured, the reference run catching up after each slice. Within a slice
// timestamps run back to back. The protocol is closed-loop by construction
// — devices answer announced rounds — so the rate measured is the maximum
// sustainable one. The 4 Hz estimate poller runs alongside in both sets.
func (r *rig) run(minT int, d time.Duration, ref *reference) (*pass, error) {
	p := &pass{}
	queries := startPoller(r.queryURL)
	err := r.drive(p, minT, d, ref)
	p.queries = queries.finish(p.began)
	if err != nil {
		return nil, err
	}
	p.reportsPer = r.env.Stats().ReportsPerT
	p.after, p.scrapeTime, err = r.scrapeAll()
	return p, err
}

// drive is run's timestamp loop.
func (r *rig) drive(p *pass, minT int, d time.Duration, ref *reference) error {
	var env mechanism.Env = r.env
	if r.tr != nil {
		env = timedEnv{Env: r.env, tr: r.tr}
	}
	var published time.Time
	hooked := mechanism.Hooked{Mechanism: r.mech, OnRelease: func(t int, release []float64) {
		s := r.tr.begin(spanPublish, "serve", r.tr.timestampID())
		start := time.Now()
		r.snaps.Publish(t, release)
		published = time.Now()
		r.snaps.Metrics.ObserveRelease(published.Sub(start))
		r.tr.end(s)
	}}
	t := 0
	// timestamp runs one Step and returns its latency and wall time. The
	// release is folded into the digest chain afterwards, outside both.
	timestamp := func() (latency, stepped time.Duration, err error) {
		t++
		ts := r.tr.beginTimestamp(t)
		start := time.Now()
		r.env.Advance(t)
		release, err := hooked.Step(env)
		stepped = time.Since(start)
		r.tr.end(ts)
		if err != nil {
			return 0, 0, fmt.Errorf("t=%d: %w", t, err)
		}
		p.chain.add(release)
		return published.Sub(start), stepped, nil
	}
	for t < warmUp {
		if _, _, err := timestamp(); err != nil {
			return err
		}
	}
	if err := ref.catchUp(t); err != nil {
		return err
	}
	var err error
	if p.before, _, err = r.scrapeAll(); err != nil {
		return err
	}
	pubs0 := p.chain.publications
	p.began = time.Now()
	p.epoch = r.tr.mark()
	for p.measured < minT || p.wall < d {
		var (
			s          slice
			mem0, mem1 runtime.MemStats
		)
		runtime.ReadMemStats(&mem0)
		reports0 := r.env.Stats().Reports
		cpu0, gc0 := cpuSeconds(), gcCPUSeconds()
		for len(s.latencyMs) == 0 || s.wall < min(sliceLen, d) {
			latency, stepped, err := timestamp()
			if err != nil {
				return err
			}
			s.latencyMs = append(s.latencyMs, ms(latency))
			s.wall += stepped
		}
		s.cpuS = cpuSeconds() - cpu0
		p.gcCPUS += gcCPUSeconds() - gc0
		runtime.ReadMemStats(&mem1)
		s.reports = r.env.Stats().Reports - reports0
		p.gcCycles += mem1.NumGC - mem0.NumGC
		p.measured += len(s.latencyMs)
		p.wall += s.wall
		p.cpuS += s.cpuS
		p.allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
		p.slices = append(p.slices, s)
		if err := ref.catchUp(t); err != nil {
			return err
		}
	}
	p.publications = p.chain.publications - pubs0
	return nil
}

// reference is the single-goroutine collect.Sim run of the same mechanism,
// seeds and report function: the correctness oracle for every release, the
// source of the paper's two metrics, and the single-threaded baseline. It
// advances on demand, as far as the rig it checks has got.
type reference struct {
	env   *collect.Env
	mech  mechanism.Mechanism
	dev   devices
	truth []float64

	chain  chain
	mre    []float64 // per measured timestamp
	wall   time.Duration
	stepMs []float64
}

func newReference(s spec, seed uint64) (*reference, error) {
	mechSeed, devSeed := seeds(seed)
	o, err := fo.New(s.oracle, s.d)
	if err != nil {
		return nil, err
	}
	dev := newDevices(s, o, devSeed)
	m, err := newMechanism(s, o, mechSeed)
	if err != nil {
		return nil, err
	}
	return &reference{
		env:   collect.NewEnv(&collect.Sim{Users: s.n, Report: dev.report}),
		mech:  m,
		dev:   dev,
		truth: make([]float64, s.d),
	}, nil
}

// catchUp steps the reference until it has released T timestamps. MRE is
// accumulated per timestamp against the same-seed population's true
// histogram, so no T×d matrix is ever held.
func (ref *reference) catchUp(T int) error {
	for t := len(ref.chain.links) + 1; t <= T; t++ {
		start := time.Now()
		ref.env.Advance(t)
		release, err := ref.mech.Step(ref.env)
		stepped := time.Since(start)
		if err != nil {
			return fmt.Errorf("reference t=%d: %w", t, err)
		}
		ref.chain.add(release)
		if t > warmUp {
			ref.wall += stepped
			ref.stepMs = append(ref.stepMs, ms(stepped))
			ref.dev.truth(t, ref.truth)
			ref.mre = append(ref.mre, metrics.MRE([][]float64{release}, [][]float64{ref.truth}, 0))
		}
	}
	return nil
}

// reportsPer returns the reference's reports per timestamp so far.
func (ref *reference) reportsPer() []int64 { return ref.env.Stats().ReportsPerT }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// gcCPUSeconds returns the CPU time the garbage collector has used.
func gcCPUSeconds() float64 {
	sample := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}
