// Package fo implements local-differential-privacy frequency oracles (FOs):
// client-side randomizers plus server-side unbiased frequency estimators
// over a finite categorical domain Ω = {0, ..., d-1}.
//
// The oracles provided are Generalized Randomized Response (GRR), Optimized
// Unary Encoding (OUE), Symmetric Unary Encoding (SUE, the basic RAPPOR
// randomizer), Optimized Local Hashing (OLH), and cohort-hashed OLH
// (OLH-C, whose server fold is domain-independent), plus the Mean oracle,
// whose one-element "histogram" is the mean of real values in [-1, 1],
// summed exactly (mean.go). Every oracle exposes
// its closed-form estimation variance V(ε, n), which the adaptive LDP-IDS
// mechanisms use to compute potential publication error (paper Eq. 2 /
// §5.3).
//
// Construct an oracle directly (NewGRR, NewOUE, ...) or by registry name
// through New; Names lists every registered name. Clients call
// Oracle.Perturb; servers either batch with Oracle.Estimate or stream
// reports through Oracle.NewAggregator (O(d) state) — optionally striped
// across CPUs with NewStripedAggregator — which Reset re-arms in place for
// the next round and EstimateInto finishes into caller-owned storage, so a
// long-running server allocates its round state once. The ingestion pipeline that moves
// reports from clients to an Aggregator lives in package collect.
package fo

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"ldpids/internal/ldprand"
)

// Kind identifies a report's wire format. It is carried explicitly on
// every Report so the server never has to infer the format from which
// payload fields happen to be non-zero (an OLH report whose random per-user
// seed is 0 is still an OLH report).
type Kind uint8

const (
	// KindValue is a categorical report (GRR: the perturbed item).
	KindValue Kind = iota
	// KindPacked is a bit-packed perturbed unary vector (OUE/SUE): 8
	// domain elements per byte.
	KindPacked
	// KindHash is a local-hashing report (OLH): (Seed, Value) where Value
	// holds the perturbed hash bucket.
	KindHash
	// KindCohort is a cohort-hashed report (OLH-C): Seed holds the public
	// cohort index in [0, k) and Value the perturbed hash bucket. Unlike
	// KindHash the seed space is small and shared, so the server folds the
	// report into a k×g count matrix in O(1) instead of rehashing the
	// whole domain per report.
	KindCohort
	// KindNumeric is a perturbed real value (the Mean oracle): Seed holds
	// its IEEE-754 bits.
	KindNumeric
)

// String returns the kind's short name.
func (k Kind) String() string {
	switch k {
	case KindValue:
		return "value"
	case KindPacked:
		return "packed"
	case KindHash:
		return "hash"
	case KindCohort:
		return "cohort"
	case KindNumeric:
		return "numeric"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Report is one user's perturbed contribution. Kind selects which payload
// fields are meaningful: Value for KindValue, Packed for KindPacked,
// (Seed, Value) for KindHash, (Seed=cohort, Value) for KindCohort, and
// Seed=float64 bits for KindNumeric.
type Report struct {
	// Kind identifies the wire format.
	Kind Kind
	// Value is a categorical report (GRR: perturbed item; OLH/OLH-C:
	// perturbed hash bucket).
	Value int
	// Packed is a bit-packed perturbed unary vector (KindPacked) as
	// little-endian bytes, 8·⌈d/64⌉ long (whole 64-bit words, so the tail
	// is zero-padded): domain element k is Packed[k>>3] & 1<<(k&7). This is
	// the one representation from Perturb to the aggregator's bit planes —
	// the LDPB frame, the JSON wire's base64 and the ingest journal carry
	// exactly these bytes, so no layer converts them.
	Packed []byte
	// Seed carries the per-user hash seed for OLH reports, the public
	// cohort index for OLH-C reports, or the IEEE-754 bits of a numeric
	// report's value.
	Seed uint64
}

// Size returns the wire size of the report in bytes, used by the
// communication accounting layer. Categorical reports cost 4 bytes; packed
// unary costs 8 bytes per 64 domain elements plus header; OLH costs 12
// (8-byte seed + bucket); OLH-C costs 8 (small cohort index + bucket); a
// numeric report costs its float64. A kind this version does not know
// costs the 4-byte header: the accounting layer must keep working on logs
// written by newer versions.
func (r Report) Size() int {
	switch r.Kind {
	case KindValue:
		return 4
	case KindPacked:
		return len(r.Packed) + 4
	case KindHash:
		return 12
	case KindCohort, KindNumeric:
		return 8
	default:
		return 4
	}
}

// Oracle is a frequency oracle protocol: a client-side perturbation and a
// server-side aggregation that yields an unbiased frequency estimate.
type Oracle interface {
	// Name returns the protocol's short name ("GRR", "OUE", ...).
	Name() string
	// Perturb randomizes a single user's true value v ∈ [0, d) with
	// privacy budget eps, drawing randomness from src.
	Perturb(v int, eps float64, src *ldprand.Source) Report
	// Estimate aggregates perturbed reports into an unbiased estimate of
	// the frequency (fraction in [0,1], possibly outside after noise) of
	// each domain element. The reports must all have been produced with
	// the same eps. It is equivalent to folding every report through
	// NewAggregator and calling Aggregator.Estimate.
	Estimate(reports []Report, eps float64) ([]float64, error)
	// NewAggregator returns a streaming aggregator for reports perturbed
	// with budget eps: the server folds each report into O(d) counters as
	// it arrives instead of retaining an O(n·d) report slice.
	NewAggregator(eps float64) (Aggregator, error)
	// Variance returns the estimator's per-element variance for n users
	// and budget eps when the element's true frequency is fk (exact
	// form; paper Eq. 2 for GRR).
	Variance(eps float64, n int, fk float64) float64
	// VarianceApprox returns the frequency-independent approximation
	// (fk → 0) used for potential-publication-error computation.
	VarianceApprox(eps float64, n int) float64
	// Domain returns the domain size d the oracle was built for.
	Domain() int
}

// Common construction errors.
var (
	ErrNoReports  = errors.New("fo: no reports to aggregate")
	ErrBadEpsilon = errors.New("fo: privacy budget must be positive and finite")
)

// drawFloor is the granularity of ldprand's draws: Float64 and Bernoulli
// resolve probabilities in steps of 2⁻⁵³.
const drawFloor = 1.0 / (1 << 53)

// checkBudget is the one ε gate of every NewAggregator, given the keep/flip
// probabilities (p, q) the scheme derives from eps: NaN, ±Inf and
// non-positive budgets are refused, and so is any budget whose p or q is not
// finite or whose p does not exceed q (e^ε overflowed, or rounded to 1) —
// the (c/n − q)/(p − q) finish would release NaN or ±Inf with a nil error.
// So is a budget whose q or 1 − p falls below drawFloor (OUE from ε ≈ 37,
// GRR at d = 2 from ε ≈ 37, SUE from ε ≈ 74): Perturb's draws cannot
// resolve it, the randomizer becomes deterministic, and the privacy loss
// it claims to bound is unbounded.
func checkBudget(eps, p, q float64) error {
	if !(eps > 0) || math.IsInf(eps, 1) || math.IsInf(p, 0) || math.IsInf(q, 0) || !(p > q) ||
		q < drawFloor || 1-p < drawFloor {
		return ErrBadEpsilon
	}
	return nil
}

func checkDomain(d int) {
	if d < 2 {
		panic(fmt.Sprintf("fo: domain size must be >= 2, got %d", d))
	}
}

// ---------------------------------------------------------------------------
// GRR: Generalized Randomized Response (direct encoding).
// ---------------------------------------------------------------------------

// GRR implements Generalized Randomized Response over a domain of size d.
// A user reports the true value with probability p = e^ε/(e^ε+d-1) and any
// other fixed value with probability q = 1/(e^ε+d-1).
type GRR struct {
	d int
}

// NewGRR returns a GRR oracle for domain size d (d >= 2).
func NewGRR(d int) *GRR {
	checkDomain(d)
	return &GRR{d: d}
}

// Name implements Oracle.
func (g *GRR) Name() string { return "GRR" }

// Domain implements Oracle.
func (g *GRR) Domain() int { return g.d }

// probs returns (p, q) for budget eps.
func (g *GRR) probs(eps float64) (p, q float64) {
	e := math.Exp(eps)
	p = e / (e + float64(g.d) - 1)
	q = 1 / (e + float64(g.d) - 1)
	return p, q
}

// Perturb implements Oracle.
func (g *GRR) Perturb(v int, eps float64, src *ldprand.Source) Report {
	if v < 0 || v >= g.d {
		panic(fmt.Sprintf("fo: GRR value %d outside domain [0,%d)", v, g.d))
	}
	p, _ := g.probs(eps)
	if src.Bernoulli(p) {
		return Report{Kind: KindValue, Value: v}
	}
	// Uniform over the d-1 other values.
	o := src.Intn(g.d - 1)
	if o >= v {
		o++
	}
	return Report{Kind: KindValue, Value: o}
}

// Estimate implements Oracle.
func (g *GRR) Estimate(reports []Report, eps float64) ([]float64, error) {
	return batchEstimate(g, reports, eps)
}

// Variance implements Oracle (paper Eq. 2):
//
//	Var = (d-2+e^ε)/(n(e^ε-1)^2) + fk(d-2)/(n(e^ε-1))
func (g *GRR) Variance(eps float64, n int, fk float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	e := math.Exp(eps)
	d := float64(g.d)
	nn := float64(n)
	return (d-2+e)/(nn*(e-1)*(e-1)) + fk*(d-2)/(nn*(e-1))
}

// VarianceApprox implements Oracle: the fk→0 simplification
// (d-2+e^ε)/(n(e^ε-1)^2) used by the paper for err.
func (g *GRR) VarianceApprox(eps float64, n int) float64 {
	return g.Variance(eps, n, 0)
}

// ---------------------------------------------------------------------------
// Unary encodings: SUE (basic RAPPOR) and OUE.
// ---------------------------------------------------------------------------

// unary is the shared implementation of unary-encoding oracles. A user
// encodes value v as a d-bit one-hot vector and flips each bit
// independently: a 1-bit stays 1 with probability p, a 0-bit becomes 1 with
// probability q. Clients report the vector bit-packed (KindPacked).
type unary struct {
	d     int
	name  string
	probs func(eps float64) (p, q float64)
}

func (u *unary) Name() string { return u.name }
func (u *unary) Domain() int  { return u.d }

func (u *unary) Perturb(v int, eps float64, src *ldprand.Source) Report {
	if v < 0 || v >= u.d {
		panic(fmt.Sprintf("fo: %s value %d outside domain [0,%d)", u.name, v, u.d))
	}
	p, q := u.probs(eps)
	packed := make([]byte, packedBytes(u.d))
	if src.Bernoulli(p) {
		packed[v>>3] |= 1 << (uint(v) & 7)
	}
	// The d-1 non-true bits are 1 independently with probability q.
	// Instead of d-1 Bernoulli draws, jump between set bits with
	// geometric skips: expected work O(q·d) instead of O(d). logq is
	// exactly 0 when q is 0 or below 2⁻⁵³ (OUE from ε≈37, SUE from ε≈74):
	// the skip length would be a division by zero, and with under 10⁻¹¹
	// expected flips "no flips" is the answer.
	if logq := math.Log(1 - q); logq != 0 {
		pos := 0 // index in the flattened space of non-true positions
		for {
			// Geometric(q): failures before the next success.
			ufl := src.Float64()
			if ufl >= 1 {
				ufl = math.Nextafter(1, 0)
			}
			pos += int(math.Log(1-ufl) / logq)
			if pos >= u.d-1 {
				break
			}
			real := pos
			if real >= v {
				real++
			}
			packed[real>>3] |= 1 << (uint(real) & 7)
			pos++
		}
	}
	return Report{Kind: KindPacked, Value: -1, Packed: packed}
}

func (u *unary) Estimate(reports []Report, eps float64) ([]float64, error) {
	return batchEstimate(u, reports, eps)
}

// variance for any (p,q) unary scheme:
//
//	Var = q(1-q) / (n (p-q)^2) + fk (p(1-p) - q(1-q)) / (n (p-q)^2)
func (u *unary) Variance(eps float64, n int, fk float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	p, q := u.probs(eps)
	nn := float64(n)
	den := nn * (p - q) * (p - q)
	return q*(1-q)/den + fk*(p*(1-p)-q*(1-q))/den
}

func (u *unary) VarianceApprox(eps float64, n int) float64 {
	return u.Variance(eps, n, 0)
}

// SUE is Symmetric Unary Encoding (basic RAPPOR): p = e^{ε/2}/(e^{ε/2}+1),
// q = 1-p.
type SUE struct{ unary }

func sueProbs(eps float64) (float64, float64) {
	e := math.Exp(eps / 2)
	return e / (e + 1), 1 / (e + 1)
}

// NewSUE returns an SUE oracle for domain size d.
func NewSUE(d int) *SUE {
	checkDomain(d)
	return &SUE{unary{d: d, name: "SUE", probs: sueProbs}}
}

// OUE is Optimized Unary Encoding: p = 1/2, q = 1/(e^ε+1), which minimizes
// estimator variance among unary schemes, giving Var ≈ 4e^ε/(n(e^ε-1)^2).
type OUE struct{ unary }

func oueProbs(eps float64) (float64, float64) {
	return 0.5, 1 / (math.Exp(eps) + 1)
}

// NewOUE returns an OUE oracle for domain size d.
func NewOUE(d int) *OUE {
	checkDomain(d)
	return &OUE{unary{d: d, name: "OUE", probs: oueProbs}}
}

// ---------------------------------------------------------------------------
// OLH: Optimized Local Hashing.
// ---------------------------------------------------------------------------

// OLH implements Optimized Local Hashing. Each user hashes their value into
// g = ⌊e^ε⌋+1 buckets with a per-user seed and runs GRR over the buckets;
// the server counts, for each domain element, the reports whose hash bucket
// matches that element under the reporter's seed.
type OLH struct {
	d int
}

// NewOLH returns an OLH oracle for domain size d.
func NewOLH(d int) *OLH {
	checkDomain(d)
	return &OLH{d: d}
}

// Name implements Oracle.
func (o *OLH) Name() string { return "OLH" }

// Domain implements Oracle.
func (o *OLH) Domain() int { return o.d }

// maxOLHG caps the local-hashing range. Past it (ε > 11) hashing buys
// nothing over GRR on the hash, ⌊e^ε⌋+1 outgrows any count matrix a
// server can hold and, from ε≈44, the int conversion itself; 65536 also
// lets one OLH-C bucket-table entry hold any bucket in a uint16.
const maxOLHG = 1 << 16

// olhG is the optimal local-hashing range g = ⌊e^ε⌋+1, clamped to
// [2, maxOLHG], shared by OLH and OLH-C perturbation and aggregation so
// client and server cannot disagree on it.
func olhG(eps float64) int {
	e := math.Floor(math.Exp(eps))
	if !(e < maxOLHG) { // also +Inf
		return maxOLHG
	}
	return max(int(e)+1, 2)
}

// olhProbs returns the hashing range g for budget eps and the (p, q) of
// local hashing over it: GRR over the g buckets keeps the true bucket with
// p = e^ε/(e^ε+g-1), and a non-matching element collides with the reported
// bucket with q = 1/g.
func olhProbs(eps float64) (g int, p, q float64) {
	g = olhG(eps)
	e := math.Exp(eps)
	return g, e / (e + float64(g) - 1), 1.0 / float64(g)
}

// olhHash maps (seed, value) to a bucket in [0, g). It is a 64-bit
// mix of the seed and value (stdlib-only stand-in for xxhash).
func olhHash(seed uint64, v int, g int) int {
	x := seed ^ (uint64(v)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(g))
}

// Perturb implements Oracle.
func (o *OLH) Perturb(v int, eps float64, src *ldprand.Source) Report {
	if v < 0 || v >= o.d {
		panic(fmt.Sprintf("fo: OLH value %d outside domain [0,%d)", v, o.d))
	}
	g, p, _ := olhProbs(eps)
	seed := src.Uint64()
	h := olhHash(seed, v, g)
	// GRR over the g buckets.
	out := h
	if !src.Bernoulli(p) {
		out = src.Intn(g - 1)
		if out >= h {
			out++
		}
	}
	return Report{Kind: KindHash, Value: out, Seed: seed}
}

// Estimate implements Oracle.
func (o *OLH) Estimate(reports []Report, eps float64) ([]float64, error) {
	return batchEstimate(o, reports, eps)
}

// Variance implements Oracle. For OLH the well-known approximation is
// 4e^ε/(n(e^ε-1)^2); the fk-dependent term is second-order and omitted.
func (o *OLH) Variance(eps float64, n int, fk float64) float64 {
	return o.VarianceApprox(eps, n)
}

// VarianceApprox implements Oracle.
func (o *OLH) VarianceApprox(eps float64, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	e := math.Exp(eps)
	return 4 * e / (float64(n) * (e - 1) * (e - 1))
}

// ---------------------------------------------------------------------------
// OLH-C: cohort-hashed Optimized Local Hashing.
// ---------------------------------------------------------------------------

// DefaultCohorts is the cohort count used by NewOLHC. It is large enough
// that the cohort-sampling term of the estimator variance is negligible
// next to the GRR-over-g noise, yet small enough that the server's k×g
// count matrix and ⌈k/m⌉×d digit-packed bucket table stay cheap.
const DefaultCohorts = 128

// OLHC implements cohort-hashed Optimized Local Hashing ("OLH-C"). It
// runs the same GRR-over-g-buckets core as OLH (g = ⌊e^ε⌋+1), but instead
// of a private per-user hash seed each user draws one of k public cohorts
// and hashes with the cohort's seed. Publicity of the seeds buys a
// domain-independent server fold: a report lands in cell (cohort, bucket)
// of a k×g count matrix in O(1), and Estimate reconstructs per-element
// support counts in ⌈k/m⌉·d lookups via a precomputed bucket table that
// packs m = ⌊log_g 256⌋ cohorts per entry (see cohortTable) —
// O(n + k·g + ⌈k/m⌉·d) per round in total, against OLH's O(n·d).
//
// Privacy is unchanged: the ε-LDP guarantee comes from the GRR
// perturbation over the g buckets, not from seed secrecy (OLH's seed is
// public to the server too — it arrives in the report). Accuracy matches
// OLH up to a cohort-sampling term that vanishes as k grows: the variance
// approximation 4e^ε/(n(e^ε-1)^2) carries over unchanged
// (TestOLHCVarianceMatchesFormula checks it empirically), and — as in
// RAPPOR's cohort design — fixed cohort seeds add a per-element bias of
// order √(Σ_v f_v² / k)·(1-1/g). In OLH-C's target regime (large domains
// with spread-out mass) that term is negligible; for tiny domains with one
// dominant element, raise k via NewOLHCCohorts or prefer GRR/OLH.
type OLHC struct {
	d int
	k int

	mu     sync.Mutex
	tables map[int]*cohortTable // g → lazily built bucket table; mu guards the map only
}

// NewOLHC returns an OLH-C oracle for domain size d with DefaultCohorts
// cohorts.
func NewOLHC(d int) *OLHC { return NewOLHCCohorts(d, DefaultCohorts) }

// NewOLHCCohorts returns an OLH-C oracle for domain size d with k public
// cohorts (k >= 2). Larger k tracks OLH's accuracy more closely; smaller k
// shrinks the server's count matrix and bucket table.
func NewOLHCCohorts(d, k int) *OLHC {
	checkDomain(d)
	if k < 2 {
		panic(fmt.Sprintf("fo: OLH-C cohort count must be >= 2, got %d", k))
	}
	return &OLHC{d: d, k: k, tables: make(map[int]*cohortTable)}
}

// Name implements Oracle.
func (o *OLHC) Name() string { return "OLH-C" }

// Domain implements Oracle.
func (o *OLHC) Domain() int { return o.d }

// Cohorts returns the number of public cohorts k.
func (o *OLHC) Cohorts() int { return o.k }

// cohortSeed derives cohort c's public hash seed (SplitMix64 finalizer of
// the cohort index): both clients and the server can compute it, so no
// seed ever needs to travel beyond the small cohort index.
func cohortSeed(c int) uint64 {
	x := uint64(c)*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// bucketTable returns the digit-packed bucket table for hashing range g,
// building and caching it on first use. Mechanisms estimate every
// timestamp, so the k·d hashes are paid once per (oracle, g) and
// amortized across rounds. Only the map lookup holds o.mu: a first-use
// build blocks callers wanting that same g, never estimates at a g that
// is already built.
func (o *OLHC) bucketTable(g int) *cohortTable {
	o.mu.Lock()
	t := o.tables[g]
	if t == nil {
		t = new(cohortTable)
		o.tables[g] = t
	}
	o.mu.Unlock()
	t.once.Do(func() { t.build(o.k, o.d, g) })
	return t
}

// Perturb implements Oracle: draw a public cohort uniformly, hash the true
// value with the cohort's seed, and run GRR over the g buckets.
func (o *OLHC) Perturb(v int, eps float64, src *ldprand.Source) Report {
	if v < 0 || v >= o.d {
		panic(fmt.Sprintf("fo: OLH-C value %d outside domain [0,%d)", v, o.d))
	}
	g, p, _ := olhProbs(eps)
	c := src.Intn(o.k)
	h := olhHash(cohortSeed(c), v, g)
	out := h
	if !src.Bernoulli(p) {
		out = src.Intn(g - 1)
		if out >= h {
			out++
		}
	}
	return Report{Kind: KindCohort, Value: out, Seed: uint64(c)}
}

// Estimate implements Oracle.
func (o *OLHC) Estimate(reports []Report, eps float64) ([]float64, error) {
	return batchEstimate(o, reports, eps)
}

// Variance implements Oracle: the GRR-over-g core is OLH's, so the OLH
// approximation carries over (the cohort-sampling term is O(1/k) of it and
// omitted, like OLH's fk-dependent term).
func (o *OLHC) Variance(eps float64, n int, fk float64) float64 {
	return o.VarianceApprox(eps, n)
}

// VarianceApprox implements Oracle: 4e^ε/(n(e^ε-1)^2), as for OLH.
func (o *OLHC) VarianceApprox(eps float64, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	e := math.Exp(eps)
	return 4 * e / (float64(n) * (e - 1) * (e - 1))
}

// ---------------------------------------------------------------------------
// Registry and adaptive selection.
// ---------------------------------------------------------------------------

// registry maps canonical oracle names to constructors, in presentation
// order. New resolves names against it case-insensitively; Names exposes
// it so command-line tools list exactly the oracles that actually
// construct.
var registry = []struct {
	name string
	make func(d int) Oracle
}{
	{"GRR", func(d int) Oracle { return NewGRR(d) }},
	{"OUE", func(d int) Oracle { return NewOUE(d) }},
	{"SUE", func(d int) Oracle { return NewSUE(d) }},
	{"OLH", func(d int) Oracle { return NewOLH(d) }},
	{"OLH-C", func(d int) Oracle { return NewOLHC(d) }},
	{"Mean", func(int) Oracle { return NewMean() }},
}

// Names returns the canonical name of every registered oracle, in
// presentation order. Each is accepted by New (case-insensitively).
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// aliases are retired oracle names New still accepts: OUE and SUE once
// also had a byte-per-element report, and their bit-packed one, now their
// only one, was registered under these names.
var aliases = []struct{ alias, name string }{{"OUE-packed", "OUE"}, {"SUE-packed", "SUE"}}

// New constructs an oracle by registry name (see Names) or by one of the
// retired -packed aliases of OUE and SUE, for domain size d; matching is
// case-insensitive. It returns an error naming the known oracles for
// unknown names.
func New(name string, d int) (Oracle, error) {
	for _, a := range aliases {
		if strings.EqualFold(name, a.alias) {
			name = a.name
		}
	}
	for _, e := range registry {
		if strings.EqualFold(name, e.name) {
			return e.make(d), nil
		}
	}
	return nil, fmt.Errorf("fo: unknown oracle %q (known: %s)", name, strings.Join(Names(), " "))
}

// Best returns the lower-variance oracle between GRR and OUE for the given
// (d, ε), following the standard d < 3e^ε+2 rule.
func Best(d int, eps float64) Oracle {
	if float64(d) < 3*math.Exp(eps)+2 {
		return NewGRR(d)
	}
	return NewOUE(d)
}
