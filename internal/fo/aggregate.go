package fo

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// Aggregator folds perturbed reports into O(d) server-side state as they
// arrive, so the aggregator never retains an O(n·d) report slice. Add all
// reports of one collection round (same oracle, same eps), then call
// Estimate. The count arithmetic is shared with the batch
// Oracle.Estimate, so streaming and batch aggregation produce exactly
// identical estimates. An Aggregator is not safe for concurrent use;
// serialize Add calls.
type Aggregator interface {
	// Add folds one report into the aggregate counters. It rejects
	// reports whose Kind or shape does not match the oracle.
	Add(r Report) error
	// Reports returns the number of reports folded so far.
	Reports() int
	// Estimate returns the unbiased per-element frequency estimates from
	// the folded counters. It returns ErrNoReports before any Add.
	Estimate() ([]float64, error)
}

// reusable is satisfied by every built-in aggregator and by
// StripedAggregator: the unexported half of Reset and EstimateInto, which
// are its public entry points.
type reusable interface {
	reset(eps float64) error
	estimateInto(dst []float64) ([]float64, error)
}

// Reset re-arms agg for a new collection round at budget eps, in its own
// storage, as if it had just come from the oracle's NewAggregator(eps):
// (p, q) are re-derived from eps, and the counters, report count and any
// buffered packed reports are dropped. A budget NewAggregator would refuse
// returns ErrBadEpsilon and leaves agg as it was. It fails for aggregators
// outside this package. The caller must own agg: no fold may be in flight.
// Estimates returned earlier do not alias agg and stay valid.
func Reset(agg Aggregator, eps float64) error {
	r, ok := agg.(reusable)
	if !ok {
		return fmt.Errorf("fo: %T does not support reset", agg)
	}
	return r.reset(eps)
}

// EstimateInto is agg.Estimate finished into dst's storage when its
// capacity holds the domain (a new slice otherwise), so a caller that
// estimates every round allocates nothing after the first. The result
// aliases dst. Aggregators outside this package fall back to Estimate.
func EstimateInto(agg Aggregator, dst []float64) ([]float64, error) {
	if r, ok := agg.(reusable); ok {
		return r.estimateInto(dst)
	}
	return agg.Estimate()
}

// sized returns dst resliced to n elements, or a new slice when its
// capacity is short.
func sized(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// packedWords returns the number of 64-bit words holding d packed bits.
func packedWords(d int) int { return (d + 63) / 64 }

// packedBytes returns the length of a packed payload for domain d: whole
// little-endian 64-bit words.
func packedBytes(d int) int { return 8 * packedWords(d) }

// PackBits converts a byte-per-element unary payload into the bit-packed
// format of Report.Packed: bit k&7 of byte k>>3 is unaryBits[k].
func PackBits(unaryBits []byte) []byte {
	packed := make([]byte, packedBytes(len(unaryBits)))
	for k, b := range unaryBits {
		if b != 0 {
			packed[k>>3] |= 1 << (uint(k) & 7)
		}
	}
	return packed
}

// UnpackBits expands a bit-packed unary payload back into one byte per
// domain element.
func UnpackBits(packed []byte, d int) []byte {
	out := make([]byte, d)
	for k := range out {
		out[k] = packed[k>>3] >> (uint(k) & 7) & 1
	}
	return out
}

// batchEstimate implements the batch Estimate of every oracle by folding
// the slice through the oracle's streaming aggregator, guaranteeing the
// two paths share count math exactly.
func batchEstimate(o Oracle, reports []Report, eps float64) ([]float64, error) {
	if len(reports) == 0 {
		return nil, ErrNoReports
	}
	agg, err := o.NewAggregator(eps)
	if err != nil {
		return nil, err
	}
	for _, r := range reports {
		if err := agg.Add(r); err != nil {
			return nil, err
		}
	}
	return agg.Estimate()
}

// finishInto is the shared unbiased estimator finish: it writes into
// est[:len(counts)] the estimate from raw per-element report counts, n the
// number of reports, and (p, q) the scheme's keep/flip probabilities.
func finishInto(est []float64, counts []int64, n int, p, q float64) {
	nn := float64(n)
	for k, c := range counts {
		est[k] = (float64(c)/nn - q) / (p - q)
	}
}

// countCore is the counter state shared by every built-in aggregator: raw
// per-element counts, the report total, and the scheme's (p, q)
// probabilities. Keeping it in one place gives all schemes a common
// Estimate finish and lets StripedAggregator merge per-stripe counters
// exactly (integer addition commutes, so shard layout cannot change the
// estimate).
type countCore struct {
	p, q   float64
	n      int
	counts []int64
}

// Reports implements the corresponding Aggregator method for embedders.
func (c *countCore) Reports() int { return c.n }

// Estimate implements the corresponding Aggregator method for embedders.
func (c *countCore) Estimate() ([]float64, error) { return c.estimateInto(nil) }

// estimateInto implements the corresponding reusable method for embedders.
func (c *countCore) estimateInto(dst []float64) ([]float64, error) {
	if c.n == 0 {
		return nil, ErrNoReports
	}
	est := sized(dst, len(c.counts))
	finishInto(est, c.counts, c.n, c.p, c.q)
	return est, nil
}

// rearm is the shared half of every count-based reset: a budget whose
// (p, q) checkBudget refuses is returned before any state is touched;
// otherwise the counters are zeroed and (p, q) adopted.
func (c *countCore) rearm(eps, p, q float64) error {
	if err := checkBudget(eps, p, q); err != nil {
		return err
	}
	c.p, c.q, c.n = p, q, 0
	clear(c.counts)
	return nil
}

// core exposes the counter state to countCore.mergeShard.
func (c *countCore) core() *countCore { return c }

// mergeShard implements shardMergeable: it folds another count-based
// shard's counters into c.
func (c *countCore) mergeShard(o Aggregator) error {
	oc, ok := o.(interface{ core() *countCore })
	if !ok {
		return fmt.Errorf("fo: cannot merge %T into a count-based aggregator", o)
	}
	c.n += oc.core().n
	for k, v := range oc.core().counts {
		c.counts[k] += v
	}
	return nil
}

// shardMergeable is satisfied by every built-in aggregator (via countCore
// or cohortCore); StripedAggregator needs it to merge per-stripe counters
// at Estimate time, and to re-arm and finish its stripes. Merging is plain
// integer addition of same-shape counters, so it commutes and shard layout
// cannot change the estimate.
type shardMergeable interface {
	Aggregator
	reusable
	// mergeShard folds the counters of another aggregator of the same
	// oracle and budget into the receiver.
	mergeShard(o Aggregator) error
}

// armed returns a, fresh from its oracle's NewAggregator, re-armed for
// budget eps: every constructor is "allocate, then reset", so a new
// aggregator and a reset one cannot differ.
func armed(a shardMergeable, eps float64) (Aggregator, error) {
	if err := a.reset(eps); err != nil {
		return nil, err
	}
	return a, nil
}

// ---------------------------------------------------------------------------
// GRR aggregator.
// ---------------------------------------------------------------------------

type grrAggregator struct {
	o *GRR
	countCore
}

// NewAggregator implements Oracle.
func (g *GRR) NewAggregator(eps float64) (Aggregator, error) {
	return armed(&grrAggregator{o: g, countCore: countCore{counts: make([]int64, g.d)}}, eps)
}

func (a *grrAggregator) reset(eps float64) error {
	p, q := a.o.probs(eps)
	return a.rearm(eps, p, q)
}

func (a *grrAggregator) Add(r Report) error {
	if r.Kind != KindValue {
		return fmt.Errorf("fo: GRR aggregator got %s report, want value", r.Kind)
	}
	if r.Value < 0 || r.Value >= a.o.d {
		return fmt.Errorf("fo: GRR report value %d outside domain [0,%d)", r.Value, a.o.d)
	}
	a.counts[r.Value]++
	a.n++
	return nil
}

// ---------------------------------------------------------------------------
// Unary (OUE/SUE) aggregator: accepts both wire formats.
// ---------------------------------------------------------------------------

type unaryAggregator struct {
	o *unary
	countCore
	packed *packedAccumulator // lazily allocated on the first packed report
}

// NewAggregator implements Oracle for both unary schemes. The aggregator
// accepts byte-per-element (KindUnary) and bit-packed (KindPacked) reports
// interchangeably; packed reports fold through packedAccumulator's
// vertical counting, far faster than the byte scan.
func (u *unary) NewAggregator(eps float64) (Aggregator, error) {
	return armed(&unaryAggregator{o: u, countCore: countCore{counts: make([]int64, u.d)}}, eps)
}

// reset implements reusable; the packed accumulator, once allocated, is
// kept and emptied.
func (a *unaryAggregator) reset(eps float64) error {
	p, q := a.o.probs(eps)
	if err := a.rearm(eps, p, q); err != nil {
		return err
	}
	if a.packed != nil {
		a.packed.reset()
	}
	return nil
}

func (a *unaryAggregator) Add(r Report) error {
	d, name := a.o.d, a.o.name
	switch r.Kind {
	case KindUnary:
		if len(r.Bits) != d {
			return fmt.Errorf("fo: %s report has %d bits, want %d", name, len(r.Bits), d)
		}
		for k, b := range r.Bits {
			if b != 0 {
				a.counts[k]++
			}
		}
	case KindPacked:
		if len(r.Packed) != packedBytes(d) {
			return fmt.Errorf("fo: %s packed report has %d bytes, want %d",
				name, len(r.Packed), packedBytes(d))
		}
		if tail := uint(d) & 63; tail != 0 {
			if stray := binary.LittleEndian.Uint64(r.Packed[len(r.Packed)-8:]) >> tail; stray != 0 {
				return fmt.Errorf("fo: %s packed report sets bits beyond domain %d", name, d)
			}
		}
		if a.packed == nil {
			a.packed = newPackedAccumulator(packedWords(d))
		}
		a.packed.add(r.Packed)
		if a.packed.depth > maxPlaneDepth-batchReports {
			a.packed.flushInto(a.counts)
		}
	default:
		return fmt.Errorf("fo: %s aggregator got %s report, want unary or packed", name, r.Kind)
	}
	a.n++
	return nil
}

// flush drains any pending packed-report planes into the flat counters.
// Every read of a.counts outside Add must flush first.
func (a *unaryAggregator) flush() {
	if a.packed != nil {
		a.packed.flushInto(a.counts)
	}
}

// Estimate implements Aggregator.
func (a *unaryAggregator) Estimate() ([]float64, error) { return a.estimateInto(nil) }

// estimateInto implements reusable, flushing pending packed planes so the
// shared countCore finish sees complete counters.
func (a *unaryAggregator) estimateInto(dst []float64) ([]float64, error) {
	a.flush()
	return a.countCore.estimateInto(dst)
}

// core shadows countCore.core so mergeShard (on either side of a merge)
// reads flushed counters.
func (a *unaryAggregator) core() *countCore {
	a.flush()
	return &a.countCore
}

// exportFrame shadows countCore.exportFrame: shipped frames must carry
// flushed counters.
func (a *unaryAggregator) exportFrame(dst *CounterFrame, sum bool) error {
	a.flush()
	return a.countCore.exportFrame(dst, sum)
}

// maxPlaneDepth is the packed-report capacity of one set of bit planes:
// with 8 planes per word, 255 one-bit additions cannot carry out of the
// top plane. Planes drain whenever another full batch could overflow
// them, so depth never exceeds maxPlaneDepth.
const maxPlaneDepth = 255

// batchReports is the carry-save batch width: reports are buffered and
// folded into the planes batchReports at a time through an adder tree.
const batchReports = 8

// packedAccumulator folds bit-packed unary reports by vertical counting:
// instead of walking the set bits of every report into the flat int64
// counters (O(d) random increments per report at OUE densities), it keeps
// 8 bit-planes per packed word — plane i holds bit i of 64 lane counters.
// Reports buffer, as the little-endian bytes they arrive in, in groups of
// batchReports; a carry-save adder tree (Harley–Seal counting) reads word w
// of each with one unaligned load and compresses the group into a 4-bit
// vertical sum per word in straight-line register arithmetic, and only
// that sum ripples into the planes — one plane pass per 8 reports instead
// of one branchy ripple walk per report. Planes drain into the flat
// counters before they can overflow and before any counter read. The
// drained result is the exact per-element sum, so vertical counting is a
// pure reordering of integer additions and cannot change any estimate bit.
type packedAccumulator struct {
	depth  int      // reports folded into planes since the last flush
	nbuf   int      // reports buffered and not yet folded, < batchReports
	buf    []byte   // batchReports report slots of len(planes) bytes each
	planes []uint64 // 8 planes per word: planes[8*w+i] is plane i of word w
}

func newPackedAccumulator(words int) *packedAccumulator {
	return &packedAccumulator{
		buf:    make([]byte, batchReports*8*words),
		planes: make([]uint64, 8*words),
	}
}

// reset drops every report buffered or folded into the planes since the
// last flush. Planes are all zero at depth 0 (flushInto clears them).
func (p *packedAccumulator) reset() {
	if p.depth > 0 {
		clear(p.planes)
	}
	p.depth, p.nbuf = 0, 0
}

// add buffers one validated packed report, folding a full batch through
// the adder tree. The caller flushes when depth nears maxPlaneDepth.
func (p *packedAccumulator) add(report []byte) {
	copy(p.buf[p.nbuf*len(report):], report)
	p.nbuf++
	if p.nbuf == batchReports {
		p.foldBatch()
	}
}

// foldBatch compresses the batchReports buffered reports into the planes:
// a carry-save adder tree counts the 8 one-bit inputs of every lane into
// a 4-bit vertical sum, which then ripples into the planes once.
func (p *packedAccumulator) foldBatch() {
	nb := len(p.planes) // bytes per report: 8 per word, as planes per word
	b := p.buf
	r0, r1, r2, r3 := b[:nb:nb], b[nb:][:nb:nb], b[2*nb:][:nb:nb], b[3*nb:][:nb:nb]
	r4, r5, r6, r7 := b[4*nb:][:nb:nb], b[5*nb:][:nb:nb], b[6*nb:][:nb:nb], b[7*nb:][:nb:nb]
	le := binary.LittleEndian
	for o := 0; o <= nb-8; o += 8 {
		x0, x1, x2, x3 := le.Uint64(r0[o:o+8]), le.Uint64(r1[o:o+8]), le.Uint64(r2[o:o+8]), le.Uint64(r3[o:o+8])
		x4, x5, x6, x7 := le.Uint64(r4[o:o+8]), le.Uint64(r5[o:o+8]), le.Uint64(r6[o:o+8]), le.Uint64(r7[o:o+8])
		// Three carry-save adders reduce the eight weight-1 inputs to
		// two weight-1 bits and three weight-2 carries ...
		t := x0 ^ x1
		a0 := t ^ x2
		a1 := (x0 & x1) | (t & x2)
		t = x3 ^ x4
		b0 := t ^ x5
		b1 := (x3 & x4) | (t & x5)
		t = x6 ^ x7
		c0 := t ^ a0
		c1 := (x6 & x7) | (t & a0)
		// ... a half adder finishes weight 1 ...
		s0 := b0 ^ c0
		d1 := b0 & c0
		// ... and the weight-2 and weight-4 layers compress the carries
		// into one bit per weight: (s0, s1, s2, s3) is the 4-bit count.
		t = a1 ^ b1
		e1 := t ^ c1
		e2 := (a1 & b1) | (t & c1)
		s1 := e1 ^ d1
		f2 := e1 & d1
		s2 := e2 ^ f2
		s3 := e2 & f2
		// Ripple the 4-bit lane counts into the planes in one pass.
		pl := p.planes[o : o+8 : o+8]
		t = pl[0]
		pl[0] = t ^ s0
		carry := t & s0
		t = pl[1]
		u := t ^ s1
		pl[1] = u ^ carry
		carry = (t & s1) | (u & carry)
		t = pl[2]
		u = t ^ s2
		pl[2] = u ^ carry
		carry = (t & s2) | (u & carry)
		t = pl[3]
		u = t ^ s3
		pl[3] = u ^ carry
		carry = (t & s3) | (u & carry)
		for i := 4; carry != 0; i++ {
			t = pl[i]
			pl[i] = t ^ carry
			carry = t & carry
		}
	}
	p.nbuf = 0
	p.depth += batchReports
}

// foldPending folds the partial batch left in the buffer into the planes,
// one report at a time with a word-wide ripple carry.
func (p *packedAccumulator) foldPending() {
	nb := len(p.planes)
	for j := 0; j < p.nbuf; j++ {
		report := p.buf[j*nb : (j+1)*nb]
		for o := 0; o+8 <= nb; o += 8 {
			w := binary.LittleEndian.Uint64(report[o:])
			pl := p.planes[o : o+8 : o+8]
			for i := 0; w != 0; i++ {
				pl[i], w = pl[i]^w, pl[i]&w
			}
		}
	}
	p.depth += p.nbuf
	p.nbuf = 0
}

// flushInto drains the buffered reports and the planes into flat
// per-element counters and resets them. The drain is a transpose, so its
// cost does not depend on how many plane bits are set — about half of every
// low plane's at the paper's ε/w, where q nears ½: a word's eight planes
// are an 8×64 bit matrix whose column j is lane j's counter, and laneBytes
// turns them into those 64 counters as bytes, added straight into
// counts[64·w : 64·w+64]. Only a partial last word (d mod 64 ≠ 0) walks
// its set bits instead: counts ends inside it.
func (p *packedAccumulator) flushInto(counts []int64) {
	p.foldPending()
	if p.depth == 0 {
		return
	}
	full := len(counts) / 64
	for wi := 0; wi < full; wi++ {
		pl := (*[8]uint64)(p.planes[8*wi:])
		if pl[0]|pl[1]|pl[2]|pl[3]|pl[4]|pl[5]|pl[6]|pl[7] == 0 {
			continue
		}
		c := (*[64]int64)(counts[64*wi:])
		for b, x := range laneBytes(pl) {
			c[8*b] += int64(x & 0xff)
			c[8*b+1] += int64(x >> 8 & 0xff)
			c[8*b+2] += int64(x >> 16 & 0xff)
			c[8*b+3] += int64(x >> 24 & 0xff)
			c[8*b+4] += int64(x >> 32 & 0xff)
			c[8*b+5] += int64(x >> 40 & 0xff)
			c[8*b+6] += int64(x >> 48 & 0xff)
			c[8*b+7] += int64(x >> 56)
		}
	}
	if tail := counts[64*full:]; len(tail) > 0 {
		for i, plane := range p.planes[8*full:] {
			for ; plane != 0; plane &= plane - 1 {
				tail[bits.TrailingZeros64(plane)] += 1 << uint(i)
			}
		}
	}
	clear(p.planes)
	p.depth = 0
}

// laneBytes transposes one word's eight planes into its 64 lane counters:
// byte j of out[b] is the counter of lane 8b+j, whose bit i is bit 8b+j of
// pl[i]. First an 8×8 byte transpose gathers byte b of every plane into
// out[b] — the 8×8 bit matrix of lanes 8b..8b+7, one row per plane — by
// three butterfly stages swapping 32-, 16- and 8-bit blocks; then each
// matrix is transposed in place (Hacker's Delight §7-3, transpose8 on one
// 64-bit register), making each byte a lane's counter.
func laneBytes(pl *[8]uint64) (out [8]uint64) {
	const lo32, lo16, lo8 = 0x00000000ffffffff, 0x0000ffff0000ffff, 0x00ff00ff00ff00ff
	var s, t [8]uint64
	for i := 0; i < 4; i++ {
		s[i] = pl[i]&lo32 | pl[i+4]<<32
		s[i+4] = pl[i]>>32 | pl[i+4]&^lo32
	}
	for _, i := range [4]int{0, 1, 4, 5} {
		t[i] = s[i]&lo16 | s[i+2]<<16&^lo16
		t[i+2] = s[i]>>16&lo16 | s[i+2]&^lo16
	}
	for i := 0; i < 8; i += 2 {
		x := t[i]&lo8 | t[i+1]<<8&^lo8
		y := t[i]>>8&lo8 | t[i+1]&^lo8
		out[i], out[i+1] = transpose8(x), transpose8(y)
	}
	return out
}

// transpose8 transposes the 8×8 bit matrix held one row per byte.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	return x ^ t ^ t<<28
}

// ---------------------------------------------------------------------------
// OLH aggregator.
// ---------------------------------------------------------------------------

type olhAggregator struct {
	d int
	g int
	countCore
}

// NewAggregator implements Oracle.
func (o *OLH) NewAggregator(eps float64) (Aggregator, error) {
	return armed(&olhAggregator{d: o.d, countCore: countCore{counts: make([]int64, o.d)}}, eps)
}

func (a *olhAggregator) reset(eps float64) error {
	g, p, q := olhProbs(eps)
	if err := a.rearm(eps, p, q); err != nil {
		return err
	}
	a.g = g
	return nil
}

func (a *olhAggregator) Add(r Report) error {
	if r.Kind != KindHash {
		return fmt.Errorf("fo: OLH aggregator got %s report, want hash", r.Kind)
	}
	if r.Value < 0 || r.Value >= a.g {
		return fmt.Errorf("fo: OLH report bucket %d outside [0,%d)", r.Value, a.g)
	}
	for k := 0; k < a.d; k++ {
		if olhHash(r.Seed, k, a.g) == r.Value {
			a.counts[k]++
		}
	}
	a.n++
	return nil
}

// ---------------------------------------------------------------------------
// OLH-C aggregator: O(1) fold into a k×g cohort count matrix.
// ---------------------------------------------------------------------------

// cohortCore is the counter state of cohort-hashed aggregation, the
// matrix-shaped sibling of countCore: instead of per-element counts it
// holds a row-major k×g matrix of (cohort, bucket) report counts, folded
// in O(1) per report. Estimate reconstructs per-element support counts
// through the oracle's precomputed bucket table — element v's support is
// Σ_c matrix[c][bucket_c(v)] — and finishes with the shared unbiased
// estimator. Like countCore it is integer state, so shards merge by plain
// addition and a sharded fold is bit-identical to an unsharded one.
type cohortCore struct {
	p, q    float64
	k, g, d int
	n       int
	matrix  []int64                  // row-major k×g: matrix[c*g+b] counts reports (c, b)
	table   func(g int) *cohortTable // the oracle's bucket table for range g
}

// cohortTable is the digit-packed cohort×element bucket table for one
// hashing range g. Buckets are tiny (g is 3 at ε=1, 2 at ε/w), so m
// consecutive cohorts — m the largest integer with g^m ≤ 256, at least 1 —
// form a group, and entry (group, v) is the base-g number
// Σ_j bucket_{c_j}(v)·g^j over the group's cohorts c_j. Estimate sums the
// matrix over every digit combination once per group (fillLUTs), after
// which one lookup per (group, element) replaces m. Sums are regrouped,
// never approximated, so support counts are unchanged. From g = 17, m = 1
// and an entry is the plain bucket: a uint16, as olhG caps g at 65536.
type cohortTable struct {
	once    sync.Once
	g, m    int
	span    int       // g^m, the entries of one group's lookup table
	slots   int       // groups rounded up to the sweep's four per pass
	idx     []uint16  // slot-major slots×d; padding slots stay all zero
	scratch sync.Pool // *[]int64 lookup-table scratch, see lutView
}

// build fills the table for k cohorts over domain d: k·d hashes, once.
func (t *cohortTable) build(k, d, g int) {
	t.g, t.m, t.span = g, 1, g
	for t.span*g <= 256 {
		t.m++
		t.span *= g
	}
	t.slots = ((k+t.m-1)/t.m + 3) &^ 3
	t.idx = make([]uint16, t.slots*d)
	t.scratch.New = func() any {
		luts := make([]int64, (t.slots-1)*t.span+maxOLHG)
		return &luts
	}
	weight := 1
	for c := 0; c < k; c++ {
		if c%t.m == 0 {
			weight = 1
		}
		seed := cohortSeed(c)
		row := t.idx[c/t.m*d:][:d]
		for v := range row {
			row[v] += uint16(olhHash(seed, v, g) * weight)
		}
		weight *= g
	}
}

// fillLUTs writes every group's lookup table into luts, span entries per
// slot: entry x of group i is Σ_j matrix[c_j][digit_j(x)], built one
// cohort at a time by extending the sums over the lower digits. A tail
// group short of m cohorts fills only the entries its zero high digits can
// reach, and padding slots are never written, so their entry 0 — the only
// one an all-zero index row reads — keeps the zero it was allocated with.
func (t *cohortTable) fillLUTs(luts, matrix []int64, k int) {
	g := t.g
	for c := 0; c < k; {
		lut := luts[c/t.m*t.span:][:t.span]
		lut[0] = 0
		size := 1 // lut[:size] holds the sums over the digits done so far
		for end := min(c+t.m, k); c < end; c++ {
			row := matrix[c*g:][:g]
			for b := g - 1; b >= 0; b-- { // bucket 0 last: it updates lut[:size] in place
				hi := lut[b*size:][:size]
				for x, s := range lut[:size] {
					hi[x] = s + row[b]
				}
			}
			size *= g
		}
	}
}

// sweepBlock is the number of domain elements Estimate finishes at a
// time: the int64 accumulator block, four index-row blocks and four
// lookup tables then fit L1 together.
const sweepBlock = 2048

// lutView is how the sweep sees one group's lookup table: an array as long
// as the uint16 index range, so the per-lookup bounds check compiles away
// (a fifth of the sweep). Only the first span entries are ever indexed;
// the scratch slice is over-allocated so the last table's view fits too.
type lutView = *[maxOLHG]int64

// NewAggregator implements Oracle. Add is O(1) in the domain size; the
// ⌈k/m⌉·d per-element reconstruction is deferred to Estimate.
func (o *OLHC) NewAggregator(eps float64) (Aggregator, error) {
	return armed(&olhcAggregator{cohortCore{k: o.k, d: o.d, table: o.bucketTable}}, eps)
}

// reset implements reusable: the matrix is zeroed, or reallocated when the
// budget's hashing range g differs from the last round's (then its shape
// does too).
func (c *cohortCore) reset(eps float64) error {
	g, p, q := olhProbs(eps)
	if err := checkBudget(eps, p, q); err != nil {
		return err
	}
	if g != c.g {
		c.matrix = make([]int64, c.k*g)
	} else {
		clear(c.matrix)
	}
	c.p, c.q, c.g, c.n = p, q, g, 0
	return nil
}

type olhcAggregator struct {
	cohortCore
}

func (a *olhcAggregator) Add(r Report) error {
	if r.Kind != KindCohort {
		return fmt.Errorf("fo: OLH-C aggregator got %s report, want cohort", r.Kind)
	}
	if r.Seed >= uint64(a.k) {
		return fmt.Errorf("fo: OLH-C report cohort %d outside [0,%d)", r.Seed, a.k)
	}
	if r.Value < 0 || r.Value >= a.g {
		return fmt.Errorf("fo: OLH-C report bucket %d outside [0,%d)", r.Value, a.g)
	}
	a.matrix[int(r.Seed)*a.g+r.Value]++
	a.n++
	return nil
}

// Reports implements Aggregator.
func (c *cohortCore) Reports() int { return c.n }

// Estimate implements Aggregator: per-element support counts from the
// cohort matrix and bucket table, then the shared unbiased finish with
// q = 1/g (a non-matching element collides with the reported bucket with
// probability 1/g in expectation, exactly as in OLH). Each block of the
// domain is swept four groups per pass and finished into the result while
// it is hot, so no d-sized support slice exists.
func (c *cohortCore) Estimate() ([]float64, error) { return c.estimateInto(nil) }

// estimateInto implements reusable.
func (c *cohortCore) estimateInto(dst []float64) ([]float64, error) {
	if c.n == 0 {
		return nil, ErrNoReports
	}
	t := c.table(c.g)
	scratch := t.scratch.Get().(*[]int64)
	defer t.scratch.Put(scratch)
	luts := *scratch
	t.fillLUTs(luts, c.matrix, c.k)

	est := sized(dst, c.d)
	var block [sweepBlock]int64
	for lo := 0; lo < c.d; lo += sweepBlock {
		acc := block[:min(sweepBlock, c.d-lo)]
		clear(acc)
		for s := 0; s < t.slots; s += 4 {
			l0, l1 := lutView(luts[s*t.span:]), lutView(luts[(s+1)*t.span:])
			l2, l3 := lutView(luts[(s+2)*t.span:]), lutView(luts[(s+3)*t.span:])
			i0, i1 := t.idx[s*c.d+lo:][:len(acc)], t.idx[(s+1)*c.d+lo:][:len(acc)]
			i2, i3 := t.idx[(s+2)*c.d+lo:][:len(acc)], t.idx[(s+3)*c.d+lo:][:len(acc)]
			for v := range acc {
				acc[v] += l0[i0[v]] + l1[i1[v]] + l2[i2[v]] + l3[i3[v]]
			}
		}
		finishInto(est[lo:], acc, c.n, c.p, c.q)
	}
	return est, nil
}

// ccore exposes the matrix state to cohortCore.mergeShard, mirroring
// countCore.core: any aggregator embedding a cohortCore merges
// structurally, not just the built-in olhcAggregator.
func (c *cohortCore) ccore() *cohortCore { return c }

// mergeShard implements shardMergeable.
func (c *cohortCore) mergeShard(o Aggregator) error {
	oc, ok := o.(interface{ ccore() *cohortCore })
	if !ok {
		return fmt.Errorf("fo: cannot merge %T into a cohort-based aggregator", o)
	}
	c.n += oc.ccore().n
	for i, v := range oc.ccore().matrix {
		c.matrix[i] += v
	}
	return nil
}
