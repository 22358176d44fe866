package fo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"ldpids/internal/ldprand"
)

// estimateDigest is the SHA-256 over the little-endian Float64bits of an
// estimate: two estimates share a digest iff they agree bit for bit.
func estimateDigest(est []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range est {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOLHCEstimateGolden pins OLH-C estimates to digests recorded from the
// k·d int32-table kernel that the digit-packed one replaced: any change to
// the estimate path must keep computing the same integer support counts
// and the same finish, bit for bit, plain and through StripedAggregator.
func TestOLHCEstimateGolden(t *testing.T) {
	cases := []struct {
		d, n int
		eps  float64
		want string
	}{
		{65536, 5000, 1, "8020ce6fc60ff552423095c3cd42be0b0b52163c6a3d3b35269cfd5a256664a2"},
		{65536, 5000, 0.1, "a647927ff3a3f82660da8bb33ef7b8b66302e07520ae1cc56cb006818c09446a"},
		{20, 500, 3, "c17576c78fee64585538410e2f91b847118215f89e3515b2890c8b49077b6524"},
	}
	for _, c := range cases {
		o := NewOLHC(c.d)
		src := ldprand.New(uint64(c.d) + 977)
		plain, err := o.NewAggregator(c.eps)
		if err != nil {
			t.Fatal(err)
		}
		striped, err := NewStripedAggregator(o, c.eps, 3)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < c.n; u++ {
			r := o.Perturb((u*u+7*u)%c.d, c.eps, src)
			if err := plain.Add(r); err != nil {
				t.Fatal(err)
			}
			if err := striped.AddStripe(u%3, r); err != nil {
				t.Fatal(err)
			}
		}
		for name, agg := range map[string]Aggregator{"plain": plain, "striped": striped} {
			est, err := agg.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			if got := estimateDigest(est); got != c.want {
				t.Errorf("d=%d eps=%v %s: estimate digest %s, want %s", c.d, c.eps, name, got, c.want)
			}
		}
	}
}
