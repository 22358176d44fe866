package mechanism

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
)

var update = flag.Bool("update", false, "rewrite testdata/releases.golden from the current code")

const releasesGolden = "testdata/releases.golden"

// goldenRow is one release stream: a method over an oracle on collect.Sim.
type goldenRow struct {
	method, oracle string
	d, w, n, T     int
	eps            float64
	digest         string
}

func (r goldenRow) key() string {
	return fmt.Sprintf("%s %s %d %g %d %d %d", r.method, r.oracle, r.d, r.eps, r.w, r.n, r.T)
}

// goldenMatrix is the row set -update writes: every method of Names plus
// ChurnLPA, EventLevel and UserLevel, over every oracle of fo.Names plus
// the OUE-packed and SUE-packed spellings, at d = 8 (Mean: its one
// element) and, for the unary oracles, d = 70, whose last 64-bit word is
// partial.
func goldenMatrix() []goldenRow {
	methods := append(slices.Clone(Names), "ChurnLPA", "EventLevel", "UserLevel")
	oracles := fo.Names()
	for _, alias := range []string{"OUE-packed", "SUE-packed"} {
		if !slices.Contains(oracles, alias) {
			oracles = append(oracles, alias)
		}
	}
	var rows []goldenRow
	for _, ew := range []struct {
		eps float64
		w   int
	}{{1, 4}, {2.5, 10}} {
		for _, m := range methods {
			for _, o := range oracles {
				ds := []int{8}
				switch strings.ToUpper(strings.TrimSuffix(o, "-packed")) {
				case "MEAN":
					ds = []int{1}
				case "OUE", "SUE":
					ds = []int{8, 70}
				}
				for _, d := range ds {
					rows = append(rows, goldenRow{method: m, oracle: o, d: d, eps: ew.eps, w: ew.w, n: 80, T: 24})
				}
			}
		}
	}
	return rows
}

// releaseDigest runs one row on collect.Sim and returns the SHA-256 over
// every release's little-endian Float64bits, in timestamp order, taken
// after the last step: a mechanism that writes into a release it already
// returned changes the digest.
func releaseDigest(r goldenRow) (string, error) {
	o, err := fo.New(r.oracle, r.d)
	if err != nil {
		return "", err
	}
	if o.Domain() != r.d {
		return "", fmt.Errorf("oracle %s releases %d elements, row says d=%d", r.oracle, o.Domain(), r.d)
	}
	root := ldprand.New(2022)
	p := Params{Eps: r.eps, W: r.w, N: r.n, Oracle: o, Src: root.Split()}
	var (
		m     Mechanism
		churn *ChurnLPA
	)
	switch r.method {
	case "ChurnLPA":
		churn, err = NewChurnLPA(p, ids(r.n))
		m = churn
	case "UserLevel":
		m, err = NewUserLevelFinite(p, r.T)
	default:
		m, err = New(r.method, p)
	}
	if err != nil {
		return "", err
	}
	vals, vsrc := make([]int, r.n), root.Split()
	env := newSimEnv(r.n, o, root.Split(), &vals, nil)
	releases := make([][]float64, 0, r.T)
	for t := 1; t <= r.T; t++ {
		for u := range vals {
			if r.d == 1 { // a Mean user holds -1, 0 or 1
				vals[u] = vsrc.Intn(3) - 1
			} else { // skewed toward small elements
				vals[u] = min(vsrc.Intn(r.d), vsrc.Intn(r.d))
			}
		}
		if churn != nil && t > 1 { // one user leaves, the previous leaver returns
			churn.Pool().Leave(t % r.n)
			churn.Pool().Join((t - 1) % r.n)
		}
		env.Advance(t)
		rel, err := m.Step(env)
		if err != nil {
			return "", fmt.Errorf("t=%d: %w", t, err)
		}
		releases = append(releases, rel)
	}
	h := sha256.New()
	var b [8]byte
	for _, rel := range releases {
		for _, x := range rel {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func readGolden(t *testing.T) []goldenRow {
	t.Helper()
	f, err := os.Open(releasesGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []goldenRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var r goldenRow
		if _, err := fmt.Sscan(line, &r.method, &r.oracle, &r.d, &r.eps, &r.w, &r.n, &r.T, &r.digest); err != nil {
			t.Fatalf("golden row %q: %v", line, err)
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestReleasesGolden pins every release stream of the method × oracle
// matrix, bit for bit, to digests recorded in testdata/releases.golden:
// a change that moves any released value of any row fails here. The test
// replays the file's own rows, resolving each oracle name through fo.New,
// so a row survives an oracle becoming another's alias; it also requires
// a row for every fo.Names oracle and every method. Regenerate with
// go test ./internal/mechanism -run TestReleasesGolden -update.
func TestReleasesGolden(t *testing.T) {
	if *update {
		var sb strings.Builder
		sb.WriteString("# method oracle d eps w n T sha256(releases): collect.Sim, seed 2022; see TestReleasesGolden\n")
		for _, r := range goldenMatrix() {
			dg, err := releaseDigest(r)
			if err != nil {
				t.Fatalf("%s: %v", r.key(), err)
			}
			fmt.Fprintf(&sb, "%s %s\n", r.key(), dg)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(releasesGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rows := readGolden(t)
	byKey := make(map[string]string, len(rows))
	covered := make(map[string]bool) // methods and oracles' canonical names
	for _, r := range rows {
		byKey[r.key()] = r.digest
		covered[r.method] = true
		if o, err := fo.New(r.oracle, r.d); err == nil {
			covered[o.Name()] = true
		}
		got, err := releaseDigest(r)
		if err != nil {
			t.Errorf("%s: %v", r.key(), err)
			continue
		}
		if got != r.digest {
			t.Errorf("%s: releases digest %s, want %s", r.key(), got, r.digest)
		}
	}
	for _, name := range append(fo.Names(), Names...) {
		if !covered[name] {
			t.Errorf("%s has no row in %s", name, releasesGolden)
		}
	}
	// A -packed spelling releases exactly what its unary oracle releases.
	for _, r := range rows {
		base, ok := strings.CutSuffix(r.oracle, "-packed")
		if !ok {
			continue
		}
		twin := r
		twin.oracle = base
		if want, ok := byKey[twin.key()]; !ok || want != r.digest {
			t.Errorf("%s: digest %s differs from %s row's %q", r.key(), r.digest, base, want)
		}
	}
}
