package experiment

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/accuracy.csv from the current code")

const accuracyGolden = "testdata/accuracy.csv"

// accuracyExperiments are the experiments testdata/accuracy.csv pins: every
// method's MRE across ε on the six datasets, CDP-BD and CDP-BA beside the
// LDP methods, LPD's u_min floors and the M1 fractions 0.25 and 0.75 of the
// four adaptive methods.
var accuracyExperiments = []string{"fig4", "compare-cdp", "ablation-umin", "ablation-split"}

// raceDetector is set in -race builds (race_test.go). TestAccuracyGolden
// skips there: its 251 simulation runs take about 12 s plain
// and 240 s under the detector on 2 vCPUs, which would put this package
// near go test's 10-minute limit, and TestParallelMatchesSerial already
// races the scheduler's worker pool.
var raceDetector bool

// TestAccuracyGolden reproduces, in-process and byte for byte,
//
//	go run ./cmd/ldpids-bench -exp fig4,compare-cdp,ablation-umin,ablation-split -scale 0.01 -format csv
//
// whose stdout is testdata/accuracy.csv: one scheduler shared across the
// experiments, the command's default seed, oracle and repetitions. A change
// that moves any released value of those runs moves an MRE here, where
// TestReleasesGolden sees only the default u_min and M1 fraction and no
// CDP mechanism. Regenerate with
// go test ./internal/experiment -run TestAccuracyGolden -update.
func TestAccuracyGolden(t *testing.T) {
	if raceDetector {
		t.Skip("too slow under -race; run without it (see raceDetector)")
	}
	cfg := &Config{PopScale: 0.01, Reps: 1, Seed: 1, Oracle: "GRR"}
	sched := cfg.NewScheduler(nil)
	plans := make([]Plan, len(accuracyExperiments))
	for i, id := range accuracyExperiments {
		plans[i] = cfg.Plans()[id]()
	}
	sched.Announce(plans...)
	var got bytes.Buffer
	for i, p := range plans {
		tables, err := sched.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", accuracyExperiments[i], err)
		}
		if err := Write(&got, tables, "csv"); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(accuracyGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(accuracyGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	title := ""
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if strings.Contains(w, "# ") {
			title = w
		}
		if g != w {
			t.Errorf("%s line %d (%s):\n got %s\nwant %s", accuracyGolden, i+1, title, g, w)
		}
	}
}
