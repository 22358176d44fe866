// Package-level benchmarks: one per table/figure of the paper's evaluation
// (§7), each running a scaled-down instance of the corresponding experiment
// through the same harness the CLI uses, plus per-mechanism micro-benches.
// Run the full-scale reproduction with cmd/ldpids-bench; these benches
// measure the harness and report the headline metric of each experiment via
// b.ReportMetric.
package ldpids_test

import (
	"testing"

	"ldpids/internal/experiment"
)

// benchConfig returns a small but non-degenerate configuration.
func benchConfig() *experiment.Config {
	return &experiment.Config{PopScale: 0.01, Seed: 7}
}

// reportMean reports the mean cell value of the produced tables under the
// given metric name.
func reportMean(b *testing.B, tables []experiment.Table, name string) {
	sum, cnt := 0.0, 0
	for _, t := range tables {
		for _, row := range t.Cells {
			for _, v := range row {
				sum += v
				cnt++
			}
		}
	}
	if cnt > 0 {
		b.ReportMetric(sum/float64(cnt), name)
	}
}

// BenchmarkFig4MREvsEps regenerates Figure 4 (MRE vs ε, w=20) on the Sin
// dataset.
func BenchmarkFig4MREvsEps(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"Sin"}
	for i := 0; i < b.N; i++ {
		tables, err := cfg.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tables, "meanMRE")
	}
}

// BenchmarkFig4AllDatasets regenerates Figure 4 across all six datasets.
func BenchmarkFig4AllDatasets(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tables, err := cfg.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tables, "meanMRE")
	}
}

// BenchmarkFig5MREvsW regenerates Figure 5 (MRE vs w, ε=1) on LNS.
func BenchmarkFig5MREvsW(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"LNS"}
	for i := 0; i < b.N; i++ {
		tables, err := cfg.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tables, "meanMRE")
	}
}

// BenchmarkFig6DatasetParams regenerates Figure 6 (population and
// fluctuation sweeps on LNS and Sin).
func BenchmarkFig6DatasetParams(b *testing.B) {
	cfg := benchConfig()
	cfg.Methods = []string{"LBU", "LBA", "LSP", "LPU", "LPA"}
	for i := 0; i < b.N; i++ {
		tables, err := cfg.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tables, "meanMRE")
	}
}

// BenchmarkFig7EventMonitoring regenerates Figure 7 (ROC AUC, ε=1, w=50)
// on Sin and Taxi.
func BenchmarkFig7EventMonitoring(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"Sin", "Taxi"}
	for i := 0; i < b.N; i++ {
		tables, err := cfg.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tables, "meanAUC")
	}
}

// BenchmarkFig8CFPU regenerates Figure 8 (CFPU vs N, Q, ε, w on LNS).
func BenchmarkFig8CFPU(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tables, err := cfg.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tables, "meanCFPU")
	}
}

// BenchmarkTable2CFPU regenerates Table 2 (CFPU at three (ε, w) combos) on
// Sin and Taxi.
func BenchmarkTable2CFPU(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"Sin", "Taxi"}
	for i := 0; i < b.N; i++ {
		tables, err := cfg.Table2()
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tables, "meanCFPU")
	}
}

// BenchmarkAblationFO runs the frequency-oracle swap ablation.
func BenchmarkAblationFO(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []string{"Sin", "Taxi"}
	for i := 0; i < b.N; i++ {
		tables, err := cfg.AblationFO()
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tables, "meanMRE")
	}
}

// BenchmarkAblationSplit runs the M1/M2 resource-split ablation.
func BenchmarkAblationSplit(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tables, err := cfg.AblationSplit()
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tables, "meanMRE")
	}
}

// BenchmarkGridSerial runs a Fig-4 grid (7 methods x 5 eps, 3 reps each)
// on one worker: the pre-parallelization baseline.
func BenchmarkGridSerial(b *testing.B) {
	benchmarkGrid(b, 1)
}

// BenchmarkGridParallel runs the identical grid on the full worker pool.
// The cells are independent seeded runs, so on an m-core machine this
// should approach m-times the serial throughput while producing
// bit-identical tables (asserted by TestParallelMatchesSerial).
func BenchmarkGridParallel(b *testing.B) {
	benchmarkGrid(b, 0)
}

func benchmarkGrid(b *testing.B, workers int) {
	cfg := benchConfig()
	cfg.Workers = workers
	cfg.Reps = 3
	cfg.Datasets = []string{"Sin"}
	for i := 0; i < b.N; i++ {
		tables, err := cfg.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		reportMean(b, tables, "meanMRE")
	}
}

// BenchmarkMechanismStep measures the per-timestamp cost of each mechanism
// on a 10k-user binary stream.
func BenchmarkMechanismStep(b *testing.B) {
	for _, method := range []string{"LBU", "LSP", "LBD", "LBA", "LPU", "LPD", "LPA"} {
		b.Run(method, func(b *testing.B) {
			out, err := experiment.Execute(experiment.RunSpec{
				Stream: experiment.StreamSpec{Dataset: "Sin", N: 10000, T: 50},
				Method: method, Eps: 1, W: 10, Seed: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			_ = out
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiment.Execute(experiment.RunSpec{
					Stream: experiment.StreamSpec{Dataset: "Sin", N: 10000, T: 50},
					Method: method, Eps: 1, W: 10, Seed: uint64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(10000*50)/1e6, "Muser·ts/op")
		})
	}
}
