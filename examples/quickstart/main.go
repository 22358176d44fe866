// Quickstart: collect a private frequency stream from 10,000 simulated
// user devices with the LPA mechanism (population absorption — the paper's
// best method) and compare the released estimates against the ground
// truth.
//
// The devices run on the in-process simulation backend: every user is a
// report closure over its own private randomness source, called in request
// order. The mechanism steps through a CollectEnv, so swapping the backend
// for the HTTP gateway (see cmd/ldpids-gateway) changes nothing in this
// loop — all backends produce bit-identical estimates from identical seeds.
package main

import (
	"fmt"
	"log"

	"ldpids"
)

func main() {
	const (
		n   = 10000 // users
		w   = 20    // sliding-window size
		eps = 1.0   // privacy budget per window
		T   = 100   // timestamps to run
	)

	root := ldpids.NewSource(42)

	// A binary stream: at each timestamp, a slowly oscillating fraction
	// of users holds value 1 (e.g. "device is in the monitored state").
	// Materialize T snapshots so the devices can answer from a script.
	s := ldpids.NewBinaryStream(n, ldpids.DefaultSin(), root.Split())
	snaps := ldpids.MaterializeStream(s, T)
	truth := ldpids.Histograms(snaps, 2)

	// Frequency oracle shared by all users (GRR is optimal for d=2), and
	// one private randomness source per device.
	oracle := ldpids.NewGRR(2)
	srcs := make([]*ldpids.Source, n)
	for u := range srcs {
		srcs[u] = root.Split()
	}

	// The backend: 10,000 simulated devices. Only perturbed reports ever
	// leave a device.
	backend := &ldpids.SimBackend{Users: n, Report: func(u, t int, eps float64) ldpids.Report {
		return oracle.Perturb(snaps[t-1][u], eps, srcs[u])
	}}

	// The w-event LDP mechanism. Each user is guaranteed eps-LDP over
	// any window of w consecutive timestamps, forever.
	m, err := ldpids.NewMechanism("LPA", ldpids.Params{
		Eps: eps, W: w, N: n, Oracle: oracle, Src: root.Split(),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Drive the mechanism over the backend, with the privacy accountant
	// auditing every collection round.
	acct := ldpids.NewAccountant(eps, w)
	env := ldpids.NewCollectEnv(backend)
	env.Observer = acct.Observe

	released := make([][]float64, 0, T)
	for t := 1; t <= T; t++ {
		env.Advance(t)
		r, err := m.Step(env)
		if err != nil {
			log.Fatalf("t=%d: %v", t, err)
		}
		released = append(released, r)
	}

	fmt.Println("t     true f(1)   released    |error|")
	fmt.Println("---------------------------------------")
	for t := 0; t < T; t += 10 {
		tr, rl := truth[t][1], released[t][1]
		fmt.Printf("%-4d  %8.4f   %8.4f   %8.4f\n", t+1, tr, rl, abs(tr-rl))
	}
	fmt.Printf("\nMRE over %d timestamps: %.4f\n", T, ldpids.MRE(released, truth, 0))
	fmt.Printf("communication: %s\n", env.Stats())
	fmt.Printf("w-event LDP violations found by audit: %d\n", len(acct.Violations()))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
