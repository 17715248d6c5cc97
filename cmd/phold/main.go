// Command phold runs the PHOLD synthetic benchmark against the Time Warp
// kernel and prints kernel statistics — the neutral stressor for tuning
// PE/KP parameters independent of the routing model.
//
//	phold -lps 4096 -population 8 -remote 0.5 -end 100 -pes 4
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/phold"
	"repro/internal/profiling"
)

func main() {
	var (
		lps        = flag.Int("lps", 1024, "number of logical processes")
		population = flag.Int("population", 8, "initial jobs per LP")
		remote     = flag.Float64("remote", 0.5, "probability a job moves to a random LP")
		mean       = flag.Float64("mean", 1.0, "mean exponential hold time")
		lookahead  = flag.Float64("lookahead", 0.1, "constant minimum delay")
		end        = flag.Float64("end", 100, "virtual-time horizon")
		seed       = flag.Uint64("seed", 1, "random seed")
		pes        = flag.Int("pes", 0, "processing elements (0 = GOMAXPROCS)")
		kps        = flag.Int("kps", 0, "kernel processes (0 = default)")
		maxOpt     = flag.Float64("max-optimism", 0, "bound speculation to this far beyond GVT (0 = unlimited)")
		sequential = flag.Bool("sequential", false, "run the sequential reference engine")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	stopProf, perr := prof.Start()
	if perr != nil {
		fmt.Fprintln(os.Stderr, "phold:", perr)
		os.Exit(1)
	}

	cfg := phold.Config{
		NumLPs:      *lps,
		Population:  *population,
		RemoteProb:  *remote,
		MeanDelay:   *mean,
		Lookahead:   *lookahead,
		EndTime:     core.Time(*end),
		Seed:        *seed,
		NumPEs:      *pes,
		NumKPs:      *kps,
		MaxOptimism: core.Time(*maxOpt),
	}

	var (
		ks    *core.Stats
		total int64
		err   error
	)
	if *sequential {
		var seq *core.Sequential
		var m *phold.Model
		seq, m, err = phold.BuildSequential(cfg)
		if err == nil {
			ks, err = seq.Run()
			if err == nil {
				total = m.TotalProcessed(seq)
			}
		}
	} else {
		var sim *core.Simulator
		var m *phold.Model
		sim, m, err = phold.Build(cfg)
		if err == nil {
			ks, err = sim.Run()
			if err == nil {
				total = m.TotalProcessed(sim)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "phold:", err)
		os.Exit(1)
	}
	fmt.Printf("phold: %d LPs, population %d, remote %.2f, horizon %g\n",
		*lps, *population, *remote, *end)
	fmt.Printf("  jobs processed: %d\n", total)
	fmt.Print(ks)
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "phold:", err)
		os.Exit(1)
	}
}
