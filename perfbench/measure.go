package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// options are one benchmark invocation's settings.
type options struct {
	w      workload
	seed   uint64
	pes    int
	budget time.Duration
	// tmp is where checkpoint directories go, all removed when the
	// invocation ends; spans, when non-empty, is the path prefix of the
	// files a traced invocation writes its spans to.
	tmp   string
	spans string
	// ckptEvery is the checkpoint probe's cadence in GVT rounds.
	ckptEvery int
	// log receives one line per failed run.
	log io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// committed is the events one run commits (the input size), and
	// samples holds the per-run timings behind the end-to-end medians. Both
	// are printed on lines of their own, not in the result object.
	committed int64
	samples   map[string][]float64
}

// invocation runs one benchmark invocation's simulations and counts the
// optimistic runs it attempted and the ones that failed the correctness
// gate.
type invocation struct {
	opt       options
	oracle    outcome
	attempted int
	failed    int
	// tamper, when set, alters every optimistic outcome before the gate
	// compares it; the benchmark's own tests use it to seed a divergence.
	tamper func(*outcome)
}

// twSample is one optimistic run that passed the gate.
type twSample struct {
	runResult
	setup time.Duration
}

// start runs the sequential engine once: it is the oracle every optimistic
// run is compared with, and it warms the process.
func (s *invocation) start() error {
	out, _, err := s.opt.w.runSeq(s.opt.seed)
	if err != nil {
		return fmt.Errorf("sequential oracle run: %w", err)
	}
	s.oracle = out
	return nil
}

// seq times one sequential Run and checks that the engine is still
// deterministic. It returns the wall time of Run.
func (s *invocation) seq() (time.Duration, error) {
	out, wall, err := s.opt.w.runSeq(s.opt.seed)
	if err == nil {
		err = check(out, s.oracle)
	}
	return wall, err
}

// run builds, runs and checks one optimistic run of w, which must have
// the invocation's inputs; tr is nil for an untraced run. ok is false if the
// run failed; the failure is counted and logged.
func (s *invocation) run(w workload, tr *tracer) (twSample, bool) {
	s.attempted++
	runtime.GC()
	begin := time.Now()
	r, err := w.buildTW(s.opt.seed, s.opt.pes, s.opt.tmp, tr)
	setup := time.Since(begin)
	if err != nil {
		return twSample{}, s.fail(fmt.Errorf("build: %w", err))
	}
	res, err := r.run()
	if err != nil {
		return twSample{}, s.fail(err)
	}
	if s.tamper != nil {
		s.tamper(&res.out)
	}
	if err := check(res.out, s.oracle); err != nil {
		return twSample{}, s.fail(err)
	}
	return twSample{runResult: res, setup: setup}, true
}

// setupOnce times one optimistic set-up and discards the simulation
// unrun. It gives setup_s more samples than the timed runs alone.
func (s *invocation) setupOnce() (time.Duration, error) {
	runtime.GC()
	begin := time.Now()
	if _, err := s.opt.w.buildTW(s.opt.seed, s.opt.pes, s.opt.tmp, nil); err != nil {
		return 0, fmt.Errorf("build: %w", err)
	}
	return time.Since(begin), nil
}

func (s *invocation) fail(err error) bool {
	s.failed++
	fmt.Fprintf(s.opt.log, "%s seed %d: run %d failed: %v\n", s.opt.w.Name, s.opt.seed, s.attempted, err)
	return false
}

func (s *invocation) report(metrics map[string]metric) report {
	return report{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics, committed: s.oracle.Committed}
}

// minPairs is the fewest timed sequential/optimistic pairs a run makes,
// however short its budget. extraSetups is how many discarded set-ups
// each pair adds to setup_s's samples.
const (
	minPairs    = 3
	extraSetups = 2
)

// endToEnd is the untraced measurement: after the oracle and one warm-up
// optimistic run, it times sequential and optimistic runs in alternating
// order until the budget is spent, and reports medians. speedup_vs_seq is
// the median of the per-pair ratios, so host drift between pairs cancels.
func (s *invocation) endToEnd() (report, error) {
	start := time.Now()
	if err := s.start(); err != nil {
		return report{}, err
	}
	s.run(s.opt.w, nil)
	var setups, tws, seqs, ratios, peaks []float64
	for i := 0; i < minPairs || time.Since(start) < s.opt.budget; i++ {
		var (
			sample twSample
			ok     bool
		)
		twFirst := i%2 == 1
		if twFirst {
			sample, ok = s.run(s.opt.w, nil)
		}
		seqWall, err := s.seq()
		if err != nil {
			// The oracle itself no longer reproduces: nothing measured in
			// this process can be trusted.
			return report{}, fmt.Errorf("sequential engine is not deterministic: %w", err)
		}
		if !twFirst {
			sample, ok = s.run(s.opt.w, nil)
		}
		for j := 0; j < extraSetups; j++ {
			d, err := s.setupOnce()
			if err != nil {
				return report{}, err
			}
			setups = append(setups, d.Seconds())
		}
		seqs = append(seqs, seqWall.Seconds())
		if ok {
			setups = append(setups, sample.setup.Seconds())
			tws = append(tws, sample.wall.Seconds())
			peaks = append(peaks, sample.peakRSS/(1<<20))
			ratios = append(ratios, seqWall.Seconds()/sample.wall.Seconds())
		}
	}
	committed := float64(s.oracle.Committed)
	m := map[string]metric{
		"setup_s":                {median(setups), "s"},
		"committed_events_per_s": {rate(committed, median(tws)), "events/s"},
		"speedup_vs_seq":         {median(ratios), "ratio"},
		"peak_rss_mb":            {median(peaks), "MB"},
	}
	rep := s.report(m)
	rep.samples = map[string][]float64{"setup_s": setups, "seq_run_s": seqs, "tw_run_s": tws, "speedup": ratios, "peak_rss_mb": peaks}
	return rep, nil
}

func rate(n, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return n / secs
}
