package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/hotpotato"
	"repro/internal/phold"
	"repro/internal/replay"
)

// workload is one named input shape. Hotpotato workloads use N, Steps and
// CkptEvery; PHOLD workloads use LPs, Population, RemoteProb, MeanDelay,
// Lookahead and EndTime. The seed is not part of the workload: it is a
// benchmark argument.
type workload struct {
	Name  string `json:"name"`
	Model string `json:"model"`

	N         int `json:"n,omitempty"`
	Steps     int `json:"steps,omitempty"`
	CkptEvery int `json:"checkpoint_every_rounds,omitempty"`

	LPs        int     `json:"lps,omitempty"`
	Population int     `json:"population,omitempty"`
	RemoteProb float64 `json:"remote_prob,omitempty"`
	MeanDelay  float64 `json:"mean_delay,omitempty"`
	Lookahead  float64 `json:"lookahead,omitempty"`
	EndTime    float64 `json:"end_time,omitempty"`
}

// workloads is the benchmark's fixed set. BENCHMARK.json and METRICS.md
// name them; the sizes are the ones those documents state. PHOLD's
// MeanDelay and Lookahead are the model's defaults, written out because
// the eventq probe draws its increments from them.
var workloads = []workload{
	{Name: "hotpotato-n32", Model: "hotpotato", N: 32, Steps: 100},
	{Name: "phold-kernel", Model: "phold", LPs: 4096, Population: 8, RemoteProb: 0.25, MeanDelay: 1, Lookahead: 0.1, EndTime: 20},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// outcome is what the correctness gate compares between an optimistic run
// and the sequential engine: the committed event count and the model's own
// results (hotpotato.Totals, or PHOLD's processed-job total).
type outcome struct {
	Committed int64
	Model     any
}

// twRun is one built Time Warp simulation, ready to Run. tr is the
// tracer of a traced run, nil otherwise.
type twRun struct {
	sim     *core.Simulator
	ckptDir string
	result  func() any
	tr      *tracer
}

func (w workload) hotpotatoConfig(seed uint64, pes int) hotpotato.Config {
	cfg := hotpotato.DefaultConfig(w.N)
	cfg.Steps = w.Steps
	cfg.Seed = seed
	cfg.NumPEs = pes
	return cfg
}

func (w workload) pholdConfig(seed uint64, pes int) phold.Config {
	return phold.Config{
		NumLPs:     w.LPs,
		Population: w.Population,
		RemoteProb: w.RemoteProb,
		MeanDelay:  w.MeanDelay,
		Lookahead:  w.Lookahead,
		EndTime:    core.Time(w.EndTime),
		Seed:       seed,
		NumPEs:     pes,
	}
}

// buildTW is the set-up step setup_s times: the model's public Build plus,
// when CkptEvery is set (the checkpoint probe), arming a CheckpointWriter
// on a fresh directory under tmp. A non-nil tracer wraps the routing
// policy, every LP's handler and the checkpoint sink, and attaches its
// record sink.
func (w workload) buildTW(seed uint64, pes int, tmp string, tr *tracer) (*twRun, error) {
	r := &twRun{tr: tr}
	switch w.Model {
	case "hotpotato":
		cfg := w.hotpotatoConfig(seed, pes)
		if tr != nil {
			cfg.Policy = tr.wrapPolicy(cfg.Policy)
		}
		sim, m, err := hotpotato.Build(cfg)
		if err != nil {
			return nil, err
		}
		r.sim = sim
		r.result = func() any { return m.Totals(sim) }
	case "phold":
		sim, m, err := phold.Build(w.pholdConfig(seed, pes))
		if err != nil {
			return nil, err
		}
		r.sim = sim
		r.result = func() any { return m.TotalProcessed(sim) }
	default:
		return nil, fmt.Errorf("workload %s: unknown model %q", w.Name, w.Model)
	}
	if tr != nil {
		tr.wrapHandlers(r.sim)
		r.sim.SetRecord((*gvtRecorder)(tr))
	}
	if w.CkptEvery > 0 {
		dir, err := os.MkdirTemp(tmp, w.Name+"-")
		if err != nil {
			return nil, err
		}
		r.ckptDir = dir
		cw, err := replay.NewCheckpointWriter(dir, hotpotato.StateCodecName, hotpotato.CodecName, nil)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		var sink core.CheckpointSink = cw
		if tr != nil {
			sink = tr.wrapCheckpoint(sink, dir)
		}
		r.sim.SetCheckpoint(sink, w.CkptEvery)
	}
	return r, nil
}

// runResult is what one optimistic Run measured. peakRSS is the run's
// peak resident set in bytes.
type runResult struct {
	stats   *core.Stats
	out     outcome
	wall    time.Duration
	mem     memDelta
	peakRSS float64
}

// memDelta is the runtime's allocation and GC activity during one Run.
type memDelta struct {
	mallocs, bytes, gcs uint64
	pause               time.Duration
}

// run executes the simulation and returns what Run alone measured. For a
// checkpointing run it then demands that the directory holds a
// decodable checkpoint taken at a positive GVT. The directory stays until
// the invocation ends: deleting files on a filesystem mounted with online
// discard queues work that would land in the next timed run.
func (r *twRun) run() (runResult, error) {
	// Return the previous runs' free heap to the OS and restart the peak
	// resident-set counter, so the peak read after Run is this run's own.
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	if r.tr != nil {
		r.tr.start = begin
	}
	st, err := r.sim.Run()
	wall := time.Since(begin)
	if r.tr != nil {
		r.tr.wall = wall
	}
	peak := peakRSS()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return runResult{}, err
	}
	res := runResult{
		stats:   st,
		wall:    wall,
		peakRSS: peak,
		mem: memDelta{
			mallocs: m1.Mallocs - m0.Mallocs,
			bytes:   m1.TotalAlloc - m0.TotalAlloc,
			gcs:     uint64(m1.NumGC - m0.NumGC),
			pause:   time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		},
	}
	if r.ckptDir != "" {
		cp, err := replay.LoadCheckpoint(r.ckptDir)
		if err != nil {
			return runResult{}, fmt.Errorf("loading checkpoint: %w", err)
		}
		if !(cp.GVT > 0) {
			return runResult{}, fmt.Errorf("checkpoint in %s has GVT %v, want > 0", filepath.Base(r.ckptDir), cp.GVT)
		}
	}
	res.out = outcome{Committed: st.Committed, Model: r.result()}
	return res, nil
}

// runSeq builds and runs the sequential engine on the same inputs and
// returns its outcome, the oracle, and the wall time of Run alone.
func (w workload) runSeq(seed uint64) (outcome, time.Duration, error) {
	var (
		run    func() (*core.Stats, error)
		result func() any
	)
	switch w.Model {
	case "hotpotato":
		seq, m, err := hotpotato.BuildSequential(w.hotpotatoConfig(seed, 1))
		if err != nil {
			return outcome{}, 0, err
		}
		run, result = seq.Run, func() any { return m.Totals(seq) }
	case "phold":
		seq, m, err := phold.BuildSequential(w.pholdConfig(seed, 1))
		if err != nil {
			return outcome{}, 0, err
		}
		run, result = seq.Run, func() any { return m.TotalProcessed(seq) }
	default:
		return outcome{}, 0, fmt.Errorf("workload %s: unknown model %q", w.Name, w.Model)
	}
	runtime.GC()
	begin := time.Now()
	st, err := run()
	wall := time.Since(begin)
	if err != nil {
		return outcome{}, wall, err
	}
	return outcome{Committed: st.Committed, Model: result()}, wall, nil
}

// check is the correctness gate: an optimistic run must commit exactly the
// sequential engine's events and produce its model results.
func check(got, want outcome) error {
	if got.Committed != want.Committed {
		return fmt.Errorf("committed %d events, sequential engine committed %d", got.Committed, want.Committed)
	}
	if got.Model != want.Model {
		return fmt.Errorf("model results differ from the sequential engine: got %+v, want %+v", got.Model, want.Model)
	}
	return nil
}
