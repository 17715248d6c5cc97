package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/phold"
	"repro/internal/rng"
)

// Shares of the budget a per-layer invocation spends on untraced runs
// (core.Stats and runtime counters, and the sequential engine's rate) and
// on traced runs; the eventq and rng probes take what is left.
const (
	untracedShare = 0.4
	tracedShare   = 0.85
)

// ckptProbeEvery is the checkpoint cadence, in GVT rounds, of the
// checkpoint probe (the CLI default). The benchmark's own tests lower it
// through options.ckptEvery: their tiny runs may take fewer GVT rounds.
const ckptProbeEvery = 32

// layers is the per-layer measurement. Untraced runs give the kernel's
// always-on core.Stats counters and the runtime's allocation counters,
// and the sequential runs between them seq_events_per_s;
// separate traced runs give per-call timings of the model handler and the
// routing policy, GVT round intervals and checkpoint publications; two
// probes time the pending queue and the RNG directly.
//
// The replay.* metrics come from the checkpoint probe: on a hotpotato
// workload, one extra traced run with a CheckpointWriter armed.
func (s *invocation) layers() (report, error) {
	start := time.Now()
	if err := s.start(); err != nil {
		return report{}, err
	}
	var plain []twSample
	var seqs []float64
	for i := 0; i < 2 || time.Since(start) < time.Duration(untracedShare*float64(s.opt.budget)); i++ {
		wall, err := s.seq()
		if err != nil {
			return report{}, fmt.Errorf("sequential engine is not deterministic: %w", err)
		}
		seqs = append(seqs, wall.Seconds())
		if sample, ok := s.run(s.opt.w, nil); ok {
			plain = append(plain, sample)
		}
	}
	w := s.opt.w
	var probe *tracer
	if w.Model == "hotpotato" {
		probe, _ = s.traced(w.ckptProbe(s.opt.ckptEvery))
	}
	var traced []*tracer
	for i := 0; i < 1 || time.Since(start) < time.Duration(tracedShare*float64(s.opt.budget)); i++ {
		if t, ok := s.traced(w); ok {
			traced = append(traced, t)
		}
	}
	m := map[string]metric{"seq_events_per_s": {float64(s.oracle.Committed) / median(seqs), "events/s"}}
	coreMetrics(m, plain)
	runtimeMetrics(m, plain)
	s.tracedMetrics(m, traced, plain)
	replayMetrics(m, probe)
	m["eventq.hold_ns"] = metric{0, "ns"}
	if w.Model == "phold" {
		m["eventq.hold_ns"] = metric{holdProbe(w.pholdConfig(s.opt.seed, s.opt.pes), s.opt.seed), "ns"}
	}
	uni, rev := rngProbe(s.opt.seed)
	m["rng.uniform_ns"] = metric{uni, "ns"}
	m["rng.reverse_ns"] = metric{rev, "ns"}
	if s.opt.spans != "" {
		var last *tracer
		if len(traced) > 0 {
			last = traced[len(traced)-1]
		}
		for suffix, t := range map[string]*tracer{".jsonl": last, "-ckpt.jsonl": probe} {
			if t == nil {
				continue
			}
			if err := writeSpans(s.opt.spans+suffix, t.spans()); err != nil {
				return report{}, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	return s.report(m), nil
}

// traced makes one traced run of w, which has the invocation's inputs. Its
// committed results go through the same gate as every other run, which is
// the self-test that the wrappers are transparent.
func (s *invocation) traced(w workload) (*tracer, bool) {
	t := new(tracer)
	if _, ok := s.run(w, t); !ok {
		return nil, false
	}
	switch {
	case t.unattributed.Load():
		return nil, s.fail(fmt.Errorf("traced run: a Route call could not be attributed to its LP"))
	case t.ckptErr != nil:
		return nil, s.fail(fmt.Errorf("traced run: %w", t.ckptErr))
	}
	return t, true
}

// medianOf returns the median of f over the samples.
func medianOf(samples []twSample, f func(twSample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return median(xs)
}

func coreMetrics(m map[string]metric, plain []twSample) {
	stat := func(name, unit string, f func(*core.Stats) float64) {
		m[name] = metric{medianOf(plain, func(s twSample) float64 { return f(s.stats) }), unit}
	}
	stat("core.efficiency", "ratio", func(st *core.Stats) float64 { return st.Efficiency })
	stat("core.rolled_back_events", "count", func(st *core.Stats) float64 { return float64(st.RolledBackEvents) })
	stat("core.primary_rollbacks", "count", func(st *core.Stats) float64 { return float64(st.PrimaryRollbacks) })
	stat("core.secondary_rollbacks", "count", func(st *core.Stats) float64 { return float64(st.SecondaryRollbacks) })
	stat("core.mail_sent", "count", func(st *core.Stats) float64 { return float64(st.MailSent) })
	stat("core.avg_batch_size", "events", func(st *core.Stats) float64 { return st.AvgBatchSize })
	stat("core.parks", "count", func(st *core.Stats) float64 { return float64(st.Parks) })
	stat("core.wakes", "count", func(st *core.Stats) float64 { return float64(st.Wakes) })
	stat("core.gvt_rounds", "count", func(st *core.Stats) float64 { return float64(st.GVTRounds) })
	stat("core.gvt_latency_us", "us", func(st *core.Stats) float64 {
		if st.GVTRounds == 0 {
			return 0
		}
		return float64(st.GVTLatency.Microseconds()) / float64(st.GVTRounds)
	})
	stat("core.live_peak", "events", func(st *core.Stats) float64 { return float64(st.LivePeak) })
	stat("core.pool_hit_rate", "ratio", func(st *core.Stats) float64 { return st.PoolHitRate })
	stat("core.opt_clamps", "count", func(st *core.Stats) float64 { return float64(st.OptClamps) })
	stat("core.pe_busy_frac_min", "ratio", func(st *core.Stats) float64 {
		lo := math.Inf(1)
		for _, pe := range st.PEs {
			lo = math.Min(lo, pe.Busy.Seconds()/st.Wall.Seconds())
		}
		return lo
	})
	stat("core.pe_commit_imbalance", "ratio", func(st *core.Stats) float64 {
		var hi int64
		for _, pe := range st.PEs {
			hi = max(hi, pe.Committed)
		}
		return float64(hi) * float64(len(st.PEs)) / float64(st.Committed)
	})
}

func runtimeMetrics(m map[string]metric, plain []twSample) {
	perEvent := func(s twSample, n uint64) float64 { return float64(n) / float64(s.stats.Committed) }
	m["runtime.allocs_per_event"] = metric{medianOf(plain, func(s twSample) float64 { return perEvent(s, s.mem.mallocs) }), "allocs"}
	m["runtime.alloc_bytes_per_event"] = metric{medianOf(plain, func(s twSample) float64 { return perEvent(s, s.mem.bytes) }), "B"}
	m["runtime.gc_cycles"] = metric{medianOf(plain, func(s twSample) float64 { return float64(s.mem.gcs) }), "count"}
	m["runtime.gc_pause_ms"] = metric{medianOf(plain, func(s twSample) float64 { return ms(s.mem.pause) }), "ms"}
}

// tracedMetrics folds the traced runs' accumulators into the per-layer
// metrics. Per-call histograms are merged over LPs and runs.
func (s *invocation) tracedMetrics(m map[string]metric, traced []*tracer, plain []twSample) {
	var fwd, rev, route hist
	var fwdNs, routeNs, peWall float64
	var intervals, advances, rates []float64
	for _, t := range traced {
		for _, lp := range t.lps {
			fwd.merge(&lp.forward)
			rev.merge(&lp.reverse)
			route.merge(&lp.route)
			fwdNs += float64(lp.forward.sum)
			routeNs += float64(lp.route.sum)
		}
		peWall += t.wall.Seconds() * 1e9 * float64(s.opt.pes)
		rates = append(rates, float64(s.oracle.Committed)/t.wall.Seconds())
		var prevAt time.Duration
		var prevGVT core.Time
		for i, at := range t.roundAt {
			intervals = append(intervals, ms(at-prevAt))
			if g := t.roundGVT[i]; g < core.TimeInfinity {
				advances = append(advances, float64(g-prevGVT))
				prevGVT = g
			}
			prevAt = at
		}
	}
	// The handler metrics of the model a workload does not run read 0.
	model := s.opt.w.Model
	m["hotpotato.forward_calls"] = metric{0, "count"}
	m["hotpotato.forward_ns_p50"] = metric{0, "ns"}
	m["hotpotato.forward_ns_p99"] = metric{0, "ns"}
	m["hotpotato.reverse_calls"] = metric{0, "count"}
	m["hotpotato.reverse_ns_p50"] = metric{0, "ns"}
	m["hotpotato.self_frac"] = metric{0, "ratio"}
	m["phold.forward_ns_p50"] = metric{0, "ns"}
	runs := float64(max(len(traced), 1))
	m[model+".forward_ns_p50"] = metric{fwd.quantile(0.5), "ns"}
	if model == "hotpotato" {
		m["hotpotato.forward_calls"] = metric{float64(fwd.n) / runs, "count"}
		m["hotpotato.forward_ns_p99"] = metric{fwd.quantile(0.99), "ns"}
		m["hotpotato.reverse_calls"] = metric{float64(rev.n) / runs, "count"}
		m["hotpotato.reverse_ns_p50"] = metric{rev.quantile(0.5), "ns"}
		if peWall > 0 {
			m["hotpotato.self_frac"] = metric{(fwdNs - routeNs) / peWall, "ratio"}
		}
	}
	m["routing.route_calls"] = metric{float64(route.n) / runs, "count"}
	m["routing.route_ns_p50"] = metric{route.quantile(0.5), "ns"}
	m["routing.route_ns_p99"] = metric{route.quantile(0.99), "ns"}

	m["core.gvt_interval_ms_p50"] = metric{quantileOf(intervals, 0.5), "ms"}
	m["core.gvt_interval_ms_p99"] = metric{quantileOf(intervals, 0.99), "ms"}
	m["core.gvt_advance_per_round"] = metric{mean(advances), "vtime"}

	untraced := rate(float64(s.oracle.Committed), medianOf(plain, func(s twSample) float64 { return s.wall.Seconds() }))
	m["trace.rate_ratio"] = metric{rate(median(rates), untraced), "ratio"}
}

// replayMetrics reports checkpoint publication in the checkpoint probe
// run; without one they read 0.
func replayMetrics(m map[string]metric, probe *tracer) {
	var publish, size []float64
	var secs, bytes float64
	if probe != nil {
		for _, c := range probe.ckpts {
			publish = append(publish, c.EndMS-c.StartMS)
			secs += (c.EndMS - c.StartMS) / 1e3
			size = append(size, float64(c.Bytes))
			bytes += float64(c.Bytes)
		}
	}
	m["replay.ckpt_count"] = metric{float64(len(publish)), "count"}
	m["replay.ckpt_publish_ms_p50"] = metric{quantileOf(publish, 0.5), "ms"}
	m["replay.ckpt_publish_ms_p90"] = metric{quantileOf(publish, 0.9), "ms"}
	m["replay.ckpt_bytes"] = metric{mean(size), "B"}
	m["replay.ckpt_mb_per_s"] = metric{rate(bytes/1e6, secs), "MB/s"}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ckptProbe is w with a CheckpointWriter armed every `every` GVT rounds:
// the traced run behind the replay.* metrics.
func (w workload) ckptProbe(every int) workload {
	w.CkptEvery = every
	return w
}

// holdKey is a pending-queue entry for the eventq probe: a timestamp with
// a unique tie-breaker, like the kernel's event order.
type holdKey struct {
	t   float64
	seq uint64
}

// holdProbe times the classic hold operation (Pop the minimum, Push it
// back later) on the kernel's default ladder queue, with PHOLD's traffic
// on one PE. Each PHOLD Forward sends exactly one job, Lookahead +
// Exp(MeanDelay) after the event it handles, and install schedules
// Population jobs per LP, so the model holds NumLPs × Population pending
// jobs at every moment; block placement gives each PE 1/NumPEs of the LPs
// and uniform remote sends keep that share. It returns the median ns per
// hold over rounds.
func holdProbe(cfg phold.Config, seed uint64) float64 {
	n := cfg.NumLPs * cfg.Population / cfg.NumPEs
	inc := func(r *rng.Stream) float64 { return cfg.Lookahead + r.Exponential(cfg.MeanDelay) }
	q, err := eventq.New[holdKey]("ladder",
		func(a, b holdKey) bool { return a.t < b.t || a.t == b.t && a.seq < b.seq },
		func(k holdKey) float64 { return k.t })
	if err != nil {
		panic(err) // "ladder" is a registered kind; only a bug gets here
	}
	r := rng.NewStream(seed)
	var seq uint64
	for i := 0; i < n; i++ {
		seq++
		q.Push(holdKey{inc(r), seq})
	}
	hold := func(ops int) {
		for i := 0; i < ops; i++ {
			k, _ := q.Pop()
			seq++
			q.Push(holdKey{k.t + inc(r), seq})
		}
	}
	ops := max(4*n, 100_000)
	hold(ops) // past the ladder's build-up transient
	var per []float64
	for round := 0; round < 7; round++ {
		begin := time.Now()
		hold(ops)
		per = append(per, float64(time.Since(begin).Nanoseconds())/float64(ops))
	}
	return median(per)
}

// rngProbe times the reversible RNG: ns per Uniform draw and ns per
// reversed draw, medians over rounds.
func rngProbe(seed uint64) (uniform, reverse float64) {
	const draws = 1 << 20
	st := rng.NewStream(seed)
	var fwd, back []float64
	var sink float64
	for round := 0; round < 7; round++ {
		begin := time.Now()
		for i := 0; i < draws; i++ {
			sink += st.Uniform()
		}
		fwd = append(fwd, float64(time.Since(begin).Nanoseconds())/draws)
		begin = time.Now()
		st.Reverse(draws)
		back = append(back, float64(time.Since(begin).Nanoseconds())/draws)
	}
	if math.IsNaN(sink) {
		panic("rng: NaN draw")
	}
	return median(fwd), median(back)
}

// spansPath is the path prefix of a traced invocation's spans files: one
// for its last timed traced run and one for the checkpoint probe.
func spansPath(dir string, w workload, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.Name, seed))
}
