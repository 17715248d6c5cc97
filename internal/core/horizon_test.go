package core

// Tests for the optimism horizon policy (horizon.go): which bound sets a
// pass's horizon, how the adaptive window moves, and that every bound is
// scheduling-only.

import "testing"

// TestHorizonPolicy drives next directly. The base configuration gives a
// quota of 4·8 = 32 events per round, and a cap of EndTime = 1024 with a
// floor of 4 unless MaxOptimism overrides it; clean is the number of
// rollback-free intervals observed before next is called.
func TestHorizonPolicy(t *testing.T) {
	cases := []struct {
		name       string
		pes, cpus  int
		maxOpt     Time
		maxLive    int
		clean      int
		gvt        Time
		live       int64
		since      int
		wantH      Time
		wantReason clampReason
	}{
		{name: "quota beats valve", pes: 2, cpus: 8, maxLive: 10,
			gvt: 100, live: 10, since: 32, wantH: 100, wantReason: clampQuota},
		{name: "valve beats window", pes: 2, cpus: 8, maxLive: 10, clean: 3,
			gvt: 100, live: 10, since: 31, wantH: 104, wantReason: clampValve},
		{name: "window below budget", pes: 2, cpus: 8, maxLive: 10, clean: 3,
			gvt: 100, live: 9, wantH: 132, wantReason: clampWindow},
		{name: "none past the end", pes: 2, cpus: 8, clean: 3,
			gvt: 1000, wantH: 1024, wantReason: clampNone},
		{name: "one PE pinned at the end time", pes: 1, cpus: 8,
			gvt: 100, wantH: 1024, wantReason: clampNone},
		{name: "one PE pinned at MaxOptimism", pes: 1, cpus: 8, maxOpt: 512, clean: 8,
			gvt: 100, wantH: 612, wantReason: clampWindow},
		{name: "valve bites at the floor on one PE", pes: 1, cpus: 8, maxOpt: 512, maxLive: 5,
			gvt: 100, live: 5, wantH: 102, wantReason: clampValve},
		{name: "one CPU pins the window at the floor", pes: 2, cpus: 1, clean: 16,
			gvt: 100, wantH: 104, wantReason: clampWindow},
		{name: "MaxOptimism caps the adaptive window", pes: 2, cpus: 8, maxOpt: 64, clean: 32,
			gvt: 100, wantH: 164, wantReason: clampWindow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hp := newHorizonPolicy(&Config{
				NumPEs: tc.pes, EndTime: 1024, BatchSize: 4, GVTInterval: 8,
				MaxOptimism: tc.maxOpt, MaxLiveEvents: tc.maxLive,
			}, tc.cpus)
			for i := 1; i <= tc.clean; i++ {
				hp.observe(int64(i*optSampleMin), 0)
			}
			h, reason := hp.next(tc.gvt, tc.live, tc.since)
			if h != tc.wantH || reason != tc.wantReason {
				t.Fatalf("next = (%v, %d), want (%v, %d); window %v in [%v, %v], floor %v",
					h, reason, tc.wantH, tc.wantReason, hp.window, hp.min, hp.max, hp.floor)
			}
		})
	}
}

// TestMaxOptimismPreservesResults: the throttle is a performance knob; it
// must not change committed results.
func TestMaxOptimismPreservesResults(t *testing.T) {
	base := Config{NumLPs: 64, EndTime: 50, Seed: 7}
	want, seqStats := runStressSequential(t, base, 20)

	for _, maxOpt := range []Time{0.5, 2, 10} {
		cfg := base
		cfg.NumPEs = 4
		cfg.NumKPs = 16
		cfg.BatchSize = 8
		cfg.GVTInterval = 4
		cfg.MaxOptimism = maxOpt
		got, parStats := runStressParallel(t, cfg, 20)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("maxOpt=%v LP %d: %+v != %+v", maxOpt, i, got[i], want[i])
			}
		}
		if parStats.Committed != seqStats.Committed {
			t.Fatalf("maxOpt=%v: committed %d != %d", maxOpt, parStats.Committed, seqStats.Committed)
		}
	}
}

// TestMaxOptimismBoundsSpeculation: with an aggressive over-optimistic
// configuration, enabling the throttle must cut the rolled-back volume
// substantially.
func TestMaxOptimismBoundsSpeculation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive comparison")
	}
	run := func(maxOpt Time) *Stats {
		cfg := Config{
			NumLPs: 128, EndTime: 120, Seed: 11, NumPEs: 8, NumKPs: 16,
			BatchSize: 256, GVTInterval: 64, MaxOptimism: maxOpt,
		}
		_, stats := runStressParallel(t, cfg, 60)
		return stats
	}
	wild := run(0)
	tame := run(2)
	// The wild configuration on an oversubscribed host typically rolls
	// back many times its committed volume; the throttle must keep it
	// within a small multiple. Guard loosely to stay robust across hosts,
	// but catch order-of-magnitude regressions.
	if wild.RolledBackEvents > 0 && tame.RolledBackEvents > wild.RolledBackEvents {
		t.Fatalf("throttle increased rollbacks: %d -> %d", wild.RolledBackEvents, tame.RolledBackEvents)
	}
	if tame.RolledBackEvents > 4*tame.Committed {
		t.Fatalf("throttled run still rolled back %d events for %d committed",
			tame.RolledBackEvents, tame.Committed)
	}
}

// TestAdaptiveWindowDynamics drives the horizon window directly through a
// rollback storm and out the other side: slow-start to the cap on clean
// intervals, halving with threshold tracking under the storm, and the
// post-storm climb that goes additive at the threshold the storm set.
func TestAdaptiveWindowDynamics(t *testing.T) {
	oc := newHorizonPolicy(&Config{EndTime: 256, NumPEs: 2}, 8)
	if oc.min != 1 || oc.max != 256 {
		t.Fatalf("bounds: min=%v max=%v, want 1, 256", oc.min, oc.max)
	}
	if oc.window != oc.min {
		t.Fatalf("window starts at %v, want the floor %v", oc.window, oc.min)
	}

	// Sub-threshold samples fold into the next interval without moving the
	// window.
	proc, rb := int64(optSampleMin-1), int64(0)
	oc.observe(proc, rb)
	if oc.window != oc.min || oc.procMark != 0 {
		t.Fatalf("short interval moved the window (%v) or the mark (%d)", oc.window, oc.procMark)
	}

	// Clean intervals: pure slow start doubles the floor to the cap in
	// log2(optFloorDiv) observations.
	steps := 0
	for oc.window < oc.max {
		proc += optSampleMin
		oc.observe(proc, rb)
		if steps++; steps > 64 {
			t.Fatalf("window stuck at %v after %d clean intervals", oc.window, steps)
		}
	}
	if steps != 8 {
		t.Fatalf("slow start took %d doublings from %v to %v, want 8", steps, oc.min, oc.max)
	}

	// Storm: every interval rollback-dominated (efficiency 0.5) halves the
	// window down to the floor, dragging the threshold with it.
	for i := 0; oc.window > oc.min; i++ {
		proc += 2 * optSampleMin
		rb += optSampleMin
		oc.observe(proc, rb)
		if i > 64 {
			t.Fatalf("storm never drove the window to the floor (at %v)", oc.window)
		}
	}
	if oc.thresh != oc.min {
		t.Fatalf("threshold %v did not follow the storm down to the floor %v", oc.thresh, oc.min)
	}

	// Recovery: the threshold the storm set makes the climb additive from
	// the first step — one floor unit per clean interval, no overshooting
	// jump back to the width that just stormed.
	proc += optSampleMin
	oc.observe(proc, rb)
	if oc.window != 2*oc.min {
		t.Fatalf("first post-storm step took window to %v, want additive %v", oc.window, 2*oc.min)
	}
	for i := 0; oc.window < oc.max; i++ {
		proc += optSampleMin
		oc.observe(proc, rb)
		if i > 2*optFloorDiv {
			t.Fatalf("additive climb never reached the cap (at %v)", oc.window)
		}
	}

	// Dead band: an interval between the thresholds leaves the window alone.
	proc += optSampleMin
	rb += optSampleMin * 18 / 100 // efficiency 0.82 ∈ [narrowAt, widenAt)
	before := oc.window
	oc.observe(proc, rb)
	if oc.window != before {
		t.Fatalf("dead-band interval moved the window %v -> %v", before, oc.window)
	}
}

// TestAdaptiveWindowPinnedOnOneCPU: with one processor the cap collapses to
// the floor and no observation stream may widen the window — speculation on
// a timesliced core only displaces critical-path work.
func TestAdaptiveWindowPinnedOnOneCPU(t *testing.T) {
	oc := newHorizonPolicy(&Config{EndTime: 256, NumPEs: 2}, 1)
	if oc.max != oc.min {
		t.Fatalf("cap %v not collapsed to floor %v", oc.max, oc.min)
	}
	proc := int64(0)
	for i := 0; i < 32; i++ {
		proc += optSampleMin
		oc.observe(proc, 0)
		if oc.window != oc.min {
			t.Fatalf("perfect efficiency widened a pinned window to %v", oc.window)
		}
	}
}
