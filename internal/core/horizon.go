package core

// This file is the optimism horizon policy: the one place a PE decides how
// far past GVT it may execute this pass, and which bound stopped it. It is
// pure scheduling policy — it changes *when* events execute, never what
// commits — so every differential harness holds it to the sequential
// oracle. The bounds, in precedence order:
//
//   - the speculation quota: a PE that has executed BatchSize·GVTInterval
//     events since it last observed a completed round executes nothing
//     until the next one completes. That bounds how far commits lag
//     execution however densely events pack in virtual time; any fixed
//     time window is wrong for some event density;
//   - the memory valve (Config.MaxLiveEvents): a PE at its live-event
//     budget narrows to the window floor until fossil collection drains it;
//   - the adaptive window, between cap/optFloorDiv and the cap
//     (MaxOptimism, else EndTime).
//
// The window is TCP-shaped, sampled once per GVT round. Efficiency
// (1 - rolledBack/processed over the interval) at or above optWidenAt
// grows it: doubling below the congestion threshold (slow start), one
// floor-unit at a time at or above it. Efficiency below optNarrowAt halves
// it and moves the threshold to the halved value, so the next climb turns
// additive *before* the width that just stormed; pure multiplicative
// increase would overshoot the workload's coupling width again and again.
// The band between leaves the window alone. The floor is strictly
// positive, so the event at GVT itself stays executable and the run
// deadlock-free under both the window and the valve.

const (
	// optSampleMin is the minimum number of new executions between window
	// adjustments; smaller intervals are folded into the next one so a
	// near-idle GVT round cannot swing the window on a handful of events.
	optSampleMin = 64
	// optWidenAt and optNarrowAt bound the efficiency dead band.
	optWidenAt  = 0.85
	optNarrowAt = 0.80
	// optFloorDiv sets the window floor as a fraction of the cap.
	optFloorDiv = 256
)

// clampReason names the bound that set a pass's horizon. It indexes the
// PE's clamps counters.
type clampReason uint8

const (
	clampNone   clampReason = iota // EndTime: nothing tighter applied
	clampWindow                    // the adaptive window
	clampValve                     // the memory valve, at the window floor
	clampQuota                     // the speculation quota: nothing executes
	numClampReasons
)

// horizonPolicy is one PE's horizon state, owned by the PE's goroutine.
type horizonPolicy struct {
	endTime Time
	quota   int   // executions per observed round
	maxLive int64 // valve budget; 0 disarms the valve
	// floor is the valve's window, cap/optFloorDiv; window moves within
	// [min, max], which is [floor, cap] unless pinned (see newHorizonPolicy).
	floor, window, min, max Time
	// thresh is the congestion threshold, starting at the cap.
	thresh Time
	// procMark/rbMark are the counter values at the last adjustment.
	procMark, rbMark int64
}

// newHorizonPolicy derives one PE's bounds from the run's configuration.
// The window starts at the floor and earns width: a clean PE doubles to
// the cap in log2(optFloorDiv) rounds, whereas starting wide costs a
// cascade storm up front on tightly coupled workloads that nothing but the
// window itself can quench. Two cases pin the window. One PE cannot roll
// back, so its window sits at the cap (horizon GVT+MaxOptimism, or EndTime
// when unset). With several PEs on one processor (cpus is GOMAXPROCS in
// production) it sits at the floor: optimism converts idle processors into
// speculative progress, and a timesliced core has none.
func newHorizonPolicy(cfg *Config, cpus int) horizonPolicy {
	cap := cfg.MaxOptimism
	if cap <= 0 {
		cap = cfg.EndTime
	}
	floor := cap / optFloorDiv
	if floor <= 0 {
		floor = 1
	}
	min, max := floor, cap
	switch {
	case cfg.NumPEs <= 1:
		min = cap
	case cpus <= 1:
		max = floor
	}
	return horizonPolicy{
		endTime: cfg.EndTime,
		quota:   cfg.BatchSize * cfg.GVTInterval,
		maxLive: int64(cfg.MaxLiveEvents),
		floor:   floor,
		window:  min,
		min:     min,
		max:     max,
		thresh:  max,
	}
}

// next returns this pass's horizon — events at or beyond it do not execute
// — and the bound that set it. A quota stall returns gvt itself, below
// which nothing pending can lie.
func (hp *horizonPolicy) next(gvt Time, liveEvents int64, sinceGVT int) (Time, clampReason) {
	if sinceGVT >= hp.quota {
		return gvt, clampQuota
	}
	w, reason := hp.window, clampWindow
	if hp.maxLive > 0 && liveEvents >= hp.maxLive {
		w, reason = hp.floor, clampValve
	}
	if h := gvt + w; h < hp.endTime {
		return h, reason
	}
	return hp.endTime, clampNone
}

// observe feeds the window the PE's cumulative processed/rolled-back
// counters (called once per completed GVT round) and adjusts it when the
// interval holds enough samples.
func (hp *horizonPolicy) observe(processed, rolledBack int64) {
	dp := processed - hp.procMark
	if dp < optSampleMin {
		return
	}
	drb := rolledBack - hp.rbMark
	hp.procMark, hp.rbMark = processed, rolledBack
	eff := 1 - float64(drb)/float64(dp)
	switch {
	case eff >= optWidenAt:
		if hp.window < hp.thresh {
			hp.window *= 2
			if hp.window > hp.thresh {
				hp.window = hp.thresh
			}
		} else {
			hp.window += hp.min
		}
		if hp.window > hp.max {
			hp.window = hp.max
		}
	case eff < optNarrowAt:
		hp.window /= 2
		if hp.window < hp.min {
			hp.window = hp.min
		}
		hp.thresh = hp.window
	}
}
