package core

// Tests for the asynchronous token GVT: token rounds must commit exactly
// the sequential history under adversarial fault plans, and the
// speculation quota riding on them must bound the live uncommitted
// footprint where no time-based window can.

import (
	"fmt"
	"testing"
)

// TestAsyncGVTMatchesSequential drives the stress model through PE/KP/batch
// shapes chosen to exercise the token machinery: single-PE self-handoff,
// uneven mappings, and tiny GVT intervals that keep the token hot. It is
// part of the CI -race stress step.
func TestAsyncGVTMatchesSequential(t *testing.T) {
	base := Config{NumLPs: 64, EndTime: 50, Seed: 11}
	want, seqStats := runStressSequential(t, base, 20)

	configs := []Config{
		{NumLPs: 64, EndTime: 50, Seed: 11, NumPEs: 1, NumKPs: 4},
		{NumLPs: 64, EndTime: 50, Seed: 11, NumPEs: 2, NumKPs: 8, BatchSize: 4, GVTInterval: 1},
		{NumLPs: 64, EndTime: 50, Seed: 11, NumPEs: 4, NumKPs: 16, BatchSize: 4, GVTInterval: 2},
		{NumLPs: 64, EndTime: 50, Seed: 11, NumPEs: 3, NumKPs: 7}, // uneven mapping
		{NumLPs: 64, EndTime: 50, Seed: 11, NumPEs: 4, NumKPs: 8},
	}
	for _, cfg := range configs {
		cfg := cfg
		name := fmt.Sprintf("pe%d_kp%d_b%d_g%d", cfg.NumPEs, cfg.NumKPs, cfg.BatchSize, cfg.GVTInterval)
		t.Run(name, func(t *testing.T) {
			got, parStats := runStressParallel(t, cfg, 20)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("LP %d state mismatch: async %+v vs sequential %+v", i, got[i], want[i])
				}
			}
			if parStats.Committed != seqStats.Committed {
				t.Fatalf("committed events: async %d vs sequential %d",
					parStats.Committed, seqStats.Committed)
			}
			if parStats.GVTRounds == 0 {
				t.Fatal("async run completed zero token rounds")
			}
		})
	}
}

// TestAsyncGVTUnderFaults runs the token GVT under every fault injector
// at once: forced rollbacks stress epoch coverage of anti-message mail,
// GVTDelay stresses the request-suppression path, mail bursts hold epochs
// open across token visits, shuffled delivery stresses the sender-side
// coverage argument, and throttled PEs drag the token ring at two speeds.
// Committed results must still be bit-identical to sequential.
func TestAsyncGVTUnderFaults(t *testing.T) {
	base := Config{NumLPs: 48, EndTime: 30, Seed: 5}
	want, seqStats := runStressSequential(t, base, 12)

	plans := []Faults{
		{Seed: 1, RollbackEvery: 3, RollbackDepth: 4},
		{Seed: 2, GVTDelay: 3, ShuffleMail: true},
		{Seed: 3, MailBurst: 2, ThrottlePEs: 1},
		{Seed: 4, RollbackEvery: 2, RollbackDepth: 6, GVTDelay: 2, ShuffleMail: true, MailBurst: 3, ThrottlePEs: 2},
		// The combination that exposed the forced-rollback/token-promise
		// interaction (use-after-free of a committed cancellation target):
		// spontaneous unwinds below a PE's folded contribution while held
		// bursts delay the covering mail. Fixed by clamping the injector
		// to the last contribution; see maybeForceRollback.
		{Seed: 11535655, RollbackEvery: 3, RollbackDepth: 4, ShuffleMail: true, MailBurst: 4},
	}
	for i, plan := range plans {
		plan := plan
		t.Run(fmt.Sprintf("plan%d", i), func(t *testing.T) {
			cfg := Config{NumLPs: 48, EndTime: 30, Seed: 5, NumPEs: 4, NumKPs: 8,
				BatchSize: 4, GVTInterval: 2,
				CheckInvariants: true, Faults: &plan}
			got, parStats := runStressParallel(t, cfg, 12)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("LP %d state mismatch under %+v: %+v vs %+v", i, plan, got[i], want[i])
				}
			}
			if parStats.Committed != seqStats.Committed {
				t.Fatalf("committed events under %+v: %d vs sequential %d",
					plan, parStats.Committed, seqStats.Committed)
			}
		})
	}
}

// denseModel reproduces the shape that defeats every time-based optimism
// window: a population of jobs bootstrapped at microsecond spacing, each
// hopping one microsecond ahead around a ring until its TTL expires. The
// whole run spans a few hundred microseconds while any window floor derived
// from the end time is thousands of microseconds wide, so the horizon clamp
// can never bind and only the count-based speculation quota stands between
// the kernel and executing the entire population ahead of GVT.
type denseState struct{ Processed int64 }

type denseModel struct{ numLPs int }

func (m denseModel) Forward(lp *LP, ev *Event) {
	lp.State.(*denseState).Processed++
	if ttl := ev.Data.(int); ttl > 0 {
		lp.Send(LPID((int(lp.ID)+1)%m.numLPs), 1e-6, ttl-1)
	}
}

func (m denseModel) Reverse(lp *LP, ev *Event) {
	lp.State.(*denseState).Processed--
}

func runDense(t *testing.T, cfg Config, ttl int) *Stats {
	t.Helper()
	cfg.NumLPs = 256
	cfg.EndTime = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ForEachLP(func(lp *LP) {
		lp.Handler = denseModel{numLPs: s.NumLPs()}
		lp.State = &denseState{}
	})
	for i := 0; i < s.NumLPs(); i++ {
		s.Schedule(LPID(i), Time(float64(i+1)*1e-6), ttl)
	}
	stats, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	s.ForEachLP(func(lp *LP) { total += lp.State.(*denseState).Processed })
	if want := int64(s.NumLPs() * (ttl + 1)); total != want {
		t.Fatalf("processed %d events, want %d", total, want)
	}
	return stats
}

// TestSpeculationQuotaBoundsDenseBootstrap: on the dense model a generous
// interval (quota 16·512 = 8192 events, against a population of 256·41 =
// 10,496) lets the kernel execute most of the population ahead of
// commitment, while a tight one (16·8 = 128) stops execution after one
// quota's worth of events per completed round no matter how tightly the
// timestamps pack. One PE makes the bound exact: every completed round
// advances GVT to the local frontier and commits everything executed, so
// the live peak is one quota plus at most a batch of overshoot. (Multi-PE
// lag additionally depends on how the OS schedules the starved PE, so the
// crisp contract is per round, not global — see the quota comment in
// horizon.go.)
func TestSpeculationQuotaBoundsDenseBootstrap(t *testing.T) {
	const ttl = 40
	loose := runDense(t, Config{NumPEs: 1, NumKPs: 8, Seed: 1,
		BatchSize: 16, GVTInterval: 512}, ttl)

	tight := runDense(t, Config{NumPEs: 1, NumKPs: 8, Seed: 1,
		BatchSize: 16, GVTInterval: 8}, ttl)

	// Fossil collection commits strictly below GVT, and in this ring up to
	// ttl+1 jobs coincide on the frontier tick, so those stay live past a
	// round; add a batch of overshoot on top of the quota itself.
	quota := int64(16 * 8)
	if limit := quota + int64(ttl+1) + 16; tight.LivePeak > limit {
		t.Fatalf("tight live peak %d exceeds quota-derived bound %d", tight.LivePeak, limit)
	}
	if tight.LivePeak*10 > loose.LivePeak {
		t.Fatalf("tight live peak %d not well below loose-quota peak %d",
			tight.LivePeak, loose.LivePeak)
	}
	if loose.Committed != tight.Committed {
		t.Fatalf("committed events: loose %d vs tight %d", loose.Committed, tight.Committed)
	}
}
