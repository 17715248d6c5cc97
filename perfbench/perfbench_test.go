package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hotpotato"
	"repro/internal/phold"
)

// tiny returns a workload of the same shape as the named one, small enough
// for a test to run in well under a second.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	switch w.Model {
	case "hotpotato":
		w.N, w.Steps = 8, 40
	case "phold":
		w.LPs, w.Population, w.EndTime = 64, 4, 10
	}
	return w
}

func tinyInvocation(t *testing.T, w workload) *invocation {
	return &invocation{opt: options{w: w, seed: 3, pes: 2, tmp: t.TempDir(), ckptEvery: 4, log: io.Discard}}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
		Work     []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	if len(spec.Work) == 0 {
		t.Fatal("BENCHMARK.json names no workload")
	}
	for _, w := range spec.Work {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	return endToEnd, perLayer
}

// sameKeys fails unless rep holds exactly the named metrics, all finite.
func sameKeys(t *testing.T, rep report, names []string) {
	t.Helper()
	if len(rep.Metrics) != len(names) {
		t.Errorf("got %d metrics, want %d", len(rep.Metrics), len(names))
	}
	for _, n := range names {
		m, ok := rep.Metrics[n]
		if !ok {
			t.Errorf("metric %s missing", n)
			continue
		}
		if m.Unit == "" || m.Value != m.Value {
			t.Errorf("metric %s = %+v", n, m)
		}
	}
}

func TestEveryWorkloadProducesEveryMetric(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			w := tiny(t, w.Name)
			s := tinyInvocation(t, w)
			rep, err := s.endToEnd()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < minPairs+1 {
				t.Fatalf("end-to-end: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			sameKeys(t, rep, endToEnd)
			for _, n := range endToEnd {
				if rep.Metrics[n].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, rep.Metrics[n].Value)
				}
			}

			s = tinyInvocation(t, w)
			s.opt.spans = filepath.Join(t.TempDir(), "spans")
			rep, err = s.layers()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("per-layer: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			sameKeys(t, rep, perLayer)
			for _, n := range []string{"core.efficiency", "core.gvt_rounds", "core.gvt_interval_ms_p50", "rng.uniform_ns", "seq_events_per_s", "trace.rate_ratio", w.Model + ".forward_ns_p50"} {
				if rep.Metrics[n].Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, rep.Metrics[n].Value)
				}
			}
			// The checkpoint probe measures the replay layer on hotpotato;
			// the eventq probe runs PHOLD's traffic only.
			hp := w.Model == "hotpotato"
			if got := rep.Metrics["replay.ckpt_count"].Value > 0 && rep.Metrics["replay.ckpt_bytes"].Value > 0; got != hp {
				t.Errorf("checkpoint metrics present = %v on a %s workload: %+v", got, w.Model, rep.Metrics)
			}
			if got := rep.Metrics["routing.route_calls"].Value > 0; got != hp {
				t.Errorf("routing.route_calls = %v on a %s workload", rep.Metrics["routing.route_calls"].Value, w.Model)
			}
			if got := rep.Metrics["eventq.hold_ns"].Value > 0; got == hp {
				t.Errorf("eventq.hold_ns = %v on a %s workload", rep.Metrics["eventq.hold_ns"].Value, w.Model)
			}
			_, err = os.Stat(s.opt.spans + "-ckpt.jsonl")
			if _, serr := os.Stat(s.opt.spans + ".jsonl"); serr != nil || (err == nil) != hp {
				t.Errorf("spans files: traced run %v, checkpoint probe %v", serr, err)
			}
		})
	}
}

// A seeded divergence must be counted as a failed run, never reported as
// a pass.
func TestTamperedResultsCountAsFailures(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(*outcome)
	}{
		{"hotpotato-n32", func(o *outcome) {
			tot := o.Model.(hotpotato.Totals)
			tot.Delivered++
			o.Model = tot
		}},
		{"phold-kernel", func(o *outcome) { o.Model = o.Model.(int64) - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tinyInvocation(t, tiny(t, tc.name))
			s.tamper = tc.tamper
			rep, err := s.endToEnd()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correct || rep.Failed != rep.Attempted || rep.Attempted == 0 {
				t.Fatalf("tampered runs reported correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
		})
	}
}

// The checkpoint probe goes through the same gate: a tampered result, or a
// directory without a checkpoint at GVT > 0, is a failed run.
func TestCheckpointProbeIsGated(t *testing.T) {
	w := tiny(t, "hotpotato-n32")
	s := tinyInvocation(t, w)
	if err := s.start(); err != nil {
		t.Fatal(err)
	}
	probe := w.ckptProbe(s.opt.ckptEvery)
	if tr, ok := s.traced(probe); !ok || len(tr.ckpts) == 0 {
		t.Fatalf("checkpoint probe: ok=%v", ok)
	}
	s.tamper = func(o *outcome) { o.Committed++ }
	if _, ok := s.traced(probe); ok {
		t.Fatal("tampered checkpoint probe passed the gate")
	}
	s.tamper = nil
	probe.CkptEvery = 1 << 20 // never due: the directory stays empty
	if _, ok := s.traced(probe); ok {
		t.Fatal("a checkpoint probe that published nothing passed the gate")
	}
	if s.attempted != 3 || s.failed != 2 {
		t.Fatalf("attempted %d, failed %d; want 3, 2", s.attempted, s.failed)
	}
}

// The traced run's committed results must equal the untraced run's: the
// wrappers only observe.
func TestTracedRunMatchesUntraced(t *testing.T) {
	hp := tiny(t, "hotpotato-n32").ckptProbe(4)
	for _, w := range []workload{tiny(t, "hotpotato-n32"), tiny(t, "phold-kernel"), hp} {
		t.Run(fmt.Sprintf("%s/ckpt%d", w.Name, w.CkptEvery), func(t *testing.T) {
			s := tinyInvocation(t, w)
			if err := s.start(); err != nil {
				t.Fatal(err)
			}
			plain, ok := s.run(w, nil)
			if !ok {
				t.Fatal("untraced run failed")
			}
			tr := new(tracer)
			r, err := w.buildTW(s.opt.seed, s.opt.pes, s.opt.tmp, tr)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if res.out != plain.out {
				t.Fatalf("traced outcome %+v differs from untraced %+v", res.out, plain.out)
			}
			if tr.unattributed.Load() {
				t.Fatal("a Route call was not attributed to its LP")
			}
			if len(tr.roundAt) == 0 {
				t.Fatal("record sink saw no GVT round")
			}
		})
	}
}

// The handler wrapper implements core.Recycler and core.Committer exactly
// when the wrapped handler does.
func TestHandlerWrapperIsTransparent(t *testing.T) {
	hp, _, err := hotpotato.BuildSequential(tiny(t, "hotpotato-n32").hotpotatoConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ph, _, err := phold.BuildSequential(tiny(t, "phold-kernel").pholdConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []core.Handler{hp.LP(0).Handler, ph.LP(0).Handler} {
		h := wrapHandler(inner, new(tracer))
		_, innerR := inner.(core.Recycler)
		_, innerC := inner.(core.Committer)
		_, gotR := h.(core.Recycler)
		_, gotC := h.(core.Committer)
		if gotR != innerR || gotC != innerC {
			t.Errorf("%T: wrapper Recycler=%v Committer=%v, inner %v %v", inner, gotR, gotC, innerR, innerC)
		}
	}
	inner := tiny(t, "hotpotato-n32").hotpotatoConfig(1, 1).Policy
	if got := new(tracer).wrapPolicy(inner).Name(); got != inner.Name() {
		t.Errorf("policy wrapper Name() = %q, want %q", got, inner.Name())
	}
}

type fakeLP struct{ v float64 }

func (f *fakeLP) Rand() float64 { return f.v }

// lpOf attributes exactly the lp.Rand method values of the simulator's
// own LPs.
func TestLPOf(t *testing.T) {
	build := func() *core.Simulator {
		sim, _, err := phold.Build(tiny(t, "phold-kernel").pholdConfig(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	sim, other := build(), build()
	tr := new(tracer)
	if _, ok := tr.lpOf(sim.LP(5).Rand); ok {
		t.Fatal("lpOf attributed a call before wrapHandlers")
	}
	tr.wrapHandlers(sim)
	if id, ok := tr.lpOf(sim.LP(5).Rand); !ok || id != 5 {
		t.Fatalf("lpOf(lp.Rand) = %d, %v; want 5, true", id, ok)
	}
	x := 0.5
	for name, f := range map[string]func() float64{
		"nil":               nil,
		"capture-less func": func() float64 { return 0.5 },
		"closure":           func() float64 { return x },
		"other method":      (&fakeLP{}).Rand,
		"foreign LP":        other.LP(5).Rand,
	} {
		if id, ok := tr.lpOf(f); ok {
			t.Errorf("lpOf(%s) = %d, true; want a miss", name, id)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 10000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 10000
		if got := h.quantile(q); got < want*0.94 || got > want*1.06 {
			t.Errorf("quantile(%v) = %v, want within 6%% of %v", q, got, want)
		}
	}
	for v := uint64(0); v < 1<<20; v = v*3/2 + 1 {
		lo, hi := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Fatalf("value %d outside its bucket [%v, %v)", v, lo, hi)
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}

func TestResultLineIsLastAndComplete(t *testing.T) {
	var out bytes.Buffer
	rep := report{Correct: true, Attempted: 4, Metrics: map[string]metric{"setup_s": {0.01, "s"}}}
	if err := printReport(&out, map[string]any{"seed": 1}, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("result line keys: %s", lines[len(lines)-1])
	}
	if !strings.Contains(out.String(), "setup_s") || !strings.Contains(out.String(), "provenance") {
		t.Fatalf("output lacks metric or provenance lines:\n%s", out.String())
	}
}

func TestBadArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "phold-kernel", "--trace", "2"},
		{"--workload", "phold-kernel", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
