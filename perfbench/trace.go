package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/routing"
)

// lpTimes is one LP's per-call accumulators. Only the PE that owns the LP
// writes them, so the traced run adds no cross-PE write.
type lpTimes struct {
	forward, reverse, route hist
}

// tracer holds the in-memory state of one traced run: per-LP call
// timings, GVT round times (written only on PE 0) and checkpoint spans
// (written only on PE 0 while the machine is quiescent). start and wall
// bracket Simulator.Run.
type tracer struct {
	lps   []*lpTimes
	start time.Time
	wall  time.Duration

	roundAt  []time.Duration
	roundGVT []core.Time

	ckpts   []span
	ckptDir string
	ckptErr error

	// randFn and lpAt identify the routing LP of a Route call (see
	// lpOf). Both are written before Run and only read during it.
	randFn uintptr
	lpAt   map[uintptr]core.LPID
	// unattributed is set if a Route call could not be tied to its LP.
	unattributed atomic.Bool
}

// span is one written-out trace record. Parent is the ID of the span whose
// interval contains this one (0 for the root). Bytes is the size of the
// file a checkpoint span published.
type span struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	Parent  int     `json:"parent"`
	Bytes   int64   `json:"bytes,omitempty"`
}

// wrapHandlers replaces every LP's handler with a timing wrapper and
// records each LP's address for lpOf.
func (t *tracer) wrapHandlers(sim *core.Simulator) {
	t.lps = make([]*lpTimes, sim.NumLPs())
	for i := range t.lps {
		t.lps[i] = new(lpTimes)
	}
	t.lpAt = make(map[uintptr]core.LPID, sim.NumLPs())
	sim.ForEachLP(func(lp *core.LP) {
		lp.Handler = wrapHandler(lp.Handler, t)
		t.lpAt[uintptr(unsafe.Pointer(lp))] = lp.ID
		t.randFn = funcCode(lp.Rand)
	})
}

// timedHandler times Forward and Reverse into the LP's own slot.
type timedHandler struct {
	inner core.Handler
	t     *tracer
}

func (h *timedHandler) Forward(lp *core.LP, ev *core.Event) {
	s := time.Now()
	h.inner.Forward(lp, ev)
	h.t.lps[lp.ID].forward.add(int64(time.Since(s)))
}

func (h *timedHandler) Reverse(lp *core.LP, ev *core.Event) {
	s := time.Now()
	h.inner.Reverse(lp, ev)
	h.t.lps[lp.ID].reverse.add(int64(time.Since(s)))
}

// wrapHandler returns a timing wrapper that implements core.Recycler and
// core.Committer exactly when inner does, so the kernel takes the same
// paths with and without it.
func wrapHandler(inner core.Handler, t *tracer) core.Handler {
	h := &timedHandler{inner: inner, t: t}
	r, isRecycler := inner.(core.Recycler)
	c, isCommitter := inner.(core.Committer)
	switch {
	case isRecycler && isCommitter:
		return struct {
			*timedHandler
			core.Recycler
			core.Committer
		}{h, r, c}
	case isRecycler:
		return struct {
			*timedHandler
			core.Recycler
		}{h, r}
	case isCommitter:
		return struct {
			*timedHandler
			core.Committer
		}{h, c}
	}
	return h
}

// timedPolicy times routing decisions. It keeps the inner policy's Name.
type timedPolicy struct {
	routing.Policy
	t *tracer
}

func (t *tracer) wrapPolicy(p routing.Policy) routing.Policy { return &timedPolicy{Policy: p, t: t} }

// Route attributes the call to the routing LP, which lpOf finds from
// ctx.Rand. A call it cannot attribute fails the traced run instead of
// writing to the wrong slot.
func (p *timedPolicy) Route(ctx *routing.Ctx) routing.Decision {
	s := time.Now()
	d := p.Policy.Route(ctx)
	el := time.Since(s)
	id, ok := p.t.lpOf(ctx.Rand)
	if !ok {
		p.t.unattributed.Store(true)
		return d
	}
	p.t.lps[id].route.add(int64(el))
	return d
}

// methodValue is the layout of a method-value closure: the code pointer of
// the compiler's wrapper for the method, then the bound receiver.
type methodValue struct {
	fn   uintptr
	recv uintptr
}

// funcCode returns the code pointer of a non-nil func value.
func funcCode(f func() float64) uintptr {
	return (*(**methodValue)(unsafe.Pointer(&f))).fn
}

// lpOf returns the ID of the LP bound into f, which the hotpotato model
// sets to the method value lp.Rand. f must call the same code as the
// method value of (*core.LP).Rand before its second word is read as a
// receiver, and that receiver must be one of the simulator's LPs; it is
// only compared, never dereferenced. Anything else is not attributed.
func (t *tracer) lpOf(f func() float64) (core.LPID, bool) {
	if f == nil || t.randFn == 0 {
		return 0, false
	}
	c := *(**methodValue)(unsafe.Pointer(&f))
	if c.fn != t.randFn {
		return 0, false
	}
	id, ok := t.lpAt[c.recv]
	return id, ok
}

// gvtRecorder is the core.RecordSink of a traced run. Only GVTRound (PE 0)
// records anything; the mail and rollback callbacks run on every PE and
// are covered by core.Stats.
type gvtRecorder tracer

func (g *gvtRecorder) MailBatch(dst, src, n int)                           {}
func (g *gvtRecorder) Rollback(pe, kp, events int, secondary, forced bool) {}
func (g *gvtRecorder) GVTRound(round int64, gvt core.Time) {
	g.roundAt = append(g.roundAt, time.Since(g.start))
	g.roundGVT = append(g.roundGVT, gvt)
}

// timedSink times each checkpoint publication and records the size of the
// file it published.
type timedSink struct {
	inner core.CheckpointSink
	t     *tracer
}

func (t *tracer) wrapCheckpoint(s core.CheckpointSink, dir string) core.CheckpointSink {
	t.ckptDir = dir
	return &timedSink{inner: s, t: t}
}

func (s *timedSink) Checkpoint(cs *core.CheckpointState) error {
	t := s.t
	b := time.Since(t.start)
	err := s.inner.Checkpoint(cs)
	e := time.Since(t.start)
	// The span's parent is the GVT round interval that contains it: the
	// one that ends at the next GVTRound call.
	sp := span{Name: "replay.checkpoint", StartMS: ms(b), EndMS: ms(e), Parent: len(t.roundAt) + 2}
	if err == nil {
		size, serr := newestCheckpointSize(t.ckptDir)
		if serr != nil && t.ckptErr == nil {
			t.ckptErr = serr
		}
		sp.Bytes = size
	}
	t.ckpts = append(t.ckpts, sp)
	return err
}

// newestCheckpointSize returns the size of the highest-numbered published
// checkpoint file in dir.
func newestCheckpointSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	newest := ""
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "checkpoint-") && strings.HasSuffix(n, ".ckpt") && n > newest {
			newest = n
		}
	}
	if newest == "" {
		return 0, fmt.Errorf("no published checkpoint file in %s", dir)
	}
	fi, err := os.Stat(filepath.Join(dir, newest))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// spans renders the run as spans: the run (ID 1), one span per GVT round
// interval (IDs from 2, parent 1) and one per checkpoint (parent: the
// round interval containing it).
func (t *tracer) spans() []span {
	out := []span{{ID: 1, Name: "core.run", EndMS: ms(t.wall)}}
	var prev time.Duration
	for i, at := range t.roundAt {
		out = append(out, span{ID: i + 2, Name: "core.gvt_round", StartMS: ms(prev), EndMS: ms(at), Parent: 1})
		prev = at
	}
	for i, c := range t.ckpts {
		c.ID = len(t.roundAt) + 2 + i
		if c.Parent >= len(t.roundAt)+2 {
			c.Parent = 1
		}
		out = append(out, c)
	}
	return out
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
