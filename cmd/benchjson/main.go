// Command benchjson converts `go test -bench` output into a machine-
// readable JSON trajectory file, optionally embedding a previously captured
// baseline so before/after numbers travel together, and optionally
// asserting thresholds so CI fails loudly when a perf property regresses.
//
//	go test -bench=. -benchmem | benchjson -out BENCH.json
//	go test -bench=KernelPHOLD -benchmem | benchjson \
//	    -baseline BENCH_BASELINE.json \
//	    -check 'KernelPHOLD/pe4:allocs/op<=0.5*baseline' \
//	    -out BENCH_PR2.json
//
// The check syntax is NAME:FIELD<=BOUND or NAME:FIELD>=BOUND, where FIELD
// is any benchmark unit (ns/op, B/op, allocs/op, events/s, ...) and BOUND
// is either a number or FACTOR*baseline, resolved against the same field
// of the same benchmark in the embedded baseline. See EXPERIMENTS.md for
// the output schema.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark line. The three standard units get named fields;
// everything else (b.ReportMetric output) lands in Metrics keyed by unit.
// A nil standard field is a unit the line did not report, so a measured 0
// (say, 0 allocs/op) survives parsing and JSON round-trips as a value.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     *float64           `json:"ns_per_op,omitempty"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the on-disk document: context lines from the bench header, the
// results, and (optionally) the baseline document this run is compared to.
type File struct {
	Label      string            `json:"label,omitempty"`
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []Result          `json:"benchmarks"`
	Baseline   *File             `json:"baseline,omitempty"`
}

func (f *File) find(name string) *Result {
	for i := range f.Benchmarks {
		if f.Benchmarks[i].Name == name {
			return &f.Benchmarks[i]
		}
	}
	return nil
}

// standard returns the slot for one of the three named units, or nil for a
// custom metric.
func (r *Result) standard(unit string) **float64 {
	switch unit {
	case "ns/op":
		return &r.NsPerOp
	case "B/op":
		return &r.BytesPerOp
	case "allocs/op":
		return &r.AllocsPerOp
	}
	return nil
}

// field returns the named unit's value: a standard unit or a custom metric.
func (r *Result) field(unit string) (float64, bool) {
	if p := r.standard(unit); p != nil {
		if *p == nil {
			return 0, false
		}
		return **p, true
	}
	v, ok := r.Metrics[unit]
	return v, ok
}

var benchLine = regexp.MustCompile(`^(Benchmark\S*)\s+(\d+)\s+(.*)$`)

// gomaxprocsSuffix is the "-8" style suffix the testing package appends to
// benchmark names when GOMAXPROCS != 1.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench` output. Header lines (goos, goarch,
// pkg, cpu) become context; unrecognised lines (PASS, ok, test logs) are
// skipped.
func parseBench(r io.Reader) (*File, error) {
	f := &File{Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(line, ": "); ok && len(strings.Fields(k)) == 1 {
			switch k {
			case "goos", "goarch", "pkg", "cpu":
				f.Context[k] = v
				continue
			}
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad iteration count in %q", line)
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		name = gomaxprocsSuffix.ReplaceAllString(name, "")
		res := Result{Name: name, Iterations: iters}
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("benchjson: unpaired value/unit in %q", line)
		}
		for i := 0; i < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in %q", fields[i], line)
			}
			unit := fields[i+1]
			if p := res.standard(unit); p != nil {
				*p = &val
				continue
			}
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[unit] = val
		}
		f.Benchmarks = append(f.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(f.Context) == 0 {
		f.Context = nil
	}
	return f, nil
}

// bestOf collapses repeated samples of one benchmark (go test -count=N)
// to the sample with the lowest ns/op. On a shared host wall-clock noise
// is one-sided — interference only ever makes a run slower — so the
// fastest sample is the robust estimator, and selecting the whole sample
// (rather than folding per-field minima) keeps its units mutually
// consistent. First-appearance order is preserved.
func bestOf(in []Result) []Result {
	idx := map[string]int{}
	var out []Result
	for _, r := range in {
		i, ok := idx[r.Name]
		if !ok {
			idx[r.Name] = len(out)
			out = append(out, r)
			continue
		}
		if r.NsPerOp != nil && (out[i].NsPerOp == nil || *r.NsPerOp < *out[i].NsPerOp) {
			out[i] = r
		}
	}
	return out
}

// check is one parsed -check assertion.
type check struct {
	name, unit string
	le         bool // true for <=, false for >=
	bound      float64
	relative   bool // bound is a factor of the baseline's value
}

var checkRe = regexp.MustCompile(`^(.+):([^:<>]+)(<=|>=)(.+)$`)

func parseCheck(s string) (check, error) {
	m := checkRe.FindStringSubmatch(s)
	if m == nil {
		return check{}, fmt.Errorf("benchjson: bad -check %q (want NAME:FIELD<=BOUND)", s)
	}
	c := check{name: m[1], unit: strings.TrimSpace(m[2]), le: m[3] == "<="}
	rhs := strings.TrimSpace(m[4])
	if factor, ok := strings.CutSuffix(rhs, "*baseline"); ok {
		c.relative = true
		rhs = factor
	}
	v, err := strconv.ParseFloat(rhs, 64)
	if err != nil {
		return check{}, fmt.Errorf("benchjson: bad -check bound %q in %q", rhs, s)
	}
	c.bound = v
	return c, nil
}

// eval resolves the check against the run (and its baseline, for relative
// bounds) and returns a failure description, or "" on pass.
func (c check) eval(f *File) string {
	res := f.find(c.name)
	if res == nil {
		return fmt.Sprintf("benchmark %q not found in results", c.name)
	}
	got, ok := res.field(c.unit)
	if !ok {
		return fmt.Sprintf("benchmark %q has no %s", c.name, c.unit)
	}
	bound := c.bound
	if c.relative {
		if f.Baseline == nil {
			return fmt.Sprintf("check on %q needs -baseline for a *baseline bound", c.name)
		}
		base := f.Baseline.find(c.name)
		if base == nil {
			return fmt.Sprintf("benchmark %q not found in baseline", c.name)
		}
		bv, ok := base.field(c.unit)
		if !ok {
			return fmt.Sprintf("baseline %q has no %s", c.name, c.unit)
		}
		bound = c.bound * bv
	}
	if c.le && got > bound {
		return fmt.Sprintf("%s: %s = %g, want <= %g", c.name, c.unit, got, bound)
	}
	if !c.le && got < bound {
		return fmt.Sprintf("%s: %s = %g, want >= %g", c.name, c.unit, got, bound)
	}
	return ""
}

type checkList []string

func (c *checkList) String() string     { return strings.Join(*c, ",") }
func (c *checkList) Set(s string) error { *c = append(*c, s); return nil }

func main() {
	var (
		label    = flag.String("label", "", "label recorded in the output document")
		baseline = flag.String("baseline", "", "benchjson file to embed as the baseline")
		out      = flag.String("out", "", "output path (default stdout)")
		best     = flag.Bool("best", false, "collapse repeated samples (go test -count=N) to each benchmark's fastest run")
		checks   checkList
	)
	flag.Var(&checks, "check", "assertion NAME:FIELD<=BOUND (repeatable); BOUND may be FACTOR*baseline")
	flag.Parse()

	f, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(f.Benchmarks) == 0 {
		fatal(fmt.Errorf("benchjson: no benchmark lines on stdin"))
	}
	if *best {
		f.Benchmarks = bestOf(f.Benchmarks)
	}
	f.Label = *label
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		base := &File{}
		if err := json.Unmarshal(raw, base); err != nil {
			fatal(fmt.Errorf("benchjson: parsing %s: %w", *baseline, err))
		}
		base.Baseline = nil // one level of history is enough
		f.Baseline = base
	}

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}

	failed := 0
	for _, s := range checks {
		c, err := parseCheck(s)
		if err != nil {
			fatal(err)
		}
		if msg := c.eval(f); msg != "" {
			fmt.Fprintln(os.Stderr, "benchjson: FAIL:", msg)
			failed++
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: ok: %s\n", s)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
