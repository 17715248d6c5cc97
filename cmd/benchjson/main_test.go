package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkKernelPHOLD/pe1         	       1	1251215284 ns/op	    625741 events/run	86025568 B/op	 1955249 allocs/op
BenchmarkKernelPHOLD/pe4-8       	       1	1084712432 ns/op	    625741 events/run	87828944 B/op	 1988225 allocs/op
BenchmarkFig6Efficiency          	       1	 208644416 ns/op	         0.2104 speedup/PE	99836728 B/op	 1940808 allocs/op
PASS
ok  	repro	6.828s
`

func parseSample(t *testing.T) *File {
	t.Helper()
	f, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseBench(t *testing.T) {
	f := parseSample(t)
	if len(f.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(f.Benchmarks))
	}
	if f.Context["cpu"] != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu context = %q", f.Context["cpu"])
	}

	// The GOMAXPROCS suffix is stripped so names are stable across hosts.
	pe4 := f.find("KernelPHOLD/pe4")
	if pe4 == nil {
		t.Fatal("KernelPHOLD/pe4 not found (suffix not stripped?)")
	}
	for unit, want := range map[string]float64{"ns/op": 1084712432, "allocs/op": 1988225, "B/op": 87828944} {
		if got, ok := pe4.field(unit); !ok || got != want {
			t.Errorf("%s = %g (present %v), want %g", unit, got, ok, want)
		}
	}
	if pe4.Metrics["events/run"] != 625741 {
		t.Errorf("events/run = %g", pe4.Metrics["events/run"])
	}

	eff := f.find("Fig6Efficiency")
	if eff == nil || eff.Metrics["speedup/PE"] != 0.2104 {
		t.Errorf("Fig6Efficiency speedup/PE missing or wrong: %+v", eff)
	}
}

// f64 boxes a literal for Result's optional standard fields.
func f64(v float64) *float64 { return &v }

func TestBestOf(t *testing.T) {
	in := []Result{
		{Name: "A", NsPerOp: f64(300), AllocsPerOp: f64(7), Metrics: map[string]float64{"ev/s": 10}},
		{Name: "B", NsPerOp: f64(50)},
		{Name: "A", NsPerOp: f64(100), AllocsPerOp: f64(9), Metrics: map[string]float64{"ev/s": 30}},
		{Name: "A", NsPerOp: f64(200), AllocsPerOp: f64(8)},
		{Name: "B", NsPerOp: f64(60)},
	}
	out := bestOf(in)
	if len(out) != 2 {
		t.Fatalf("got %d results, want 2", len(out))
	}
	// First-appearance order, whole-sample selection: A keeps its fastest
	// run's allocs and metrics, not a per-field minimum.
	a, b := out[0], out[1]
	if a.Name != "A" || b.Name != "B" {
		t.Fatalf("order not preserved: %q, %q", a.Name, b.Name)
	}
	if *a.NsPerOp != 100 || *a.AllocsPerOp != 9 || a.Metrics["ev/s"] != 30 {
		t.Errorf("A kept the wrong sample: %+v", a)
	}
	if *b.NsPerOp != 50 {
		t.Errorf("B kept the wrong sample: %+v", b)
	}
}

func TestChecks(t *testing.T) {
	f := parseSample(t)
	// A baseline with double the allocations: the run halved them.
	f.Baseline = &File{Benchmarks: []Result{
		{Name: "KernelPHOLD/pe4", AllocsPerOp: f64(4000000)},
	}}

	cases := []struct {
		expr string
		pass bool
	}{
		{"KernelPHOLD/pe4:allocs/op<=2000000", true},
		{"KernelPHOLD/pe4:allocs/op<=1000000", false},
		{"KernelPHOLD/pe4:events/run>=625741", true},
		{"KernelPHOLD/pe4:events/run>=700000", false},
		{"KernelPHOLD/pe4:allocs/op<=0.5*baseline", true},
		{"KernelPHOLD/pe4:allocs/op<=0.4*baseline", false},
		{"Fig6Efficiency:speedup/PE>=0.2", true},
	}
	for _, c := range cases {
		chk, err := parseCheck(c.expr)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		msg := chk.eval(f)
		if (msg == "") != c.pass {
			t.Errorf("%s: pass=%v, msg=%q", c.expr, msg == "", msg)
		}
	}

	// Relative bound without a baseline is an error, not a silent pass.
	f.Baseline = nil
	chk, err := parseCheck("KernelPHOLD/pe4:allocs/op<=0.5*baseline")
	if err != nil {
		t.Fatal(err)
	}
	if chk.eval(f) == "" {
		t.Error("relative check passed without a baseline")
	}

	if _, err := parseCheck("garbage"); err == nil {
		t.Error("parseCheck accepted garbage")
	}
}

// TestZeroIsAValue: a parsed 0 is a measurement, not a missing unit — it
// must gate, and survive a JSON round-trip — while a unit the line never
// reported stays absent.
func TestZeroIsAValue(t *testing.T) {
	f, err := parseBench(strings.NewReader("BenchmarkX-2 10 100 ns/op 0 B/op 0 allocs/op\nBenchmarkY 10 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	back := &File{}
	if err := json.Unmarshal(raw, back); err != nil {
		t.Fatal(err)
	}
	for _, doc := range []*File{f, back} {
		for _, c := range []struct {
			expr string
			pass bool
		}{
			{"X:allocs/op<=0", true},
			{"X:B/op<=0", true},
			{"X:allocs/op>=1", false},
			{"Y:allocs/op<=0", false},
		} {
			chk, err := parseCheck(c.expr)
			if err != nil {
				t.Fatal(err)
			}
			if msg := chk.eval(doc); (msg == "") != c.pass {
				t.Errorf("%s: pass=%v, msg=%q", c.expr, msg == "", msg)
			}
		}
	}
	if !strings.Contains(string(raw), `"allocs_per_op":0`) || strings.Count(string(raw), "allocs_per_op") != 1 {
		t.Errorf("JSON must carry X's 0 allocs/op and omit Y's: %s", raw)
	}
}
