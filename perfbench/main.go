// Command perfbench is the repository's benchmark. It runs one named
// workload through the models' public Build functions with as many PEs as the
// host has CPUs, checks every optimistic run against the sequential
// engine on the same seed, and prints each metric by name with its unit;
// the last line of standard output is one JSON result object.
//
//	perfbench --workload hotpotato-n32 --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// reports the per-layer metrics from the kernel's counters, separate
// traced runs and direct probes. METRICS.md lists every metric, its unit,
// and the end-to-end metric and workload it should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 10, "measurement budget in seconds")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		tmp     = fs.String("tmp", os.TempDir(), "directory to hold checkpoint directories")
		spans   = fs.String("spans", "", "directory to write traced runs' spans to (none if empty)")
		commit  = fs.String("commit", "", "git commit of the source, recorded in the provenance line")
		digest  = fs.String("source-sha256", "", "digest of the Go sources, recorded in the provenance line")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *traced < 0 || *traced > 1 || !(*seconds > 0) {
		if err == nil {
			err = errors.New("--trace must be 0 or 1 and --seconds positive")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(*tmp, "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	pes := runtime.NumCPU()
	runtime.GOMAXPROCS(pes)
	opt := options{
		w:         w,
		seed:      *seed,
		pes:       pes,
		budget:    time.Duration(*seconds * float64(time.Second)),
		tmp:       dir,
		ckptEvery: ckptProbeEvery,
		log:       stderr,
	}
	if *spans != "" {
		opt.spans = spansPath(*spans, w, *seed)
	}
	prov := provenance(opt, *traced == 1, *commit, *digest)
	s := &invocation{opt: opt}
	var rep report
	if *traced == 1 {
		rep, err = s.layers()
	} else {
		rep, err = s.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printReport(stdout, prov, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// printReport writes a provenance line, one line per metric, and the JSON
// result as the last line.
func printReport(out io.Writer, prov map[string]any, rep report) error {
	b := bufio.NewWriter(out)
	pj, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "%s\n", pj)
	if rep.samples != nil {
		sj, err := json.Marshal(map[string]any{"samples": rep.samples})
		if err != nil {
			return err
		}
		fmt.Fprintf(b, "%s\n", sj)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(b, "%-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(b, "%-32s %16d events per run, as the sequential engine commits\n", "committed_events", rep.committed)
	frac := float64(rep.Failed) / float64(max(rep.Attempted, 1))
	fmt.Fprintf(b, "%-32s %16.6g %s (%d of %d optimistic runs)\n", "failed_frac", frac, "ratio", rep.Failed, rep.Attempted)
	rj, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "%s\n", rj)
	return b.Flush()
}

// provenance records where and on what a result was measured.
// commit names the git commit (with "-dirty" if the tree differed from
// it) and digest the sources themselves, so results of uncommitted changes
// are told apart.
func provenance(opt options, traced bool, commit, digest string) map[string]any {
	return map[string]any{
		"workload":      opt.w,
		"seed":          opt.seed,
		"trace":         traced,
		"seconds":       opt.budget.Seconds(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"pes":           opt.pes,
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": digest,
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo ("unknown"
// where that file does not exist).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS restarts the kernel's peak resident-set counter (VmHWM)
// from the current resident set. Where that is not possible the counter
// keeps the process-wide peak, which bounds every run's from above.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSS returns the peak resident set (VmHWM) in bytes since the last
// resetPeakRSS; 0 where /proc is absent.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb * 1024
			}
		}
	}
	return 0
}
