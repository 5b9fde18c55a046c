// Command mobiquery-benchcmp compares two benchmark runs recorded as
// test2json streams (the BENCH_pr.json artifact `make bench-json`
// produces, and the committed BENCH_baseline.json). It extracts the
// benchmark result lines, delegates to benchstat when that tool is on
// PATH, and otherwise prints its own old/new/delta table — so CI can
// surface Advance/evaluation regressions without any dependency beyond
// the Go toolchain.
//
// The smoke pass runs every benchmark once (-benchtime=1x), so single
// deltas are noisy; the table records the perf trajectory rather than a
// statistically settled comparison. Treat large, systematic movements
// (10x on an O(1) path) as signal and small ones as noise — or install
// benchstat and raise -benchtime for real measurements.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of the test2json record shape we need.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// metrics maps unit -> value for one benchmark ("ns/op" -> 75.2, ...).
type metrics map[string]float64

// run is every benchmark result in one file, keyed by benchmark name with
// the -GOMAXPROCS suffix stripped, plus the raw result lines for
// benchstat.
type run struct {
	results map[string]metrics
	order   []string
	raw     []string
}

// parseMetrics reads the value/unit pairs of one result line ("75.24
// ns/op 0 B/op ..."). nil means the fields are not a metric list.
func parseMetrics(fields []string) metrics {
	if len(fields) == 0 || len(fields)%2 != 0 {
		return nil
	}
	m := metrics{}
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil
		}
		m[fields[i+1]] = v
	}
	return m
}

// parse extracts benchmark result lines from a test2json stream. A result
// line looks like:
//
//	BenchmarkAdvanceIdle-8   34044992   75.24 ns/op   0 B/op   0 allocs/op
//
// with any b.ReportMetric units appended in the same value/unit pairs.
// The benchmark runner prints the name before it starts measuring, so
// test2json frequently splits name and metrics into two output events —
// they are rejoined here, tracked per package since package streams may
// interleave.
func parse(path string) (*run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &run{results: make(map[string]metrics)}
	pending := make(map[string]string) // package -> benchmark name awaiting metrics
	record := func(rawName string, m metrics, line string) {
		name := rawName
		// Strip the -GOMAXPROCS suffix (absent when GOMAXPROCS=1).
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if _, seen := r.results[name]; !seen {
			r.order = append(r.order, name)
		}
		r.results[name] = m
		r.raw = append(r.raw, line)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // interleaved non-JSON noise is not ours to judge
		}
		if ev.Action != "output" {
			continue
		}
		line := strings.TrimSpace(ev.Output)
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch {
		case strings.HasPrefix(fields[0], "Benchmark") && len(fields) == 1:
			// Name flushed alone; metrics follow in a later event.
			pending[ev.Package] = fields[0]
		case strings.HasPrefix(fields[0], "Benchmark") && len(fields) >= 4 && len(fields)%2 == 0:
			delete(pending, ev.Package)
			if _, err := strconv.Atoi(fields[1]); err != nil {
				continue
			}
			if m := parseMetrics(fields[2:]); m != nil {
				record(fields[0], m, line)
			}
		default:
			// A bare iteration count + metrics completes a pending name.
			name, ok := pending[ev.Package]
			if !ok || len(fields) < 3 || len(fields)%2 != 1 {
				continue
			}
			if _, err := strconv.Atoi(fields[0]); err != nil {
				continue
			}
			if m := parseMetrics(fields[1:]); m != nil {
				delete(pending, ev.Package)
				record(name, m, name+"\t"+line)
			}
		}
	}
	return r, sc.Err()
}

// viaBenchstat rewrites both runs as benchmark text files and delegates
// the comparison to benchstat. Reports whether it ran.
func viaBenchstat(base, cur *run) bool {
	tool, err := exec.LookPath("benchstat")
	if err != nil {
		return false
	}
	write := func(name string, r *run) (string, error) {
		f, err := os.CreateTemp("", name)
		if err != nil {
			return "", err
		}
		defer f.Close()
		for _, line := range r.raw {
			fmt.Fprintln(f, line)
		}
		return f.Name(), nil
	}
	bp, err := write("bench-baseline-*.txt", base)
	if err != nil {
		return false
	}
	defer os.Remove(bp)
	cp, err := write("bench-current-*.txt", cur)
	if err != nil {
		return false
	}
	defer os.Remove(cp)
	cmd := exec.Command(tool, bp, cp)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd.Run() == nil
}

// headline units are listed first for readability; remaining units follow
// alphabetically.
var headline = []string{"ns/op", "B/op", "allocs/op"}

func unitRank(u string) int {
	for i, h := range headline {
		if u == h {
			return i
		}
	}
	return len(headline)
}

func table(base, cur *run) {
	const marker = 0.10 // flag deltas beyond ±10%
	fmt.Printf("%-36s %-14s %14s %14s %9s\n", "benchmark", "metric", "baseline", "current", "delta")
	names := append([]string(nil), cur.order...)
	for _, n := range base.order {
		if _, ok := cur.results[n]; !ok {
			names = append(names, n)
		}
	}
	for _, name := range names {
		b, c := base.results[name], cur.results[name]
		units := make([]string, 0, len(b)+len(c))
		for u := range c {
			units = append(units, u)
		}
		for u := range b {
			if _, ok := c[u]; !ok {
				units = append(units, u)
			}
		}
		sort.Slice(units, func(i, j int) bool {
			ri, rj := unitRank(units[i]), unitRank(units[j])
			if ri != rj {
				return ri < rj
			}
			return units[i] < units[j]
		})
		for _, u := range units {
			bv, hasB := b[u]
			cv, hasC := c[u]
			switch {
			case !hasB:
				fmt.Printf("%-36s %-14s %14s %14.4g %9s\n", name, u, "-", cv, "new")
			case !hasC:
				fmt.Printf("%-36s %-14s %14.4g %14s %9s\n", name, u, bv, "-", "gone")
			default:
				delta, flag := "~", ""
				if bv != 0 {
					d := (cv - bv) / bv
					delta = fmt.Sprintf("%+.1f%%", 100*d)
					if d > marker || d < -marker {
						flag = " *"
					}
				} else if cv != 0 {
					delta = "+inf"
					flag = " *"
				}
				fmt.Printf("%-36s %-14s %14.4g %14.4g %9s%s\n", name, u, bv, cv, delta, flag)
			}
			name = "" // print the benchmark name once per group
		}
	}
	fmt.Println("\n(single-iteration smoke numbers; * marks deltas beyond ±10%)")
}

// regressions lists the benchmarks present in both runs whose value for
// `unit` grew beyond threshold percent, formatted for the failure report.
// A threshold of zero (or below) disables the gate. Benchmarks whose
// baseline value is below floor are exempt: for ns/op a single smoke
// iteration of a microsecond-scale benchmark is dominated by timer
// granularity and cold-start effects (a one-off page fault reads as
// +1000%); for allocs/op a tiny baseline makes one incidental allocation
// read as a huge percentage. Only benchmarks with enough signal in one
// shot are gated.
func regressions(base, cur *run, unit string, threshold, floor float64) []string {
	if threshold <= 0 {
		return nil
	}
	var out []string
	for _, name := range cur.order {
		bv, okB := base.results[name][unit]
		cv, okC := cur.results[name][unit]
		if !okB || !okC || bv <= 0 {
			continue // new benchmark, or no such metric: nothing to gate on
		}
		if bv < floor {
			continue // too little baseline signal to mean anything
		}
		if d := 100 * (cv - bv) / bv; d > threshold {
			out = append(out, fmt.Sprintf("%s: %.4g -> %.4g %s (%+.1f%% > %.0f%%)", name, bv, cv, unit, d, threshold))
		}
	}
	return out
}

func main() {
	baseline := flag.String("baseline", "BENCH_baseline.json", "committed baseline test2json stream")
	current := flag.String("current", "BENCH_pr.json", "freshly produced test2json stream")
	threshold := flag.Float64("threshold", 0, "fail when any benchmark's ns/op regresses beyond this percentage against the baseline (0 = informational only)")
	floor := flag.Float64("floor", 100_000, "exempt benchmarks whose baseline ns/op is below this from the threshold gate (single smoke iterations of fast benchmarks are noise)")
	allocThreshold := flag.Float64("allocthreshold", 0, "fail when any benchmark's allocs/op regresses beyond this percentage against the baseline (0 = informational only)")
	allocFloor := flag.Float64("allocfloor", 100, "exempt benchmarks whose baseline allocs/op is below this from the alloc gate (tiny counts swing hugely in percent)")
	flag.Parse()

	base, err := parse(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mobiquery-benchcmp: %v\n", err)
		os.Exit(1)
	}
	cur, err := parse(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mobiquery-benchcmp: %v\n", err)
		os.Exit(1)
	}
	if len(cur.results) == 0 {
		fmt.Fprintf(os.Stderr, "mobiquery-benchcmp: no benchmark results in %s\n", *current)
		os.Exit(1)
	}
	if !viaBenchstat(base, cur) {
		table(base, cur)
	}
	bad := regressions(base, cur, "ns/op", *threshold, *floor)
	bad = append(bad, regressions(base, cur, "allocs/op", *allocThreshold, *allocFloor)...)
	if len(bad) != 0 {
		fmt.Fprintf(os.Stderr, "\nmobiquery-benchcmp: %d benchmark metric(s) regressed beyond the gate (ns/op > %.0f%%, allocs/op > %.0f%%):\n",
			len(bad), *threshold, *allocThreshold)
		for _, line := range bad {
			fmt.Fprintf(os.Stderr, "  %s\n", line)
		}
		os.Exit(1)
	}
}
