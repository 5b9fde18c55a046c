// Command perfbench is the repository benchmark: it runs one named
// workload against mobiquery from a seed, checks the program's outputs,
// and prints its metrics as one JSON object on the last line of stdout.
//
//	perfbench --workload dense-ondemand --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off; with --trace 1 it prints the per-layer metrics, from a diagnostic
// run that also traces every subscription. run.sh builds it and the
// mobiquery-serve binary from source and execs it. METRICS.md maps each
// per-layer metric to the end-to-end metric it should move.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// metricSet is an ordered list of named, unit-tagged values.
type metricSet struct {
	names []string
	vals  map[string]metricVal
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) add(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = map[string]metricVal{}
	}
	if _, dup := m.vals[name]; !dup {
		m.names = append(m.names, name)
	}
	m.vals[name] = metricVal{Value: v, Unit: unit}
}

func (m *metricSet) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range m.names {
		if i > 0 {
			b.WriteByte(',')
		}
		v, err := json.Marshal(m.vals[n])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%q:%s", n, v)
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Metrics   *metricSet `json:"metrics"`
}

// params is one invocation.
type params struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	serve    string // mobiquery-serve binary (serve-h2)
	out      string // directory for the span log
}

// note writes a diagnostic line to stderr; stdout carries only the result.
func note(format string, a ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...) }

func main() {
	var p params
	var secs, trace int
	flag.StringVar(&p.workload, "workload", "", "dense-ondemand, predictive-churn or serve-h2")
	flag.Int64Var(&p.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced diagnostic run")
	flag.StringVar(&p.serve, "serve", "", "mobiquery-serve binary (serve-h2)")
	flag.StringVar(&p.out, "out", ".", "directory the span log is written to")
	record := flag.Int("record-digests", 0, "print the in-process prefix digests of seeds 0..N-1 as digests.json and exit")
	flag.Parse()
	if *record > 0 {
		if err := recordDigests(context.Background(), *record); err != nil {
			note("%v", err)
			os.Exit(1)
		}
		return
	}
	p.seconds, p.trace = time.Duration(secs)*time.Second, trace == 1
	if secs < 1 || (trace != 0 && trace != 1) {
		note("--seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}

	ctx := context.Background()
	var (
		res *result
		err error
		log = &spanLog{on: p.trace}
	)
	switch p.workload {
	case "dense-ondemand", "predictive-churn":
		res, err = runInproc(ctx, p, log)
	case "serve-h2":
		res, err = runServe(ctx, p, log)
	default:
		err = fmt.Errorf("unknown workload %q", p.workload)
	}
	if err != nil {
		note("%v", err)
		os.Exit(1)
	}
	if p.trace {
		path := filepath.Join(p.out, "spans-"+p.workload+"-"+strconv.FormatInt(p.seed, 10)+".ndjson")
		if err := log.write(path); err != nil {
			note("writing span log: %v", err)
			os.Exit(1)
		}
		note("%d benchmark spans written to %s (%d over capacity)", len(log.spans), path, log.dropped)
	}
	line, err := json.Marshal(res)
	if err != nil {
		note("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// recorded holds the prefix digests of the in-process workloads for the
// seeds they were recorded at, by workload then seed.
//
//go:embed digests.json
var recordedJSON []byte

// recordDigests prints digests.json for seeds 0..n-1.
func recordDigests(ctx context.Context, n int) error {
	all := map[string]map[string]string{}
	for name, spec := range map[string]inprocSpec{"dense-ondemand": denseSpec(), "predictive-churn": churnSpec()} {
		all[name] = map[string]string{}
		for seed := int64(0); seed < int64(n); seed++ {
			d, err := prefixDigest(ctx, spec, seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			all[name][strconv.FormatInt(seed, 10)] = d.String()
		}
	}
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func recordedDigest(workload string, seed int64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(recordedJSON, &all); err != nil {
		note("digests.json: %v", err)
		return "", false
	}
	d, ok := all[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}
